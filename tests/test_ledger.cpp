//===- tests/test_ledger.cpp - Cross-run ledger records and I/O -----------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Compare.h"
#include "obs/Json.h"
#include "obs/Ledger.h"
#include "obs/Report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace bpcr;

namespace {

/// A minimal run report: schema_version plus a metrics section with one
/// deterministic counter and one wall-clock gauge.
JsonValue reportWith(int Schema) {
  JsonValue Counters = JsonValue::object();
  Counters.set("interp.branch_events", JsonValue::integer(int64_t{45000}));
  JsonValue Gauges = JsonValue::object();
  Gauges.set("interp.events_per_sec", JsonValue::number(51234.5));
  JsonValue Metrics = JsonValue::object();
  Metrics.set("counters", Counters);
  Metrics.set("gauges", Gauges);
  JsonValue Report = JsonValue::object();
  Report.set("schema_version", JsonValue::integer(int64_t{Schema}));
  Report.set("tool", JsonValue::str("bench_fixture"));
  Report.set("command", JsonValue::str("bench"));
  Report.set("workload", JsonValue::str("synthetic"));
  Report.set("seed", JsonValue::integer(int64_t{7}));
  Report.set("events", JsonValue::integer(int64_t{20000}));
  Report.set("metrics", Metrics);
  return Report;
}

double valueOf(const std::vector<std::pair<std::string, double>> &Flat,
               const std::string &Name) {
  for (const auto &[N, V] : Flat)
    if (N == Name)
      return V;
  ADD_FAILURE() << "no metric named " << Name;
  return 0.0;
}

bool contains(const std::vector<std::pair<std::string, double>> &Flat,
              const std::string &Name) {
  for (const auto &[N, V] : Flat)
    if (N == Name)
      return true;
  return false;
}

/// Unique temp path per test; removed on destruction.
struct TempFile {
  std::string Path;
  explicit TempFile(const char *Tag)
      : Path(std::string(::testing::TempDir()) + "bpcr_ledger_" + Tag +
             ".jsonl") {
    std::remove(Path.c_str());
  }
  ~TempFile() { std::remove(Path.c_str()); }
};

void writeText(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fwrite(Text.data(), 1, Text.size(), F);
  std::fclose(F);
}

} // namespace

// -- Deterministic vs wall-clock partition ----------------------------------

TEST(Ledger, WallClockPartitionMirrorsCompareSkips) {
  EXPECT_FALSE(isWallClockMetric("counters.interp.branch_events"));
  EXPECT_FALSE(isWallClockMetric("counters.search.cache.hits"));
  EXPECT_FALSE(isWallClockMetric("pipeline.code_size.factor"));
  EXPECT_TRUE(isWallClockMetric("phases.analyze.wall_ms"));
  EXPECT_TRUE(isWallClockMetric("gauges.interp.events_per_sec"));
  EXPECT_TRUE(isWallClockMetric("gauges.sweep.wall_ms"));
  EXPECT_TRUE(isWallClockMetric("gauges.pool.utilization_percent"));
  EXPECT_TRUE(isWallClockMetric("counters.obs.trace.spans"));
  // The profile section is timing-dominated except the span-open counts.
  EXPECT_TRUE(isWallClockMetric("profile.categories.search.self_wall_ns"));
  EXPECT_TRUE(isWallClockMetric("profile.memory.peak_rss_bytes"));
  EXPECT_FALSE(isWallClockMetric("profile.categories.search.opened"));
}

TEST(Ledger, EveryCompareSkipRuleIsWallClock) {
  // A name spelled from each skip rule's pattern (every '*' filled in)
  // lands in the perf partition: nothing `bpcr compare` skips is kept with
  // the ledger's deterministic metrics.
  unsigned SkipRules = 0;
  for (const CompareRule &Rule : defaultCompareRules()) {
    if (!Rule.Skip)
      continue;
    ++SkipRules;
    std::string Name;
    for (char C : Rule.Pattern)
      Name += C == '*' ? 'x' : C;
    ASSERT_TRUE(globMatch(Rule.Pattern, Name)) << Name;
    EXPECT_TRUE(isWallClockMetric(Name)) << Rule.Pattern << " -> " << Name;
  }
  EXPECT_GT(SkipRules, 0u);
}

TEST(Ledger, MakeRecordPartitionsAndFillsMetaFromReport) {
  LedgerRecord R;
  std::string Error;
  ASSERT_TRUE(makeLedgerRecord(reportWith(ReportSchemaVersion), LedgerMeta(),
                               R, Error))
      << Error;
  EXPECT_EQ(R.SchemaVersion, ReportSchemaVersion);
  // Blank caller meta is filled from the report's context fields.
  EXPECT_EQ(R.Meta.Tool, "bench_fixture");
  EXPECT_EQ(R.Meta.Command, "bench");
  EXPECT_EQ(R.Meta.Workload, "synthetic");
  EXPECT_EQ(R.Meta.Seed, 7u);
  EXPECT_EQ(R.Meta.Events, 20000u);
  // The counter is deterministic, the rate is wall-clock.
  EXPECT_NEAR(valueOf(R.Metrics, "counters.interp.branch_events"), 45000.0,
              1e-9);
  EXPECT_FALSE(contains(R.Metrics, "gauges.interp.events_per_sec"));
  EXPECT_NEAR(valueOf(R.Perf, "gauges.interp.events_per_sec"), 51234.5, 1e-9);
}

TEST(Ledger, CallerMetaWinsOverReportContext) {
  LedgerMeta Meta;
  Meta.Tool = "other_tool";
  Meta.Seed = 3;
  LedgerRecord R;
  std::string Error;
  ASSERT_TRUE(
      makeLedgerRecord(reportWith(ReportSchemaVersion), Meta, R, Error));
  EXPECT_EQ(R.Meta.Tool, "other_tool");
  EXPECT_EQ(R.Meta.Seed, 3u);
  // Fields the caller left blank still come from the report.
  EXPECT_EQ(R.Meta.Workload, "synthetic");
}

TEST(Ledger, MakeRecordRejectsUnsupportedSchemas) {
  LedgerRecord R;
  std::string Error;
  for (int Schema : {1, 2}) {
    EXPECT_FALSE(makeLedgerRecord(reportWith(Schema), LedgerMeta(), R, Error));
    EXPECT_NE(Error.find("schema_version " + std::to_string(Schema)),
              std::string::npos)
        << Error;
    Error.clear();
  }
  EXPECT_FALSE(makeLedgerRecord(reportWith(ReportSchemaVersion + 1),
                                LedgerMeta(), R, Error));
  EXPECT_FALSE(Error.empty());
  Error.clear();
  JsonValue NoSchema = JsonValue::object();
  EXPECT_FALSE(makeLedgerRecord(NoSchema, LedgerMeta(), R, Error));
  EXPECT_NE(Error.find("schema_version"), std::string::npos);
}

// -- Record line format -------------------------------------------------------

TEST(Ledger, RecordLineKeepsVolatileFieldsAdjacentAndPerfLast) {
  LedgerMeta Meta;
  Meta.Host = "ci-host";
  Meta.GitSha = "abc123";
  Meta.TimestampNs = 42;
  Meta.Jobs = 8;
  LedgerRecord R;
  std::string Error;
  ASSERT_TRUE(
      makeLedgerRecord(reportWith(ReportSchemaVersion), Meta, R, Error));
  std::string Line = ledgerRecordLine(R);

  // Single compact line starting with the version fields.
  EXPECT_EQ(Line.find('\n'), std::string::npos);
  EXPECT_EQ(Line.rfind("{\"ledger_version\":1,\"schema_version\":", 0), 0u)
      << Line;

  // The determinism contract: the volatile triple is one adjacent run
  // (strippable with a single regex) and the wall-clock partition is the
  // last member (strippable with a prefix cut).
  size_t Ts = Line.find("\"ts_ns\":");
  size_t Host = Line.find("\"host\":");
  size_t Sha = Line.find("\"git_sha\":");
  size_t Metrics = Line.find("\"metrics\":");
  size_t Perf = Line.find("\"perf\":");
  ASSERT_NE(Ts, std::string::npos);
  ASSERT_NE(Perf, std::string::npos);
  EXPECT_LT(Ts, Host);
  EXPECT_LT(Host, Sha);
  EXPECT_LT(Sha, Metrics);
  EXPECT_LT(Metrics, Perf);
  // Nothing after the perf object but the record's closing brace.
  EXPECT_EQ(Line.compare(Perf, 8, "\"perf\":{"), 0) << Line;
  EXPECT_EQ(Line.compare(Line.size() - 2, 2, "}}"), 0) << Line;

  // Integral metric values serialize as integers, not 4.5e+04.
  EXPECT_NE(Line.find("\"counters.interp.branch_events\":45000"),
            std::string::npos)
      << Line;
}

// -- Append / read round trip -------------------------------------------------

TEST(Ledger, AppendAndReadRoundTrips) {
  TempFile T("roundtrip");
  LedgerMeta Meta;
  Meta.Host = "h";
  Meta.GitSha = "sha1";
  Meta.TimestampNs = 100;
  Meta.Jobs = 2;
  std::string Error;
  ASSERT_TRUE(appendReportToLedger(T.Path, reportWith(ReportSchemaVersion),
                                   Meta, Error))
      << Error;
  Meta.GitSha = "sha2";
  Meta.TimestampNs = 200;
  ASSERT_TRUE(appendReportToLedger(T.Path, reportWith(ReportSchemaVersion),
                                   Meta, Error));

  std::vector<LedgerRecord> Records;
  std::vector<std::string> Warnings;
  ASSERT_TRUE(readLedger(T.Path, Records, Warnings, Error)) << Error;
  EXPECT_TRUE(Warnings.empty());
  ASSERT_EQ(Records.size(), 2u);
  // Oldest first, metadata and both partitions intact.
  EXPECT_EQ(Records[0].Meta.GitSha, "sha1");
  EXPECT_EQ(Records[1].Meta.GitSha, "sha2");
  EXPECT_EQ(Records[1].Meta.TimestampNs, 200u);
  EXPECT_EQ(Records[1].Meta.Jobs, 2u);
  EXPECT_EQ(Records[1].Meta.Tool, "bench_fixture");
  EXPECT_NEAR(valueOf(Records[0].Metrics, "counters.interp.branch_events"),
              45000.0, 1e-9);
  EXPECT_NEAR(valueOf(Records[0].Perf, "gauges.interp.events_per_sec"),
              51234.5, 1e-9);
}

TEST(Ledger, ReadSkipsBadLinesWithWarningsButKeepsTheRest) {
  TempFile T("badlines");
  writeText(T.Path,
            "this is not json\n"
            "{\"no_ledger_version\":true}\n"
            "{\"ledger_version\":99,\"schema_version\":4}\n"
            "{\"ledger_version\":1,\"schema_version\":1}\n"
            "{\"ledger_version\":1,\"schema_version\":2,\"metrics\":"
            "{\"counters.search.cache.hits\":5}}\n"
            "\n"
            "{\"ledger_version\":1,\"schema_version\":4,\"metrics\":"
            "{\"counters.a\":1}}\n");
  std::vector<LedgerRecord> Records;
  std::vector<std::string> Warnings;
  std::string Error;
  ASSERT_TRUE(readLedger(T.Path, Records, Warnings, Error)) << Error;
  // One good record survives; each bad line gets its own note with the
  // 1-based line number (the blank line is silently skipped).
  ASSERT_EQ(Records.size(), 1u);
  ASSERT_EQ(Warnings.size(), 5u);
  EXPECT_NE(Warnings[0].find("ledger line 1"), std::string::npos);
  EXPECT_NE(Warnings[1].find("missing ledger_version"), std::string::npos);
  EXPECT_NE(Warnings[2].find("unsupported ledger_version 99"),
            std::string::npos);
  EXPECT_NE(Warnings[3].find("unsupported report schema_version"),
            std::string::npos);
  // Schema 2 predates the ladder search: its counters.search.* count
  // something else, so the whole record is skipped.
  EXPECT_NE(Warnings[4].find("ledger line 5 skipped: unsupported report "
                             "schema_version"),
            std::string::npos)
      << Warnings[4];
}

TEST(Ledger, ReadFailsOnlyWhenFileIsUnreadable) {
  std::vector<LedgerRecord> Records;
  std::vector<std::string> Warnings;
  std::string Error;
  EXPECT_FALSE(
      readLedger("/nonexistent/dir/ledger.jsonl", Records, Warnings, Error));
  EXPECT_NE(Error.find("cannot open"), std::string::npos);
}
