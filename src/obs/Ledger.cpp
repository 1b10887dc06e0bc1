//===- obs/Ledger.cpp -----------------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Ledger.h"

#include "obs/Compare.h"
#include "obs/Report.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include <unistd.h>

using namespace bpcr;

namespace {

/// Wall-clock and schedule-dependent names the built-in compare rules do
/// not skip: the wall_ms/speedup gauges the bench thresholds skip, and the
/// pool's task counters and histograms.
const char *const LedgerOnlyWallClockPatterns[] = {
    "*wall_ms*", "*speedup*", "counters.pool.*", "histograms.pool.*"};

/// Flattened numbers serialize as integers when they are integral and
/// exactly representable, keeping counter series tidy and round-trippable.
JsonValue metricNumber(double V) {
  constexpr double Exact = 9007199254740992.0; // 2^53
  if (V == static_cast<int64_t>(V) && V > -Exact && V < Exact)
    return JsonValue::integer(static_cast<int64_t>(V));
  return JsonValue::number(V);
}

JsonValue
metricsObject(const std::vector<std::pair<std::string, double>> &Flat) {
  JsonValue Obj = JsonValue::object();
  for (const auto &[Name, Value] : Flat)
    Obj.set(Name, metricNumber(Value));
  return Obj;
}

bool parseMetricsObject(const JsonValue *Obj,
                        std::vector<std::pair<std::string, double>> &Out) {
  if (!Obj)
    return true; // an absent section is an empty partition
  if (Obj->kind() != JsonValue::Kind::Object)
    return false;
  for (const auto &[Name, Value] : Obj->members()) {
    if (!Value.isNumber())
      return false;
    Out.emplace_back(Name, Value.asDouble());
  }
  return true;
}

} // namespace

bool bpcr::isWallClockMetric(const std::string &Name) {
  for (const char *Pattern : LedgerOnlyWallClockPatterns)
    if (globMatch(Pattern, Name))
      return true;
  // Otherwise the first matching built-in compare rule decides; its
  // catch-all "*" gates everything else.
  static const std::vector<CompareRule> Rules = defaultCompareRules();
  for (const CompareRule &Rule : Rules)
    if (globMatch(Rule.Pattern, Name))
      return Rule.Skip;
  return false;
}

LedgerMeta bpcr::currentLedgerMeta() {
  LedgerMeta Meta;
  if (const char *Sha = std::getenv("BPCR_GIT_SHA"))
    Meta.GitSha = Sha;
  char Host[256] = {0};
  if (gethostname(Host, sizeof(Host) - 1) == 0)
    Meta.Host = Host;
  Meta.TimestampNs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  return Meta;
}

bool bpcr::makeLedgerRecord(const JsonValue &Report, const LedgerMeta &Meta,
                            LedgerRecord &Out, std::string &Error) {
  const JsonValue *V = Report.find("schema_version");
  if (!V || !V->isNumber()) {
    Error = "report has no schema_version (not a bpcr run report?)";
    return false;
  }
  int Schema = static_cast<int>(V->asInt());
  if (Schema < MinReportSchemaVersion || Schema > ReportSchemaVersion) {
    Error = "report schema_version " + std::to_string(Schema) +
            " is outside the supported ledger range [" +
            std::to_string(MinReportSchemaVersion) + ", " +
            std::to_string(ReportSchemaVersion) + "]";
    return false;
  }

  Out = LedgerRecord();
  Out.SchemaVersion = Schema;
  Out.Meta = Meta;
  // Report context fields win over caller-provided blanks so bench
  // producers don't have to duplicate them.
  auto FillString = [&](const char *Key, std::string &Dst) {
    const JsonValue *J = Report.find(Key);
    if (Dst.empty() && J && J->kind() == JsonValue::Kind::String)
      Dst = J->asString();
  };
  FillString("tool", Out.Meta.Tool);
  FillString("command", Out.Meta.Command);
  FillString("workload", Out.Meta.Workload);
  auto FillInt = [&](const char *Key, uint64_t &Dst) {
    const JsonValue *J = Report.find(Key);
    if (Dst == 0 && J && J->isNumber())
      Dst = static_cast<uint64_t>(J->asInt());
  };
  FillInt("seed", Out.Meta.Seed);
  FillInt("events", Out.Meta.Events);

  for (auto &Entry : flattenReportMetrics(Report)) {
    if (isWallClockMetric(Entry.first))
      Out.Perf.push_back(std::move(Entry));
    else
      Out.Metrics.push_back(std::move(Entry));
  }
  return true;
}

std::string bpcr::ledgerRecordLine(const LedgerRecord &R) {
  // Deterministic fields first, volatile metadata as one adjacent run, the
  // wall-clock partition last: a determinism check strips everything from
  // `"ts_ns"` through `"git_sha"` plus the trailing `"perf"` object and
  // byte-compares the rest.
  JsonValue Doc = JsonValue::object();
  Doc.set("ledger_version",
          JsonValue::integer(static_cast<int64_t>(R.LedgerVersion)));
  Doc.set("schema_version",
          JsonValue::integer(static_cast<int64_t>(R.SchemaVersion)));
  Doc.set("tool", JsonValue::str(R.Meta.Tool));
  Doc.set("command", JsonValue::str(R.Meta.Command));
  Doc.set("workload", JsonValue::str(R.Meta.Workload));
  Doc.set("seed", JsonValue::integer(R.Meta.Seed));
  Doc.set("events", JsonValue::integer(R.Meta.Events));
  Doc.set("jobs", JsonValue::integer(static_cast<int64_t>(R.Meta.Jobs)));
  Doc.set("ts_ns", JsonValue::integer(R.Meta.TimestampNs));
  Doc.set("host", JsonValue::str(R.Meta.Host));
  Doc.set("git_sha", JsonValue::str(R.Meta.GitSha));
  Doc.set("metrics", metricsObject(R.Metrics));
  Doc.set("perf", metricsObject(R.Perf));
  return Doc.dump(0);
}

bool bpcr::appendLedgerRecord(const std::string &Path, const LedgerRecord &R,
                              std::string &Error) {
  std::FILE *F = std::fopen(Path.c_str(), "ab");
  if (!F) {
    Error = "cannot open ledger '" + Path + "' for appending";
    return false;
  }
  std::string Line = ledgerRecordLine(R) + "\n";
  bool Ok = std::fwrite(Line.data(), 1, Line.size(), F) == Line.size();
  Ok &= std::fclose(F) == 0;
  if (!Ok)
    Error = "short write to ledger '" + Path + "'";
  return Ok;
}

bool bpcr::appendReportToLedger(const std::string &Path,
                                const JsonValue &Report,
                                const LedgerMeta &Meta, std::string &Error) {
  LedgerRecord R;
  if (!makeLedgerRecord(Report, Meta, R, Error))
    return false;
  return appendLedgerRecord(Path, R, Error);
}

bool bpcr::readLedger(const std::string &Path, std::vector<LedgerRecord> &Out,
                      std::vector<std::string> &Warnings,
                      std::string &Error) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Error = "cannot open ledger '" + Path + "' for reading";
    return false;
  }
  std::string Text;
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  bool ReadOk = std::ferror(F) == 0;
  std::fclose(F);
  if (!ReadOk) {
    Error = "read error on ledger '" + Path + "'";
    return false;
  }

  size_t LineNo = 0, Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    ++LineNo;
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;

    auto Skip = [&](const std::string &Why) {
      Warnings.push_back("ledger line " + std::to_string(LineNo) +
                         " skipped: " + Why);
    };
    std::string ParseError;
    JsonValue Doc = parseJson(Line, ParseError);
    if (!ParseError.empty()) {
      Skip(ParseError);
      continue;
    }
    if (Doc.kind() != JsonValue::Kind::Object) {
      Skip("record is not a JSON object");
      continue;
    }
    const JsonValue *LV = Doc.find("ledger_version");
    if (!LV || !LV->isNumber()) {
      Skip("missing ledger_version");
      continue;
    }
    if (LV->asInt() < 1 || LV->asInt() > LedgerRecordVersion) {
      Skip("unsupported ledger_version " + std::to_string(LV->asInt()));
      continue;
    }
    const JsonValue *SV = Doc.find("schema_version");
    if (!SV || !SV->isNumber() || SV->asInt() < MinReportSchemaVersion ||
        SV->asInt() > ReportSchemaVersion) {
      Skip("unsupported report schema_version");
      continue;
    }

    LedgerRecord R;
    R.LedgerVersion = static_cast<int>(LV->asInt());
    R.SchemaVersion = static_cast<int>(SV->asInt());
    auto Str = [&](const char *Key) -> std::string {
      const JsonValue *J = Doc.find(Key);
      return J && J->kind() == JsonValue::Kind::String ? J->asString() : "";
    };
    auto Int = [&](const char *Key) -> uint64_t {
      const JsonValue *J = Doc.find(Key);
      return J && J->isNumber() ? static_cast<uint64_t>(J->asInt()) : 0;
    };
    R.Meta.Tool = Str("tool");
    R.Meta.Command = Str("command");
    R.Meta.Workload = Str("workload");
    R.Meta.Seed = Int("seed");
    R.Meta.Events = Int("events");
    R.Meta.Jobs = static_cast<unsigned>(Int("jobs"));
    R.Meta.TimestampNs = Int("ts_ns");
    R.Meta.Host = Str("host");
    R.Meta.GitSha = Str("git_sha");
    if (!parseMetricsObject(Doc.find("metrics"), R.Metrics) ||
        !parseMetricsObject(Doc.find("perf"), R.Perf)) {
      Skip("metrics/perf must be objects of numbers");
      continue;
    }
    Out.push_back(std::move(R));
  }
  return true;
}
