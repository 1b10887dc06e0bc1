//===- tests/test_obs.cpp - Metrics registry, JSON and run reports --------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "obs/Attribution.h"
#include "obs/Compare.h"
#include "obs/DecisionLog.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Profiler.h"
#include "obs/Report.h"
#include "obs/TimeSeries.h"
#include "obs/TraceSpans.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace bpcr;

namespace {


const Workload &workloadNamed(const char *Name) {
  for (const Workload &W : allWorkloads())
    if (std::string(W.Name) == Name)
      return W;
  ADD_FAILURE() << "no workload named " << Name;
  return allWorkloads()[0];
}

} // namespace

// -- Counter / Gauge / Histogram --------------------------------------------

TEST(Metrics, CounterSemantics) {
  // A private registry per test keeps cases independent of the global one.
  Registry R;
  R.setEnabled(true);
  EXPECT_TRUE(R.empty());
  R.counter("a").inc();
  R.counter("a").inc();
  R.counter("a").add(40);
  EXPECT_EQ(R.counter("a").value(), 42u);
  EXPECT_EQ(R.counter("fresh").value(), 0u); // fetch-or-create defaults to 0
  EXPECT_EQ(R.counters().size(), 2u);
}

TEST(Metrics, GaugeKeepsLastWrite) {
  // A private registry per test keeps cases independent of the global one.
  Registry R;
  R.setEnabled(true);
  R.gauge("g").set(1.5);
  R.gauge("g").set(-2.25);
  EXPECT_DOUBLE_EQ(R.gauge("g").value(), -2.25);
}

TEST(Metrics, HistogramSummarizes) {
  // A private registry per test keeps cases independent of the global one.
  Registry R;
  R.setEnabled(true);
  Histogram &H = R.histogram("h");
  EXPECT_EQ(H.count(), 0u);
  EXPECT_DOUBLE_EQ(H.mean(), 0.0); // empty histogram: mean is defined as 0
  H.record(4.0);
  H.record(-2.0);
  H.record(10.0);
  EXPECT_EQ(H.count(), 3u);
  EXPECT_DOUBLE_EQ(H.sum(), 12.0);
  EXPECT_DOUBLE_EQ(H.min(), -2.0);
  EXPECT_DOUBLE_EQ(H.max(), 10.0);
  EXPECT_DOUBLE_EQ(H.mean(), 4.0);
}

TEST(Metrics, HistogramQuantilesFromLogBuckets) {
  // A private registry per test keeps cases independent of the global one.
  Registry R;
  R.setEnabled(true);
  Histogram &H = R.histogram("q");
  for (int I = 1; I <= 1000; ++I)
    H.record(static_cast<double>(I));
  // Log buckets bound accuracy to a factor of two: the rank-500 sample
  // lies in [256, 512), the rank-990 one in [512, 1000].
  EXPECT_GE(H.p50(), 256.0);
  EXPECT_LE(H.p50(), 512.0);
  EXPECT_GE(H.p99(), 512.0);
  EXPECT_LE(H.p99(), 1000.0); // clamped to the observed max
  EXPECT_LE(H.p50(), H.p95());
  EXPECT_LE(H.p95(), H.p99());
}

TEST(Metrics, HistogramQuantileEdgeCases) {
  Histogram Empty;
  EXPECT_DOUBLE_EQ(Empty.p50(), 0.0);

  Histogram One;
  One.record(5.0);
  EXPECT_DOUBLE_EQ(One.p50(), 5.0);
  EXPECT_DOUBLE_EQ(One.p99(), 5.0);

  // Sub-1.0 and negative samples share bucket 0; estimates stay inside
  // the observed range.
  Histogram Low;
  Low.record(-3.0);
  Low.record(0.25);
  Low.record(0.5);
  EXPECT_GE(Low.p50(), Low.min());
  EXPECT_LE(Low.p99(), Low.max());
}

TEST(Metrics, HistogramIgnoresNonFiniteSamples) {
  Histogram H;
  H.record(std::nan(""));
  H.record(HUGE_VAL);
  H.record(-HUGE_VAL);
  EXPECT_EQ(H.count(), 0u); // dropped, so summaries stay finite
  EXPECT_DOUBLE_EQ(H.mean(), 0.0);
  EXPECT_DOUBLE_EQ(H.p99(), 0.0);
  H.record(2.0);
  H.record(std::nan(""));
  EXPECT_EQ(H.count(), 1u);
  EXPECT_DOUBLE_EQ(H.sum(), 2.0);
}

TEST(Metrics, ClearDropsMetricsButKeepsEnabled) {
  // A private registry per test keeps cases independent of the global one.
  Registry R;
  R.setEnabled(true);
  R.counter("c").inc();
  R.timer("t").record(5.0);
  EXPECT_FALSE(R.empty());
  R.clear();
  EXPECT_TRUE(R.empty());
  EXPECT_TRUE(R.enabled());
}

// -- Span timers -------------------------------------------------------------
//
// Span is the one timing primitive: every span feeds the registry timer of
// its name. A private registry and tracer per test keep cases independent
// of the global ones.

TEST(Metrics, SpanRecordsTimerOnClose) {
  SpanTracer T;
  Registry R;
  R.setEnabled(true);
  { Span S("phase.x", "pipeline", T, R); }
  ASSERT_EQ(R.timers().count("phase.x"), 1u);
  EXPECT_EQ(R.timers().at("phase.x").count(), 1u);
  EXPECT_GE(R.timers().at("phase.x").min(), 0.0);
}

TEST(Metrics, SpanExplicitEndIsIdempotent) {
  SpanTracer T;
  Registry R;
  R.setEnabled(true);
  Span S("phase.y", "pipeline", T, R);
  uint64_t Ns = S.end();
  EXPECT_EQ(S.end(), 0u); // second end must not add a sample
  EXPECT_EQ(R.timers().at("phase.y").count(), 1u);
  EXPECT_EQ(R.timers().at("phase.y").sum(), static_cast<double>(Ns));
}

TEST(Metrics, SpanTimersNest) {
  SpanTracer T;
  Registry R;
  R.setEnabled(true);
  {
    Span Outer("outer", "pipeline", T, R);
    {
      Span Inner("inner", "pipeline", T, R);
    }
    {
      Span Inner("inner", "pipeline", T, R);
    }
  }
  EXPECT_EQ(R.timers().at("outer").count(), 1u);
  EXPECT_EQ(R.timers().at("inner").count(), 2u);
  // The outer span encloses both inner spans.
  EXPECT_GE(R.timers().at("outer").sum(), R.timers().at("inner").sum());
}

TEST(Metrics, DisabledRegistryStaysEmpty) {
  SpanTracer T; // disabled by default
  Registry R;   // disabled by default
  EXPECT_FALSE(R.enabled());
  Span S("never", "pipeline", T, R);
  EXPECT_EQ(S.end(), 0u); // nothing was measured
  EXPECT_TRUE(R.empty()); // the disabled path allocates nothing
  EXPECT_EQ(T.spanCount(), 0u);
}

TEST(Metrics, SpanFeedsTimerWithTracerOff) {
  SpanTracer T;
  Registry R;
  R.setEnabled(true);
  { Span S("phase.z", "search", T, R); }
  EXPECT_EQ(R.timers().at("phase.z").count(), 1u);
  EXPECT_TRUE(T.snapshot().empty());
  EXPECT_TRUE(T.categoryCounts().empty());
}

TEST(Metrics, SpanCreatesNoTimerWithRegistryOff) {
  SpanTracer T;
  T.setEnabled(true);
  Registry R;
  { Span S("phase.w", "pipeline", T, R); }
  EXPECT_EQ(T.spanCount(), 1u);
  EXPECT_TRUE(R.empty());
}

TEST(Metrics, SampledOutSpansStillFeedTheirTimer) {
  SpanTracer T;
  T.setEnabled(true);
  T.setSampleLimit(1);
  Registry R;
  R.setEnabled(true);
  for (int I = 0; I < 5; ++I)
    Span S("hot", "search", T, R);
  EXPECT_EQ(R.timers().at("hot").count(), 5u);
  EXPECT_EQ(T.spanCount(), 1u);
  EXPECT_EQ(T.droppedCount(), 4u);
  EXPECT_EQ(R.counters().at("obs.trace.spans_dropped").value(), 4u);
}

// -- DecisionLog -------------------------------------------------------------

TEST(DecisionLog, QueriesByBranchAndAction) {
  DecisionLog L;
  L.add({3, "loop", DecisionAction::Applied, 100, 12, "ok"});
  L.add({5, "correlated", DecisionAction::SkippedBudget, 50, 90, "too big"});
  L.add({3, "profile", DecisionAction::KeptProfile, 0, 0, "fallback"});
  EXPECT_EQ(L.size(), 3u);
  EXPECT_EQ(L.countAction(DecisionAction::Applied), 1u);
  EXPECT_EQ(L.countAction(DecisionAction::SkippedGain), 0u);
  auto For3 = L.forBranch(3);
  ASSERT_EQ(For3.size(), 2u);
  EXPECT_EQ(For3[0]->Strategy, "loop");   // pipeline order preserved
  EXPECT_EQ(For3[1]->Strategy, "profile");
  EXPECT_TRUE(L.forBranch(99).empty());
}

TEST(DecisionLog, ActionNamesAreStable) {
  // The names are part of the JSON schema; renames are schema breaks.
  EXPECT_STREQ(decisionActionName(DecisionAction::Applied), "applied");
  EXPECT_STREQ(decisionActionName(DecisionAction::AppliedJoint),
               "applied-joint");
  EXPECT_STREQ(decisionActionName(DecisionAction::KeptProfile),
               "kept-profile");
  EXPECT_STREQ(decisionActionName(DecisionAction::SkippedGain),
               "skipped-gain");
  EXPECT_STREQ(decisionActionName(DecisionAction::SkippedBudget),
               "skipped-budget");
  EXPECT_STREQ(decisionActionName(DecisionAction::SkippedStructure),
               "skipped-structure");
}

// -- Json --------------------------------------------------------------------

TEST(Json, DumpAndParseRoundTripsEveryKind) {
  JsonValue Doc = JsonValue::object();
  Doc.set("null", JsonValue::null());
  Doc.set("t", JsonValue::boolean(true));
  Doc.set("f", JsonValue::boolean(false));
  Doc.set("int", JsonValue::integer(int64_t{-42}));
  Doc.set("big", JsonValue::integer(uint64_t{1} << 60)); // above 2^53
  Doc.set("dbl", JsonValue::number(3.25));
  Doc.set("str", JsonValue::str("he\"llo\n\tworld \\"));
  JsonValue Arr = JsonValue::array();
  Arr.push(JsonValue::integer(int64_t{1}));
  Arr.push(JsonValue::str("two"));
  Doc.set("arr", std::move(Arr));
  JsonValue Nested = JsonValue::object();
  Nested.set("k", JsonValue::number(0.5));
  Doc.set("obj", std::move(Nested));

  for (unsigned Indent : {0u, 2u}) {
    std::string Error;
    JsonValue Back = parseJson(Doc.dump(Indent), Error);
    EXPECT_TRUE(Error.empty()) << Error;
    EXPECT_EQ(Doc, Back);
  }
}

TEST(Json, IntegersAboveDoublePrecisionSurvive) {
  int64_t Exact = (int64_t{1} << 53) + 1; // not representable as double
  std::string Error;
  JsonValue Back = parseJson(std::to_string(Exact), Error);
  ASSERT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(Back.kind(), JsonValue::Kind::Int);
  EXPECT_EQ(Back.asInt(), Exact);
}

TEST(Json, ObjectsPreserveInsertionOrderAndReplace) {
  JsonValue O = JsonValue::object();
  O.set("z", JsonValue::integer(int64_t{1}));
  O.set("a", JsonValue::integer(int64_t{2}));
  O.set("z", JsonValue::integer(int64_t{3})); // replace keeps position
  ASSERT_EQ(O.members().size(), 2u);
  EXPECT_EQ(O.members()[0].first, "z");
  EXPECT_EQ(O.members()[0].second.asInt(), 3);
  EXPECT_EQ(O.members()[1].first, "a");
  ASSERT_NE(O.find("a"), nullptr);
  EXPECT_EQ(O.find("missing"), nullptr);
}

TEST(Json, ParserRejectsMalformedInput) {
  for (const char *Bad : {"", "{", "[1,]", "{\"a\":}", "tru", "1 2",
                          "\"unterminated", "{\"a\" 1}", "nul", "+1",
                          "[1,2,,3]", "{1: 2}"}) {
    std::string Error;
    parseJson(Bad, Error);
    EXPECT_FALSE(Error.empty()) << "accepted: " << Bad;
  }
}

TEST(Json, ParserErrorsNameTheByteOffset) {
  std::string Error;
  parseJson("{\"a\": !}", Error);
  EXPECT_NE(Error.find("byte"), std::string::npos) << Error;
}

TEST(Json, NumericCrossTypeEquality) {
  EXPECT_EQ(JsonValue::integer(int64_t{2}), JsonValue::number(2.0));
  EXPECT_NE(JsonValue::integer(int64_t{2}), JsonValue::number(2.5));
}

TEST(Json, FindNonFinitePathNamesTheMember) {
  EXPECT_EQ(findNonFinitePath(JsonValue::number(1.5)), "");
  EXPECT_EQ(findNonFinitePath(JsonValue::number(std::nan(""))), "<root>");

  JsonValue Doc = JsonValue::object();
  Doc.set("ok", JsonValue::number(0.5));
  JsonValue Inner = JsonValue::object();
  JsonValue Arr = JsonValue::array();
  Arr.push(JsonValue::number(1.0));
  Arr.push(JsonValue::number(HUGE_VAL));
  Inner.set("samples", std::move(Arr));
  Doc.set("metrics", std::move(Inner));
  EXPECT_EQ(findNonFinitePath(Doc), "metrics.samples.1");

  // Integers can't be non-finite; a clean document reports nothing.
  JsonValue Clean = JsonValue::object();
  Clean.set("n", JsonValue::integer(int64_t{7}));
  EXPECT_EQ(findNonFinitePath(Clean), "");
}

// -- Report ------------------------------------------------------------------

TEST(Report, MetricsJsonShape) {
  // A private registry per test keeps cases independent of the global one.
  Registry R;
  R.setEnabled(true);
  R.counter("c.events").add(7);
  R.gauge("g.rate").set(1.5);
  R.histogram("h.sizes").record(3.0);
  R.timer("p.phase").record(1000.0);

  JsonValue M = metricsJson(R);
  ASSERT_NE(M.find("counters"), nullptr);
  EXPECT_EQ(M.find("counters")->find("c.events")->asInt(), 7);
  EXPECT_DOUBLE_EQ(M.find("gauges")->find("g.rate")->asDouble(), 1.5);
  const JsonValue *H = M.find("histograms")->find("h.sizes");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->find("count")->asInt(), 1);
  const JsonValue *P = M.find("phases")->find("p.phase");
  ASSERT_NE(P, nullptr);
  EXPECT_DOUBLE_EQ(P->find("total_ns")->asDouble(), 1000.0);
}

TEST(Report, BuildReportRoundTripsThroughParser) {
  // A private registry per test keeps cases independent of the global one.
  Registry R;
  R.setEnabled(true);
  R.counter("interp.instructions").add(12345);
  ReportMeta Meta;
  Meta.Tool = "test";
  Meta.Command = "unit";
  Meta.Workload = "compress";
  Meta.Seed = 1;
  Meta.Events = 1000;

  JsonValue Report = buildReport(Meta, R);
  std::string Error;
  JsonValue Back = parseJson(Report.dump(), Error);
  ASSERT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(Report, Back);
  EXPECT_EQ(Back.find("schema_version")->asInt(), ReportSchemaVersion);
  EXPECT_EQ(Back.find("tool")->asString(), "test");
  EXPECT_EQ(Back.find("workload")->asString(), "compress");
  EXPECT_EQ(
      Back.find("metrics")->find("counters")->find("interp.instructions")
          ->asInt(),
      12345);
}

TEST(Report, WriteReportFileFailsWithDescriptiveError) {
  std::string Error;
  EXPECT_FALSE(writeReportFile("/nonexistent/dir/report.json",
                               JsonValue::object(), Error));
  EXPECT_NE(Error.find("/nonexistent/dir/report.json"), std::string::npos)
      << Error;
}

TEST(Report, WriteReportFileRejectsNonFiniteNumbers) {
  JsonValue Doc = JsonValue::object();
  JsonValue Gauges = JsonValue::object();
  Gauges.set("bad.rate", JsonValue::number(std::nan("")));
  Doc.set("gauges", std::move(Gauges));

  // Rejected before any I/O, so even a writable path fails with an error
  // naming the offending member.
  std::string Error;
  EXPECT_FALSE(writeReportFile("/tmp/bpcr_nonfinite_report.json", Doc, Error));
  EXPECT_NE(Error.find("non-finite"), std::string::npos) << Error;
  EXPECT_NE(Error.find("gauges.bad.rate"), std::string::npos) << Error;
}

// -- Compare: branches section flattening ------------------------------------

TEST(Compare, FlattensBranchesLeavesButNotTopArray) {
  AttributionLedger L;
  L.resize(2);
  L.branch(0).Strategy = "profile";
  L.branch(0).MeasuredExecutions = 100;
  L.branch(0).Mispredictions = 25;
  L.branch(1).Strategy = "loop";
  L.branch(1).MeasuredExecutions = 40;
  L.branch(1).Mispredictions = 4;

  JsonValue Report = JsonValue::object();
  Report.set("schema_version",
             JsonValue::integer(int64_t{ReportSchemaVersion}));
  Report.set("branches", attributionJson(L, 10));

  auto Flat = flattenReportMetrics(Report);
  auto Value = [&](const std::string &Name) -> const double * {
    for (const auto &[N, V] : Flat)
      if (N == Name)
        return &V;
    return nullptr;
  };
  const double *Miss0 = Value("branches.by_id.0.miss_rate_percent");
  ASSERT_NE(Miss0, nullptr);
  EXPECT_NEAR(*Miss0, 25.0, 1e-9);
  ASSERT_NE(Value("branches.total_mispredictions"), nullptr);
  ASSERT_NE(Value("branches.coverage_percent"), nullptr);
  // The ordering-churn-prone Pareto array stays out of the gated set.
  for (const auto &[N, V] : Flat)
    EXPECT_EQ(N.find("branches.top."), std::string::npos) << N;

  // Identical reports gate clean under the default rules.
  CompareResult CR = compareReports(Report, Report, CompareOptions());
  EXPECT_TRUE(CR.ok());
}

TEST(Compare, FlattensTimelineLeavesButNotWindowsArray) {
  TimeSeries TS;
  for (uint64_t I = 0; I < 2048; ++I)
    TS.record(I, 0, I % 2 == 0, I % 4 == 0);

  JsonValue Report = JsonValue::object();
  Report.set("schema_version",
             JsonValue::integer(int64_t{ReportSchemaVersion}));
  Report.set("timeline", timelineJson(TS.take(), {}));

  auto Flat = flattenReportMetrics(Report);
  bool SawMissRate = false;
  for (const auto &[N, V] : Flat) {
    SawMissRate |= N == "timeline.miss_rate_percent";
    // The per-window plot data stays out of the gated set.
    EXPECT_EQ(N.find("timeline.windows"), std::string::npos) << N;
  }
  EXPECT_TRUE(SawMissRate);

  CompareResult CR = compareReports(Report, Report, CompareOptions());
  EXPECT_TRUE(CR.ok());
}

namespace {

/// A minimal profile section: one category, one site, one RSS sample and
/// one allocator pool — enough to exercise every flattening shape.
JsonValue profileReportWith(uint64_t Opened, uint64_t SelfWallNs) {
  ProfileData P;
  ProfileCategoryStats C;
  C.Category = "search";
  C.Opened = Opened;
  C.Recorded = Opened;
  C.TotalWallNs = SelfWallNs + 1000;
  C.SelfWallNs = SelfWallNs;
  P.Categories.push_back(C);
  ProfileSiteStats S;
  S.Category = "search";
  S.Name = "search.ladder";
  S.Count = Opened;
  S.TotalWallNs = SelfWallNs + 1000;
  S.SelfWallNs = SelfWallNs;
  P.Sites.push_back(S);
  RssSample R;
  R.Label = "pipeline.start";
  R.Ns = 10;
  R.RssBytes = 1 << 20;
  P.RssSamples.push_back(R);
  P.PeakRssBytes = 2u << 20;
  ProfileAllocStats A;
  A.Tag = "ladder";
  A.Stats.Allocs = 3;
  A.Stats.BytesAllocated = 128;
  P.Allocs.push_back(A);

  JsonValue Report = JsonValue::object();
  Report.set("schema_version",
             JsonValue::integer(int64_t{ReportSchemaVersion}));
  Report.set("profile", profileJson(P));
  return Report;
}

} // namespace

TEST(Compare, FlattensProfileLeavesButNotRssArray) {
  JsonValue Report = profileReportWith(10, 4000);
  auto Flat = flattenReportMetrics(Report);
  auto Value = [&](const std::string &Name) -> const double * {
    for (const auto &[N, V] : Flat)
      if (N == Name)
        return &V;
    return nullptr;
  };
  const double *Opened = Value("profile.categories.search.opened");
  ASSERT_NE(Opened, nullptr);
  EXPECT_NEAR(*Opened, 10.0, 1e-9);
  ASSERT_NE(Value("profile.memory.peak_rss_bytes"), nullptr);
  ASSERT_NE(Value("profile.memory.allocs.ladder.allocs"), nullptr);
  // The RSS sample log is plot data and stays out of the gated set, like
  // every array.
  for (const auto &[N, V] : Flat)
    EXPECT_EQ(N.find("rss_samples"), std::string::npos) << N;

  CompareResult CR = compareReports(Report, Report, CompareOptions());
  EXPECT_TRUE(CR.ok());
}

TEST(Compare, DefaultRulesGateOpenedCountsButSkipProfileTimes) {
  JsonValue Old = profileReportWith(10, 4000);

  // Times drifting (here 2x) is run-to-run noise: report-only.
  CompareResult Drift =
      compareReports(Old, profileReportWith(10, 8000), CompareOptions());
  EXPECT_TRUE(Drift.ok());

  // The schedule-independent opened count moving at all is a regression.
  CompareResult Moved =
      compareReports(Old, profileReportWith(11, 4000), CompareOptions());
  EXPECT_FALSE(Moved.ok());
  bool SawOpenedRule = false;
  for (const MetricDelta &D : Moved.Deltas)
    if (D.Name == "profile.categories.search.opened") {
      EXPECT_TRUE(D.Regressed);
      EXPECT_EQ(D.RulePattern, "profile.categories.*.opened");
      SawOpenedRule = true;
    }
  EXPECT_TRUE(SawOpenedRule);
}

TEST(Compare, PoolGaugesAreReportOnlyByDefault) {
  auto ReportWith = [](double Utilization, double Other) {
    JsonValue Gauges = JsonValue::object();
    Gauges.set("pool.utilization_percent", JsonValue::number(Utilization));
    Gauges.set("pool.queue_depth_hwm", JsonValue::number(Utilization));
    Gauges.set("search.quality", JsonValue::number(Other));
    JsonValue Metrics = JsonValue::object();
    Metrics.set("gauges", Gauges);
    JsonValue Report = JsonValue::object();
    Report.set("schema_version",
               JsonValue::integer(int64_t{ReportSchemaVersion}));
    Report.set("metrics", Metrics);
    return Report;
  };

  // Utilization swings are runner noise: skipped by gauges.pool.*.
  CompareResult PoolOnly =
      compareReports(ReportWith(10.0, 5.0), ReportWith(90.0, 5.0),
                     CompareOptions());
  EXPECT_TRUE(PoolOnly.ok());

  // Control: a non-pool gauge moving past the default band still fails,
  // proving the pass above came from the pool skip rule.
  CompareResult Control =
      compareReports(ReportWith(10.0, 5.0), ReportWith(10.0, 10.0),
                     CompareOptions());
  EXPECT_FALSE(Control.ok());
}

TEST(Compare, ResultJsonCarriesDeltasAndSpellsInfinity) {
  CompareResult R;
  MetricDelta Grew;
  Grew.Name = "counters.interp.instructions";
  Grew.Old = 0.0;
  Grew.New = 10.0;
  Grew.RelDelta = HUGE_VAL;
  Grew.RulePattern = "counters.*";
  Grew.Regressed = true;
  R.Deltas.push_back(Grew);
  R.Regressions = 1;

  JsonValue J = compareResultJson(R);
  EXPECT_FALSE(J.find("ok")->asBool());
  EXPECT_EQ(J.find("regressions")->asInt(), 1);
  const JsonValue &D = J.find("deltas")->at(0);
  EXPECT_EQ(D.find("status")->asString(), "fail");
  // JSON has no infinity; the divide-by-zero delta round-trips as a string.
  EXPECT_EQ(D.find("rel_delta")->asString(), "inf");
  // The spelled-out infinity keeps the document parseable.
  std::string Error;
  JsonValue Back = parseJson(J.dump(2), Error);
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(J, Back);
}

namespace {

/// A two-counter report for the threshold-rule edge-case tests.
JsonValue countersReport(double A, double B) {
  JsonValue Counters = JsonValue::object();
  Counters.set("search.steps", JsonValue::number(A));
  Counters.set("searchXsteps", JsonValue::number(B));
  JsonValue Metrics = JsonValue::object();
  Metrics.set("counters", Counters);
  JsonValue Report = JsonValue::object();
  Report.set("schema_version",
             JsonValue::integer(int64_t{ReportSchemaVersion}));
  Report.set("metrics", Metrics);
  return Report;
}

} // namespace

TEST(Compare, OverlappingGlobsFirstMatchWins) {
  // Both rules match counters.search.steps; the earlier (tighter) one must
  // decide the verdict even though the later one would allow the delta.
  CompareOptions Opts;
  CompareRule Tight;
  Tight.Pattern = "counters.search.*";
  Tight.MaxRelDelta = 0.0;
  CompareRule Loose;
  Loose.Pattern = "counters.*";
  Loose.MaxRelDelta = 10.0;
  Opts.Rules = {Tight, Loose};

  CompareResult R =
      compareReports(countersReport(100, 5), countersReport(110, 5), Opts);
  EXPECT_FALSE(R.ok());
  for (const MetricDelta &D : R.Deltas)
    if (D.Name == "counters.search.steps") {
      EXPECT_EQ(D.RulePattern, "counters.search.*");
      EXPECT_TRUE(D.Regressed);
    }

  // Reversed order: the loose rule is checked first and absorbs the delta.
  Opts.Rules = {Loose, Tight};
  CompareResult R2 =
      compareReports(countersReport(100, 5), countersReport(110, 5), Opts);
  EXPECT_TRUE(R2.ok());
}

TEST(Compare, GlobStarCrossesDotsAndDotIsLiteral) {
  // '*' is a substring wildcard, not a path segment: counters.search.*
  // must not leak onto counters.searchXsteps, and the '.' in a pattern
  // matches only a literal dot (it is not a regex any-char).
  EXPECT_TRUE(globMatch("counters.search.*", "counters.search.steps"));
  EXPECT_TRUE(globMatch("counters.*", "counters.search.cache.hits"));
  EXPECT_FALSE(globMatch("counters.search.*", "counters.searchXsteps"));
  EXPECT_FALSE(globMatch("counters.search.steps", "countersXsearchXsteps"));
  // '*' may match the empty string, including mid-pattern and at the ends.
  EXPECT_TRUE(globMatch("*", ""));
  EXPECT_TRUE(globMatch("a*b", "ab"));
  EXPECT_TRUE(globMatch("*a*", "a"));

  // End to end: a rule skipping counters.search.* leaves searchXsteps on
  // the exact default rule, which flags its drift.
  CompareOptions Opts;
  CompareRule Skip;
  Skip.Pattern = "counters.search.*";
  Skip.Skip = true;
  Opts.Rules = {Skip};
  CompareResult R =
      compareReports(countersReport(100, 5), countersReport(200, 6), Opts);
  EXPECT_FALSE(R.ok());
  for (const MetricDelta &D : R.Deltas) {
    if (D.Name == "counters.search.steps") {
      EXPECT_TRUE(D.Skipped);
    }
    if (D.Name == "counters.searchXsteps") {
      EXPECT_FALSE(D.Skipped);
      EXPECT_TRUE(D.Regressed);
    }
  }
}

TEST(Compare, RuleMatchingNoMetricsWarnsInsteadOfPassingSilently) {
  // A typo'd pattern gates nothing; that must be visible, not a silent
  // pass.
  CompareOptions Opts;
  CompareRule Typo;
  Typo.Pattern = "counters.saerch.*"; // note the transposition
  Typo.MaxRelDelta = 0.5;
  Opts.Rules = {Typo};
  CompareResult R =
      compareReports(countersReport(100, 5), countersReport(100, 5), Opts);
  EXPECT_TRUE(R.ok()); // a warning, not an error
  ASSERT_EQ(R.Warnings.size(), 1u);
  EXPECT_NE(R.Warnings[0].find("'counters.saerch.*' matched no metrics"),
            std::string::npos)
      << R.Warnings[0];

  // Control: the same rule spelled right matches and draws no warning.
  Opts.Rules[0].Pattern = "counters.search.*";
  CompareResult R2 =
      compareReports(countersReport(100, 5), countersReport(100, 5), Opts);
  EXPECT_TRUE(R2.Warnings.empty());
}

TEST(Compare, DifferingSchemaVersionsWarnButStillDiff) {
  // v3 vs v4 reports share most metric names; the diff proceeds with a
  // warning instead of erroring out (old ledger records replay through
  // compare).
  JsonValue Old = countersReport(100, 5);
  Old.set("schema_version", JsonValue::integer(int64_t{3}));
  JsonValue New = countersReport(100, 5);

  CompareResult R = compareReports(Old, New, CompareOptions());
  EXPECT_TRUE(R.Errors.empty());
  EXPECT_TRUE(R.ok());
  bool SawSchemaNote = false;
  for (const std::string &W : R.Warnings)
    SawSchemaNote |= W.find("schema versions differ: old=3 new=4") !=
                     std::string::npos;
  EXPECT_TRUE(SawSchemaNote);

  // Out-of-range versions are still structural errors, including the
  // pre-ladder v1/v2 reports neither compare nor the ledger reads.
  for (int64_t V : {0, 1, 2, ReportSchemaVersion + 1}) {
    Old.set("schema_version", JsonValue::integer(V));
    CompareResult Bad = compareReports(Old, New, CompareOptions());
    EXPECT_FALSE(Bad.Errors.empty()) << "schema " << V;
    EXPECT_TRUE(Bad.Deltas.empty()) << "schema " << V;
  }
}

// -- End-to-end pipeline report ----------------------------------------------

TEST(Report, PipelineRunProducesPhasesAndDecisions) {
  Registry &G = Registry::global();
  G.clear();
  G.setEnabled(true);

  Module M;
  ColumnarTrace T =
      traceWorkloadColumnar(workloadNamed("compress"), 1, M, 20'000);
  PipelineOptions Opts;
  Opts.Strategy.MaxStates = 6;
  Opts.Strategy.NodeBudget = 30'000;
  PipelineResult PR = replicateModule(M, T, Opts);

  // Every phase timer fired exactly once for this single run.
  for (const char *Phase :
       {"pipeline.phase.loop_analysis", "pipeline.phase.profiling",
        "pipeline.phase.machine_search", "pipeline.phase.joint_planning",
        "pipeline.phase.replication", "pipeline.phase.annotation",
        "pipeline.phase.attribution"}) {
    ASSERT_EQ(G.timers().count(Phase), 1u) << Phase;
    EXPECT_EQ(G.timers().at(Phase).count(), 1u) << Phase;
  }
  EXPECT_EQ(G.counter("pipeline.runs").value(), 1u);
  EXPECT_GT(G.counter("interp.instructions").value(), 0u);
  EXPECT_GT(G.counter("interp.branch_events").value(), 0u);
  // Spans outside the pipeline phases feed timers too: one interp.execute
  // sample per interpreter run, and the path-profiling layer.
  ASSERT_EQ(G.timers().count("interp.execute"), 1u);
  EXPECT_EQ(G.timers().at("interp.execute").count(),
            G.counter("interp.runs").value());
  EXPECT_GE(G.counter("interp.runs").value(), 2u); // trace + measurement
  ASSERT_EQ(G.timers().count("profiles.paths"), 1u);
  EXPECT_GE(G.timers().at("profiles.paths").count(), 1u);

  // Every static branch got at least one decision record, each with a
  // non-empty reason.
  ASSERT_FALSE(PR.Decisions.empty());
  for (const BranchDecision &D : PR.Decisions.all()) {
    EXPECT_GE(D.BranchId, 0);
    EXPECT_FALSE(D.Strategy.empty());
    EXPECT_FALSE(D.Reason.empty());
  }

  // The full report serializes and parses back with the pipeline section.
  ReportMeta Meta;
  Meta.Command = "replicate";
  Meta.Workload = "compress";
  JsonValue Report = buildReport(Meta, G, &PR);
  std::string Error;
  JsonValue Back = parseJson(Report.dump(), Error);
  ASSERT_TRUE(Error.empty()) << Error;
  const JsonValue *Pipeline = Back.find("pipeline");
  ASSERT_NE(Pipeline, nullptr);
  EXPECT_EQ(Pipeline->find("decisions")->size(), PR.Decisions.size());
  ASSERT_NE(Pipeline->find("code_size"), nullptr);
  EXPECT_GT(Pipeline->find("code_size")->find("factor")->asDouble(), 0.0);
  const JsonValue *Phases = Back.find("metrics")->find("phases");
  ASSERT_NE(Phases, nullptr);
  for (const char *Name : {"interp.execute", "profiles.paths"})
    EXPECT_NE(Phases->find(Name), nullptr) << Name;

  // The attribution ledger filled and surfaced as the "branches" section.
  ASSERT_FALSE(PR.Attribution.empty());
  const JsonValue *Branches = Back.find("branches");
  ASSERT_NE(Branches, nullptr);
  EXPECT_EQ(Branches->find("branches_total")->asInt(),
            static_cast<int64_t>(PR.Attribution.size()));
  EXPECT_GT(Branches->find("total_executions")->asInt(), 0);

  G.clear();
  G.setEnabled(false);
}

TEST(Report, DisabledGlobalRegistryRecordsNothing) {
  Registry &G = Registry::global();
  G.clear();
  G.setEnabled(false);

  Module M;
  ColumnarTrace T =
      traceWorkloadColumnar(workloadNamed("compress"), 1, M, 5'000);
  PipelineOptions Opts;
  Opts.Strategy.MaxStates = 4;
  Opts.Strategy.NodeBudget = 10'000;
  PipelineResult PR = replicateModule(M, T, Opts);

  // Metrics are off; the decision log is part of the result and still
  // fills, but the attribution ledger (which costs an extra execution of
  // the transformed module) stays empty.
  EXPECT_TRUE(G.empty());
  EXPECT_FALSE(PR.Decisions.empty());
  EXPECT_TRUE(PR.Attribution.empty());
}
