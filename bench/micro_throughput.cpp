//===- bench/micro_throughput.cpp - Performance microbenchmarks -----------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// google-benchmark timings for the library's hot paths: interpreter
// throughput, predictor update rates, trace codec, pattern-table
// construction and machine search. The paper notes its tracing slows
// programs ~3x and "the analysis of the trace is done in a few seconds";
// these benches document where this implementation stands.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "core/LoopAwareProfiles.h"
#include "core/MachineSearch.h"
#include "core/ScoreKernels.h"
#include "core/SearchCache.h"
#include "core/SizeSweep.h"
#include "core/TraceProfiles.h"
#include "interp/Interpreter.h"
#include "obs/Metrics.h"
#include "obs/Profiler.h"
#include "obs/Report.h"
#include "obs/TraceSpans.h"
#include "predict/DynamicPredictors.h"
#include "predict/Evaluator.h"
#include "predict/SemiStaticPredictors.h"
#include "trace/TraceFile.h"
#include "workloads/Workload.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

using namespace bpcr;

namespace {

/// Ghostview's module and its 200k-event trace, finalized for the module.
struct SharedRun {
  Module M;
  ColumnarTrace T;
};

const SharedRun &sharedRun() {
  static SharedRun R = [] {
    SharedRun X;
    X.T = traceWorkloadColumnar(allWorkloads()[3], 1, X.M, 200'000);
    return X;
  }();
  return R;
}

const ColumnarTrace &sharedTrace() { return sharedRun().T; }

void BM_InterpreterGhostview(benchmark::State &State) {
  Module M = buildWorkload("ghostview", 1);
  M.assignBranchIds();
  uint64_t Instructions = 0;
  for (auto _ : State) {
    ExecOptions Opts;
    Opts.MaxBranchEvents = 100'000;
    ExecResult R = execute(M, nullptr, Opts);
    benchmark::DoNotOptimize(R.ReturnValue);
    Instructions += R.InstructionsExecuted;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Instructions));
}
BENCHMARK(BM_InterpreterGhostview);

void BM_TwoLevelPredictor(benchmark::State &State) {
  const ColumnarTrace &T = sharedTrace();
  for (auto _ : State) {
    TwoLevelPredictor P(TwoLevelConfig::paperDefault());
    PredictionStats S = evaluatePredictor(P, T);
    benchmark::DoNotOptimize(S.Mispredictions);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(T.size()));
}
BENCHMARK(BM_TwoLevelPredictor);

void BM_LoopCorrelationTraining(benchmark::State &State) {
  const ColumnarTrace &T = sharedTrace();
  for (auto _ : State) {
    LoopCorrelationPredictor P;
    P.train(T);
    benchmark::DoNotOptimize(P.improvedBranchCount());
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(T.size()));
}
BENCHMARK(BM_LoopCorrelationTraining);

void BM_TraceEncode(benchmark::State &State) {
  const ColumnarTrace &T = sharedTrace();
  for (auto _ : State) {
    auto Buf = encodeTrace(T);
    benchmark::DoNotOptimize(Buf.size());
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(T.size()));
}
BENCHMARK(BM_TraceEncode);

void BM_TraceDecode(benchmark::State &State) {
  static std::vector<uint8_t> Buf = encodeTrace(sharedTrace());
  ColumnarTrace Out;
  std::string Error;
  for (auto _ : State) {
    bool Ok = decodeTraceColumnar(Buf, Out, Error);
    benchmark::DoNotOptimize(Ok);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(sharedTrace().size()));
}
BENCHMARK(BM_TraceDecode);

void BM_LoopAwareProfiling(benchmark::State &State) {
  static ProgramAnalysis PA(sharedRun().M);
  const ColumnarTrace &T = sharedTrace();
  for (auto _ : State) {
    ProfileSet P = buildLoopAwareProfiles(PA, T);
    benchmark::DoNotOptimize(P.totalExecutions());
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(T.size()));
}
BENCHMARK(BM_LoopAwareProfiling);

void BM_MachineSearchExact(benchmark::State &State) {
  // A branch with rich history: ghostview's dispatch pattern.
  static PatternTable Table = [] {
    PatternTable T(9);
    BranchColumn Col = sharedTrace().branch(0);
    for (uint64_t I = 0; I < Col.Executions; ++I)
      T.record(Col.Bits.bit(I));
    return T;
  }();
  for (auto _ : State) {
    MachineOptions MO;
    MO.MaxStates = static_cast<unsigned>(State.range(0));
    MO.NodeBudget = 100'000;
    SuffixMachine M = buildIntraLoopMachine(Table, MO);
    benchmark::DoNotOptimize(M.Correct);
  }
}
BENCHMARK(BM_MachineSearchExact)->Arg(3)->Arg(5)->Arg(7);

//===----------------------------------------------------------------------===//
// Sweep wall-time benchmark (--sweep-bench): times computeSizeSweep on the
// largest workload at several --jobs settings, cold and warm, plus the event
// path that feeds it (module build + trace + loop-aware profiles, also at
// one and four jobs) and the four-job critical path of the whole chain.
// Emits BENCH_sweep.json. Timing gauges are skip-listed in the compare
// thresholds; the cache hit rate and the search counters are deterministic
// and gated.
//===----------------------------------------------------------------------===//

double wallMs(const std::function<void()> &Fn) {
  auto T0 = std::chrono::steady_clock::now();
  Fn();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

/// The largest workload by trace length under \p Events (branch count
/// breaks ties), traced with the registry off.
const Workload *largestWorkload(uint64_t Events) {
  const Workload *Largest = nullptr;
  size_t LargestScore = 0;
  for (const Workload &W : allWorkloads()) {
    Module WM;
    ColumnarTrace WT = traceWorkloadColumnar(W, 1, WM, Events);
    size_t Score = WT.size() * 8 + WT.numBranches();
    if (Score > LargestScore) {
      LargestScore = Score;
      Largest = &W;
    }
  }
  return Largest;
}

int runSweepBench(BenchRunOptions RunOpts) {
  uint64_t Events = 50'000;
  if (const char *E = std::getenv("BPCR_SWEEP_EVENTS"))
    Events = std::strtoull(E, nullptr, 10);
  if (RunOpts.EventsSet)
    Events = RunOpts.Events;
  // Each configuration is timed best-of-N to keep the wall-time gauges
  // stable on noisy (shared/single-core) runners. N is fixed so the
  // deterministic search counters stay reproducible run to run.
  unsigned Reps = 3;
  if (const char *R = std::getenv("BPCR_SWEEP_REPS"))
    Reps = std::max(1u, static_cast<unsigned>(std::strtoul(R, nullptr, 10)));

  // Nothing before the timed region may record (parseBenchArgs arms the
  // registry at parse time when a report or ledger was requested); the
  // report carries the search counters of the timed sweeps only.
  Registry::global().setEnabled(false);

  // The acceptance target is the *largest* workload's sweep; pick it by
  // trace length instead of hardcoding a name.
  const Workload *Largest = largestWorkload(Events);
  std::printf("sweep bench: largest workload is %s (%llu events cap)\n",
              Largest->Name, static_cast<unsigned long long>(Events));
  Module M;
  ColumnarTrace CT = traceWorkloadColumnar(*Largest, 1, M, Events);
  ProgramAnalysis PA(M);
  ProfileSet Profiles = buildLoopAwareProfiles(PA, CT);

  SweepOptions Opts;
  Opts.MaxStates = 8;
  Opts.MaxSizeFactor = 16.0;
  Opts.NodeBudget = 30'000;

  Registry &Obs = Registry::global();
  Obs.setEnabled(true);
  SearchCache &Cache = SearchCache::global();

  auto RunAt = [&](unsigned Jobs, bool Cold,
                   std::vector<SweepPoint> &Out) -> double {
    double Best = 0.0;
    for (unsigned I = 0; I < Reps; ++I) {
      if (Cold)
        Cache.clear();
      SweepOptions O = Opts;
      O.Jobs = Jobs;
      double Ms = wallMs([&] { Out = computeSizeSweep(PA, Profiles, CT, O); });
      if (I == 0 || Ms < Best)
        Best = Ms;
    }
    return Best;
  };

  Cache.clear();
  std::vector<SweepPoint> P1, P2, P4, P4W;
  double Jobs1Ms = RunAt(1, /*Cold=*/true, P1);
  SearchCache::Stats ColdStats = Cache.stats();
  double Jobs2Ms = RunAt(2, /*Cold=*/true, P2);
  double Jobs4Ms = RunAt(4, /*Cold=*/true, P4);
  double WarmMs = RunAt(4, /*Cold=*/false, P4W);

  // Correctness guard: every run must produce the identical curve.
  auto SameCurve = [](const std::vector<SweepPoint> &A,
                      const std::vector<SweepPoint> &B) {
    if (A.size() != B.size())
      return false;
    for (size_t I = 0; I < A.size(); ++I)
      if (A[I].SizeFactor != B[I].SizeFactor ||
          A[I].MispredictPercent != B[I].MispredictPercent ||
          A[I].BranchId != B[I].BranchId ||
          A[I].NewStates != B[I].NewStates)
        return false;
    return true;
  };
  if (!SameCurve(P1, P2) || !SameCurve(P1, P4) || !SameCurve(P1, P4W)) {
    std::fprintf(stderr,
                 "sweep bench: FAIL — curves differ across --jobs runs\n");
    return 1;
  }

  uint64_t Lookups = ColdStats.Hits + ColdStats.Misses;
  double HitRate = Lookups ? 100.0 * static_cast<double>(ColdStats.Hits) /
                                 static_cast<double>(Lookups)
                           : 0.0;

  // Event path: batched emission into the packed id/direction columns,
  // then the flat-count fill kernel over 64-outcome words, timed end to end
  // (module build + trace + loop-aware profiles) best-of-N.
  double PathMs = 0.0;
  ColumnarTrace PathCT;
  for (unsigned I = 0; I < Reps; ++I) {
    double Ms = wallMs([&] {
      Module PM;
      PathCT = traceWorkloadColumnar(*Largest, 1, PM, Events);
      benchmark::DoNotOptimize(buildLoopAwareProfiles(PA, PathCT));
    });
    if (I == 0 || Ms < PathMs)
      PathMs = Ms;
  }
  // Trace + loop-aware profiles at one and four jobs (the index and the
  // reset scan walk the trace's chunks on that many threads), with the
  // registry off so the gated counters cover the runs above only. Each
  // stage of trace, profiles and sweep must finish before the next
  // starts, so at four jobs their sum is the chain's critical path.
  auto ProfilesAt = [&](unsigned Jobs) {
    double Best = 0.0;
    for (unsigned I = 0; I < Reps; ++I) {
      double Ms = wallMs([&] {
        Module PM;
        ColumnarTrace JT = traceWorkloadColumnar(*Largest, 1, PM, Events, Jobs);
        benchmark::DoNotOptimize(
            buildLoopAwareProfiles(PA, JT, /*MaxBits=*/9, nullptr, Jobs));
      });
      if (I == 0 || Ms < Best)
        Best = Ms;
    }
    return Best;
  };
  // The same trace and profiles streamed (core/TraceProfiles.h): the walks
  // run while the interpreter writes the trace, and the figure also covers
  // the path profiles the sweep would otherwise take itself.
  double StreamedOverlap = 0.0;
  auto StreamedAt = [&](unsigned Jobs) {
    double Best = 0.0;
    for (unsigned I = 0; I < Reps; ++I) {
      TraceProfileOptions TO;
      TO.MaxBranchEvents = Events;
      TO.Jobs = Jobs;
      TO.MaxStates = Opts.MaxStates;
      double Ms = wallMs([&] {
        Module PM;
        TraceProfiles TP;
        traceProfiles(*Largest, 1, PM, TO, TP);
        StreamedOverlap = TP.OverlapShare;
        benchmark::DoNotOptimize(TP.Profiles);
      });
      if (I == 0 || Ms < Best)
        Best = Ms;
    }
    return Best;
  };
  Obs.setEnabled(false);
  const double Profiles1Ms = ProfilesAt(1);
  const double Profiles4Ms = ProfilesAt(4);
  const double Streamed4Ms = StreamedAt(4);
  Obs.setEnabled(true);
  const double CriticalMs = Profiles4Ms + Jobs4Ms;

  double PathEvents = static_cast<double>(PathCT.size());
  double PathEps = PathMs > 0 ? 1000.0 * PathEvents / PathMs : 0.0;
  double BytesPerEvent =
      PathCT.size() ? static_cast<double>(PathCT.bytesUsed()) / PathEvents
                    : 0.0;

  Obs.gauge("sweep.workload_events").set(static_cast<double>(CT.size()));
  Obs.gauge("sweep.wall_ms.jobs1").set(Jobs1Ms);
  Obs.gauge("sweep.wall_ms.jobs2").set(Jobs2Ms);
  Obs.gauge("sweep.wall_ms.jobs4").set(Jobs4Ms);
  Obs.gauge("sweep.wall_ms.jobs4_warm").set(WarmMs);
  Obs.gauge("sweep.speedup.jobs4_vs_jobs1")
      .set(Jobs4Ms > 0 ? Jobs1Ms / Jobs4Ms : 0.0);
  Obs.gauge("sweep.wall_ms.profiles_jobs1").set(Profiles1Ms);
  Obs.gauge("sweep.wall_ms.profiles_jobs4").set(Profiles4Ms);
  Obs.gauge("sweep.wall_ms.trace_profiles_streamed_jobs4").set(Streamed4Ms);
  Obs.gauge("sweep.stream.overlap_share").set(StreamedOverlap);
  Obs.gauge("sweep.critical_path_wall_ms").set(CriticalMs);
  Obs.gauge("sweep.cache.hit_rate_percent").set(HitRate);
  Obs.gauge("sweep.events_per_sec.jobs4")
      .set(Jobs4Ms > 0 ? 1000.0 * static_cast<double>(CT.size()) / Jobs4Ms
                       : 0.0);
  Obs.gauge("sweep.columnar.events_per_sec").set(PathEps);
  Obs.gauge("sweep.columnar.bytes_per_event").set(BytesPerEvent);

  std::printf("sweep bench (%s, %zu events, states<=%u):\n", Largest->Name,
              CT.size(), Opts.MaxStates);
  std::printf("  ladder --jobs 1 (cold) : %8.1f ms\n", Jobs1Ms);
  std::printf("  ladder --jobs 2 (cold) : %8.1f ms\n", Jobs2Ms);
  std::printf("  ladder --jobs 4 (cold) : %8.1f ms\n", Jobs4Ms);
  std::printf("  ladder --jobs 4 (warm) : %8.1f ms\n", WarmMs);
  std::printf("  cache hit rate (cold)  : %7.1f%%  (%llu hits / %llu "
              "lookups)\n",
              HitRate, static_cast<unsigned long long>(ColdStats.Hits),
              static_cast<unsigned long long>(Lookups));
  std::printf("event path (%s, %.0f events, simd tier %s):\n",
              Largest->Name, PathEvents, simdTierName(activeSimdTier()));
  std::printf("  trace + profiles       : %8.1f ms  (%12.0f events/sec, "
              "%5.2f bytes/event)\n",
              PathMs, PathEps, BytesPerEvent);
  std::printf("  trace + profiles -j 1  : %8.1f ms\n", Profiles1Ms);
  std::printf("  trace + profiles -j 4  : %8.1f ms\n", Profiles4Ms);
  std::printf("  streamed + paths -j 4  : %8.1f ms  (%.0f%% of the events "
              "walked during the run)\n",
              Streamed4Ms, 100.0 * StreamedOverlap);
  std::printf("  critical path  -j 4    : %8.1f ms  (trace + profiles + "
              "sweep)\n",
              CriticalMs);

  if (RunOpts.MetricsOut.empty())
    RunOpts.MetricsOut = "BENCH_sweep.json";
  RunOpts.Seed = 1;
  RunOpts.Events = Events;
  return finishBench(RunOpts, "micro_throughput", "sweep-bench",
                     Largest->Name);
}

//===----------------------------------------------------------------------===//
// Self-profiling benchmark (--profile-bench): runs the size sweep on the
// largest workload with the profiler armed and emits the schema-v4 report
// (profile section included) as BENCH_profile.json plus a collapsed-stack
// flamegraph. The compare gate holds the schedule-independent counts
// (`profile.categories.*.opened`, search counters) to the baseline; every
// time, RSS and allocator figure is report-only.
//===----------------------------------------------------------------------===//

int runProfileBench(BenchRunOptions RunOpts) {
  uint64_t Events = 50'000;
  if (const char *E = std::getenv("BPCR_SWEEP_EVENTS"))
    Events = std::strtoull(E, nullptr, 10);
  if (RunOpts.EventsSet)
    Events = RunOpts.Events;

  // Same selection rule as the sweep bench: largest workload by trace
  // length, branch count breaking ties. Selection runs before the profiler
  // is armed — and with the registry off, in case parseBenchArgs enabled
  // it — so the probe traces pollute neither span nor interp counts.
  Registry::global().setEnabled(false);
  const Workload *Largest = largestWorkload(Events);
  std::printf("profile bench: largest workload is %s (%llu events cap)\n",
              Largest->Name, static_cast<unsigned long long>(Events));

  Registry::global().setEnabled(true);
  Profiler &Prof = Profiler::global();
  Prof.setEnabled(true);
  SearchCache::global().clear();

  // The profiled run exercises the whole event path, so the interp/kernel
  // profiler categories and the trace.columnar.* / search.simd.* counters
  // land in the report.
  Module M;
  ColumnarTrace CT;
  double PathMs = wallMs([&] {
    CT = traceWorkloadColumnar(*Largest, 1, M, Events);
  });
  ProgramAnalysis PA(M);
  Prof.sampleRss("profile_bench.traced");
  ProfileSet Profiles(0);
  PathMs += wallMs([&] { Profiles = buildLoopAwareProfiles(PA, CT); });
  Registry::global()
      .gauge("profile_bench.columnar.events_per_sec")
      .set(PathMs > 0 ? 1000.0 * static_cast<double>(CT.size()) / PathMs
                      : 0.0);

  SweepOptions Opts;
  Opts.MaxStates = 8;
  Opts.MaxSizeFactor = 16.0;
  Opts.NodeBudget = 30'000;
  Opts.Jobs = 4;
  std::vector<SweepPoint> Points = computeSizeSweep(PA, Profiles, CT, Opts);
  benchmark::DoNotOptimize(Points.data());
  Prof.sampleRss("profile_bench.sweep");

  ProfileData Data = Prof.collect();
  std::fputs(profileTable(Data, &Registry::global()).c_str(), stdout);

  if (RunOpts.MetricsOut.empty())
    RunOpts.MetricsOut = "BENCH_profile.json";
  RunOpts.Seed = 1;
  RunOpts.Events = Events;
  int RC = finishBench(RunOpts, "micro_throughput", "profile-bench",
                       Largest->Name);
  if (RC != 0)
    return RC;

  const char *Flame = std::getenv("BPCR_FLAME_OUT");
  if (!Flame)
    Flame = "BENCH_profile_flame.txt";
  std::string Error;
  if (!writeProfileText(Flame, collapsedStacks(SpanTracer::global()),
                        "flamegraph", Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("wrote flamegraph to %s\n", Flame);
  return 0;
}

/// Console reporter that additionally mirrors every per-iteration result
/// into the obs registry, so the run can be serialized as a BENCH_*.json
/// trajectory point.
class RecordingReporter : public benchmark::ConsoleReporter {
public:
  void ReportRuns(const std::vector<Run> &Runs) override {
    Registry &Obs = Registry::global();
    for (const Run &R : Runs) {
      if (R.run_type != Run::RT_Iteration || R.error_occurred)
        continue;
      std::string Prefix = "micro." + R.benchmark_name();
      Obs.gauge(Prefix + ".real_ns").set(R.GetAdjustedRealTime());
      Obs.gauge(Prefix + ".cpu_ns").set(R.GetAdjustedCPUTime());
      auto It = R.counters.find("items_per_second");
      if (It != R.counters.end())
        Obs.gauge(Prefix + ".items_per_sec").set(It->second);
    }
    ConsoleReporter::ReportRuns(Runs);
  }
};

} // namespace

int main(int argc, char **argv) {
  // The shared bench flags (--seed/--events/--jobs/--metrics/--ledger/
  // --trace-out plus the $BPCR_*_OUT fallbacks) come out of argv first;
  // everything left over belongs to google-benchmark, so unknown options
  // are kept rather than rejected.
  BenchRunOptions Opts;
  if (!parseBenchArgs(argc, argv, Opts, /*KeepUnknown=*/true))
    return 1;

  // Standalone sweep wall-time / self-profiling modes.
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--sweep-bench") == 0)
      return runSweepBench(Opts);
    if (std::strcmp(argv[I], "--profile-bench") == 0)
      return runProfileBench(Opts);
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;

  // The registry and the span tracer stay DISABLED while benchmarks run:
  // these numbers are the overhead guard for the instrumentation's disabled
  // path, so nothing may record during timing. Results are mirrored into
  // the registry by the reporter and serialized afterwards; the span
  // timeline (when requested) covers only the post-run export.
  Registry::global().setEnabled(false);
  bool TraceRequested = SpanTracer::global().enabled();
  SpanTracer::global().setEnabled(false);
  RecordingReporter Reporter;
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();

  Registry::global().setEnabled(true);
  if (Opts.MetricsOut.empty())
    Opts.MetricsOut = "BENCH_micro_throughput.json";
  // The micro benches have no workload seed or event cap; keep the meta
  // fields zero like the reports always carried.
  Opts.Seed = 0;
  if (!Opts.EventsSet)
    Opts.Events = 0;
  if (TraceRequested)
    SpanTracer::global().setEnabled(true);
  return finishBench(Opts, "micro_throughput");
}
