//===- bench/BenchCommon.h - Shared benchmark driver ------------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared setup for the table/figure reproduction binaries: build and trace
/// the eight-benchmark suite (capped at one million branch events, like the
/// paper) and precompute the per-branch analyses everything consumes.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_BENCH_BENCHCOMMON_H
#define BPCR_BENCH_BENCHCOMMON_H

#include "core/BranchProfiles.h"
#include "core/LoopAwareProfiles.h"
#include "core/ProgramAnalysis.h"
#include "trace/TraceStats.h"
#include "workloads/Workload.h"

#include <memory>
#include <string>
#include <vector>

namespace bpcr {

/// One traced benchmark with its analyses. The Module lives behind a
/// unique_ptr so ProgramAnalysis' reference into it survives moves of this
/// struct.
struct WorkloadData {
  const Workload *W = nullptr;
  std::unique_ptr<Module> M;
  /// The run's trace, finalized for M's branch count.
  ColumnarTrace T;
  std::unique_ptr<ProgramAnalysis> PA;
  /// Whole-trace profiles: unbounded software history (Tables 1/2).
  std::unique_ptr<ProfileSet> Plain;
  /// Loop-aware profiles: history resets on loop re-entry, matching what
  /// replication realizes (Tables 3/5, figures).
  std::unique_ptr<ProfileSet> LoopAware;
  std::unique_ptr<TraceStats> Stats;
};

/// Traces the whole suite. \p MaxEvents mirrors the paper's 1M-branch cap.
/// \p Jobs fans the independent per-workload trace+analysis pipelines over
/// a worker pool (0 = one per hardware core, 1 = serial); the result is
/// identical for every value.
std::vector<WorkloadData> loadSuite(uint64_t Seed = 1,
                                    uint64_t MaxEvents = 1'000'000,
                                    unsigned Jobs = 1);

/// Short column headers in the paper's order.
std::vector<std::string> suiteHeader(const std::string &RowLabel);

/// Flags shared by every bench binary: `--seed N`, `--events N`,
/// `--jobs N` (worker threads; 0 = hardware concurrency, 1 = serial),
/// `--metrics FILE` (JSON run report), `--ledger FILE` (append one record
/// to the cross-run ledger, obs/Ledger.h) and `--trace-out FILE` (Chrome
/// Trace span timeline). The report and ledger destinations also fall back
/// to $BPCR_METRICS_OUT / $BPCR_LEDGER_OUT so CI can arm every bench via
/// the environment. CI uses the seed/event knobs to run the benches on a
/// small budget, the report for the `bpcr compare` regression gate, and
/// the ledger for `bpcr trend`.
struct BenchRunOptions {
  uint64_t Seed = 1;
  uint64_t Events = 1'000'000;
  /// True when --events was given (runners with a different default budget,
  /// like micro_throughput's sweep modes, honor an explicit value only).
  bool EventsSet = false;
  unsigned Jobs = 0;
  std::string MetricsOut;
  std::string LedgerOut;
  std::string TraceOut;
};

/// Parses and splices the shared flags out of argv (positional arguments
/// are left for the caller), enabling the metrics registry and the span
/// tracer as requested. With \p KeepUnknown, unrecognized `--` options are
/// kept in argv for the caller (micro_throughput forwards them to
/// google-benchmark) instead of being an error. \returns false after
/// printing an error message.
bool parseBenchArgs(int &Argc, char **Argv, BenchRunOptions &Opts,
                    bool KeepUnknown = false);

/// Writes the requested run report, appends it to the run ledger and
/// finishes the span trace. \p Command/\p Workload fill the corresponding
/// report and ledger metadata fields. \returns a process exit code (0 ok).
int finishBench(const BenchRunOptions &Opts, const char *Tool,
                const char *Command = "bench", const char *Workload = "");

} // namespace bpcr

#endif // BPCR_BENCH_BENCHCOMMON_H
