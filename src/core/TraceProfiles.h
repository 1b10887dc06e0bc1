//===- core/TraceProfiles.h - Streamed trace and profiles -------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace side of a `sweep` or `replicate` run in one call: build the
/// module, analyze it, run it, and hand back the finalized trace, the
/// loop-aware profiles and the correlated-path profiles the search reads.
///
/// The passes that only read the trace (the index, the loop-aware reset
/// scan and most of the pattern-table fill, and the path automaton) walk
/// it chunk by chunk while the interpreter still writes it: helper
/// threads drawn from the run's `--jobs` take each chunk as soon as the
/// interpreter publishes it (trace/TraceStream.h), and one walk per chunk
/// does the work of all three; the analysis they need is built on a
/// helper while the run starts. After the run only a short tail is left:
/// the chunks nobody had walked yet, the index join, the fill of the
/// reset segments no chunk could fill alone, and the sum of the path
/// counts. With one job the same walk runs over the same chunks after the
/// run, so the results are the same for every job count.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_CORE_TRACEPROFILES_H
#define BPCR_CORE_TRACEPROFILES_H

#include "core/BranchProfiles.h"
#include "core/ProgramAnalysis.h"
#include "core/StrategySelection.h"
#include "interp/Interpreter.h"
#include "sa/Dataflow.h"
#include "trace/ColumnarTrace.h"
#include "workloads/Workload.h"

#include <memory>
#include <string>

namespace bpcr {

/// What the trace side computes.
struct TraceProfileOptions {
  /// The paper's trace cap.
  uint64_t MaxBranchEvents = 1'000'000;
  /// Threads: the run and threadsFor(Jobs) - 1 helpers, then the
  /// post-run passes.
  unsigned Jobs = 1;
  /// State budget of the search the path profiles serve
  /// (BranchPathProfiles::candidates).
  unsigned MaxStates = 4;
  /// Compute the branch proofs (sa/Dataflow.h) before the run: proven
  /// branches get no path candidates and no pattern-table fill, as in the
  /// replication pipeline.
  bool UseProofs = false;
  /// Events per chunk; tests only.
  size_t ChunkEvents = TraceChunkEvents;
};

/// The trace side's results. PA refers to the module the trace was taken
/// from.
struct TraceProfiles {
  std::unique_ptr<ProgramAnalysis> PA;
  /// Filled with TraceProfileOptions::UseProofs.
  sa::BranchProofs Proofs;
  bool HasProofs = false;
  /// Finalized for PA's branches.
  ColumnarTrace Trace;
  /// Loop-aware profiles (buildLoopAwareProfiles, 9 history bits).
  ProfileSet Profiles{0};
  BranchPathProfiles Paths;
  /// The run's outcome; on a failed run everything above covers the events
  /// before the failure.
  ExecResult Run;
  /// Events whose chunk walk finished before the run returned, over all
  /// events (0 with one job): the `trace.stream.overlap_share` gauge.
  double OverlapShare = 0.0;

  const sa::BranchProofs *proofs() const {
    return HasProofs ? &Proofs : nullptr;
  }
};

/// Builds \p W's module for \p Seed into \p OutModule (branch ids
/// assigned), runs it capped at Opts.MaxBranchEvents and profiles the
/// trace. \returns false when the run failed (Out.Run.Error says why).
/// Records the `trace.stream.overlap_share` and
/// `trace.stream.run_cpu_share` gauges.
bool traceProfiles(const Workload &W, uint64_t Seed, Module &OutModule,
                   const TraceProfileOptions &Opts, TraceProfiles &Out);

/// The same for a module whose branch ids are assigned, run with \p Exec
/// (Opts.MaxBranchEvents is not read). \p ReserveEvents events are reserved
/// for the trace; chunks past the reservation are walked after the run.
bool traceModuleProfiles(const Module &M, const ExecOptions &Exec,
                         size_t ReserveEvents, const TraceProfileOptions &Opts,
                         TraceProfiles &Out);

} // namespace bpcr

#endif // BPCR_CORE_TRACEPROFILES_H
