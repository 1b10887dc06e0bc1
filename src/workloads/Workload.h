//===- workloads/Workload.h - Synthetic benchmark programs ------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark suite. The paper evaluates eight programs (abalone, the
/// lcc C compiler front end, compress, ghostview, the authors' own predict
/// tool, a Prolog interpreter, an instruction scheduler, and the doduc
/// floating-point simulation). Each synthetic workload here is an IR
/// program modelled on the control-flow character of its namesake:
///
///   abalone     alpha-beta game-tree search (recursion, pruning branches)
///   c-compiler  lexer/parser over synthetic source text (dispatch chains)
///   compress    LZW-style compression (hash probe hit/miss correlation)
///   ghostview   operator-dispatch interpreter with bigram-correlated ops
///   predict     trace-analysis tool (counter updates, bucket searches)
///   prolog      backtracking constraint search (N-queens style)
///   scheduler   list scheduling over random DAGs (ready-scan loops)
///   doduc       fixed-point numeric kernels (regular loops, FP-like)
///
/// Programs take a seed so the dataset-sensitivity ablation can rerun them
/// on different inputs.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_WORKLOADS_WORKLOAD_H
#define BPCR_WORKLOADS_WORKLOAD_H

#include "interp/Interpreter.h"
#include "ir/Module.h"
#include "trace/ColumnarTrace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace bpcr {

/// One benchmark program generator.
struct Workload {
  const char *Name;
  const char *Description;
  Module (*Build)(uint64_t Seed);
};

/// The eight-benchmark suite, in the paper's column order.
const std::vector<Workload> &allWorkloads();

/// Builds one workload by name; asserts on unknown names.
Module buildWorkload(const std::string &Name, uint64_t Seed);

/// Builds the workload, executes it (capped at \p MaxBranchEvents like the
/// paper's 1M-branch traces) and returns its trace, collected through
/// batched emission with the per-branch index finalized for \p OutModule
/// on \p Jobs threads (ColumnarTrace::finalize). Branch ids are assigned
/// on \p OutModule. When \p Run is non-null it receives the run's outcome;
/// a failed run's trace holds the events before the failure. Without it,
/// a failed run is fatal (a diagnostic, then abort).
ColumnarTrace traceWorkloadColumnar(const Workload &W, uint64_t Seed,
                                    Module &OutModule,
                                    uint64_t MaxBranchEvents = 1'000'000,
                                    unsigned Jobs = 1,
                                    ExecResult *Run = nullptr);

/// Events reserved for a workload trace capped at \p MaxBranchEvents: the
/// cap, up to 2^21. Short workloads leave slack, but one oversized
/// reservation beats ~20 growth copies of a million-event column.
size_t traceReservation(uint64_t MaxBranchEvents);

// Individual builders (exposed for unit tests).
Module buildAbalone(uint64_t Seed);
Module buildCCompiler(uint64_t Seed);
Module buildCompress(uint64_t Seed);
Module buildGhostview(uint64_t Seed);
Module buildPredictTool(uint64_t Seed);
Module buildProlog(uint64_t Seed);
Module buildScheduler(uint64_t Seed);
Module buildDoduc(uint64_t Seed);

} // namespace bpcr

#endif // BPCR_WORKLOADS_WORKLOAD_H
