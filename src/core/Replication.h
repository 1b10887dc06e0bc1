//===- core/Replication.h - Code replication transforms ---------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's central contribution: transforms that encode a branch
/// prediction state machine into the program counter by replicating code.
///
///  - Loop replication (figure 1): one copy of the loop body per machine
///    state; the improved branch's edges switch between copies according to
///    the machine transitions, and each copy of the branch carries a single
///    static prediction. Copies unreachable from the initial state are
///    discarded, exactly as the paper discards blocks "2b" and "3a". A
///    joint machine (sec. 6) improves several branches of the loop at once
///    the same way; a per-branch machine is its one-member case.
///
///  - Correlated replication (sec. 4.3, after Mueller/Whalley): the
///    selected decision paths into the branch's block are materialized by
///    tail-duplicating the blocks along each path, so that arriving through
///    a given path reaches a dedicated copy of the branch with its own
///    prediction; all other arrivals reach the original copy (the
///    catch-all state).
///
/// Both transforms preserve program behavior exactly — replicated blocks
/// are instruction-identical and only control-flow targets are remapped —
/// which the property tests verify by co-executing original and transformed
/// modules.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_CORE_REPLICATION_H
#define BPCR_CORE_REPLICATION_H

#include "core/CorrelatedMachine.h"
#include "core/Machines.h"
#include "interp/Interpreter.h"
#include "ir/Module.h"
#include "trace/TraceStats.h"

#include <cstdint>

namespace bpcr {

struct Loop;
class ProgramAnalysis;

/// Outcome of one replication transform.
struct ReplicationStats {
  bool Applied = false;
  uint32_t BlocksAdded = 0;
  uint32_t BlocksPruned = 0;
  /// Machine states that received a copy (reachable states).
  unsigned StatesMaterialized = 0;
};

/// Replicates the natural loop \p LoopBlocks of \p F so that every
/// instance of a member branch of \p M switches between one loop copy per
/// reachable state of \p M and carries that state's prediction for it.
/// A copy's name is its block's name, '@', the machine's copyTag() and the
/// state (for example "loop@s2").
///
/// The original blocks serve as the initial-state copy, so edges entering
/// the loop need no rewiring (natural loops are only entered through their
/// header). Unreachable copies are pruned afterwards.
ReplicationStats applyLoopReplication(Function &F,
                                      const std::vector<uint32_t> &LoopBlocks,
                                      const LoopMachine &M);

/// Materializes the correlated machine \p M for the branch with original id
/// \p TargetOrigId by tail-duplicating the blocks along each selected path,
/// including any jump-only pass-through blocks between the path decisions
/// (Mueller/Whalley-style). Skips (without modifying \p F) when a path
/// branch cannot be located uniquely or a jump cycle intervenes.
ReplicationStats applyCorrelatedReplication(Function &F,
                                            int32_t TargetOrigId,
                                            const CorrelatedMachine &M);

/// Instructions in the blocks of loop \p L of \p F: the size of one loop
/// copy.
uint64_t loopInstructionCount(const Function &F, const Loop &L);

/// Instructions added by materializing \p States machine states as copies
/// of a loop of \p LoopSize instructions: one copy per state beyond the
/// initial one, and at least one copy. The paper's cost function weighs
/// accuracy gain against this growth.
uint64_t loopCopyCost(uint64_t LoopSize, uint64_t States);

/// Instructions applyCorrelatedReplication adds for \p M on the module
/// \p PA analyzes: per selected path, one copy of the target block plus
/// copies of the intermediate decision blocks (steps 2..len).
uint64_t correlatedReplicationCost(const CorrelatedMachine &M,
                                   const ProgramAnalysis &PA);

/// Removes blocks unreachable from the entry block and remaps all targets.
/// \returns the number of removed blocks.
uint32_t pruneUnreachableBlocks(Function &F);

/// Fills the Predicted annotation of every still-unannotated conditional
/// branch with the majority direction of its *original* branch from
/// \p Stats (indexed by OrigBranchId). Replicated copies that already carry
/// a state prediction are left alone.
void annotateProfilePredictions(Module &M, const TraceStats &Stats);

/// Executes \p M and scores its Predicted annotations against the actual
/// outcomes: the realized semi-static misprediction rate of a replicated
/// program. Unknown annotations count as predict-taken.
PredictionStats measureAnnotatedPredictions(const Module &M,
                                            const ExecOptions &Opts);

/// Measured outcome of one branch copy during a per-replica run.
struct ReplicaMeasurement {
  /// Original branch the copy descends from.
  int32_t OrigBranchId = -1;
  /// BranchId of the copy in the transformed module.
  int32_t ReplicaId = -1;
  uint64_t Executions = 0;
  uint64_t Mispredictions = 0;
};

/// Like measureAnnotatedPredictions, but broken down per branch copy so the
/// attribution ledger can fold replicated copies back onto their original
/// branch ids. Requires assignBranchIds() to have run on \p M. Entries with
/// zero executions are omitted; output is sorted by (OrigBranchId,
/// ReplicaId). \p Extra, when non-null, additionally receives every branch
/// event of the measurement run — the timeline recorder rides along here so
/// per-replica scoring and windowed telemetry share one execution.
std::vector<ReplicaMeasurement>
measureAnnotatedPerReplica(const Module &M, const ExecOptions &Opts,
                           TraceSink *Extra = nullptr);

} // namespace bpcr

#endif // BPCR_CORE_REPLICATION_H
