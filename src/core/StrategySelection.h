//===- core/StrategySelection.h - Per-branch strategy choice ----*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "With this information the state machines for loop exit and intra loop
/// branches are selected. For all branches all predecessors with a path
/// length less than the size of the state machine are collected, and the
/// correlated branch state machines are selected. The best available
/// strategy for each branch is chosen." (paper sec. 5)
///
/// This module builds, per branch, the best machine of each applicable
/// family within a state budget and picks the winner; Table 5 aggregates
/// the result, and the replication pipeline materializes it.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_CORE_STRATEGYSELECTION_H
#define BPCR_CORE_STRATEGYSELECTION_H

#include "core/BranchProfiles.h"
#include "core/CorrelatedMachine.h"
#include "core/MachineSearch.h"
#include "core/ProgramAnalysis.h"
#include "obs/Attribution.h"

#include <memory>
#include <vector>

namespace bpcr {

class ColumnarTrace;

namespace sa {
struct BranchProofs;
} // namespace sa

/// Which prediction scheme a branch ended up with.
enum class StrategyKind : uint8_t { Profile, IntraLoop, LoopExit, Correlated };

const char *strategyKindName(StrategyKind K);

/// The chosen strategy for one branch.
struct BranchStrategy {
  int32_t BranchId = -1;
  StrategyKind Kind = StrategyKind::Profile;
  /// Machine for IntraLoop/LoopExit strategies.
  std::unique_ptr<BranchMachine> Machine;
  /// Machine for the Correlated strategy.
  std::unique_ptr<CorrelatedMachine> Corr;
  /// Training-trace assignment score of the chosen strategy.
  uint64_t Correct = 0;
  uint64_t Total = 0;
  /// States the strategy uses (1 for Profile).
  unsigned States = 1;

  uint64_t mispredicted() const { return Total - Correct; }
};

/// Selection parameters.
struct StrategyOptions {
  /// State budget per branch. Correlated paths are at most
  /// min(MaxStates, 4) long, like the paper ("a maximum path length of n
  /// for an n state machine"), and run through jumps as well as direct
  /// branch edges (the replication transform clones the jump chains).
  /// Branches in recursive functions get no loop machine: the replicated
  /// per-activation state cannot be modelled by trace profiling, so the
  /// trained scores would be unreliable.
  unsigned MaxStates = 4;
  /// Also consider correlated machines for loop branches.
  bool CorrelatedForLoopBranches = true;
  bool Exhaustive = true;
  uint64_t NodeBudget = 200'000;
  /// Branches executed fewer times keep the plain profile strategy; very
  /// cold branches cannot amortize any replication.
  uint64_t MinExecutions = 16;
  /// Worker threads for the per-branch candidate scoring: 0 = one per
  /// hardware core, 1 = serial (no pool). The selection is identical for
  /// every value.
  unsigned Jobs = 0;
  /// Branch-direction proofs from sa const-prop (sa/Dataflow.h). A proven
  /// branch keeps the profile strategy without scoring any machine — its
  /// profile prediction is already perfect, so no machine can beat it and
  /// skipping the search cannot change the chosen strategies. Each skip
  /// increments the `search.pruned_by_proof` counter.
  const sa::BranchProofs *Proofs = nullptr;
};

/// Optional record of every candidate strategy scored during selection,
/// one list per branch id. The attribution ledger and `bpcr explain
/// --branch` use it to reconstruct why the winner won.
struct SelectionTrace {
  std::vector<std::vector<CandidateScore>> PerBranch;
};

/// Chooses the best strategy for every branch. When \p TraceOut is non-null
/// every candidate score (winner and losers) is recorded into it. The only
/// trace use is the correlated-path profiling pass over \p CT's columns.
std::vector<BranchStrategy> selectStrategies(const ProgramAnalysis &PA,
                                             const ProfileSet &Profiles,
                                             const ColumnarTrace &CT,
                                             const StrategyOptions &Opts,
                                             SelectionTrace *TraceOut = nullptr);

/// Aggregated accuracy of a strategy assignment (Table 5 entries).
PredictionStats totalStrategyStats(const std::vector<BranchStrategy> &S);

} // namespace bpcr

#endif // BPCR_CORE_STRATEGYSELECTION_H
