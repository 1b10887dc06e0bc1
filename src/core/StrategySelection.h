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
/// This module is the only per-branch machine search: it builds, per
/// branch, the ladder of best machines of each applicable family and picks
/// the winning family. Strategy selection reads the top rung (Table 5
/// aggregates it, the replication pipeline materializes it); the size
/// sweep (core/SizeSweep.h) walks every rung.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_CORE_STRATEGYSELECTION_H
#define BPCR_CORE_STRATEGYSELECTION_H

#include "core/BranchProfiles.h"
#include "core/CorrelatedMachine.h"
#include "core/MachineSearch.h"
#include "core/ProgramAnalysis.h"
#include "core/SearchCache.h"
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

/// What the per-branch machine search covers. Selection and the size sweep
/// differ only in these values.
struct LadderSearchSpec {
  /// Deepest rung. Correlated paths are at most min(MaxStates, 4) long,
  /// like the paper ("a maximum path length of n for an n state machine"),
  /// and run through jumps as well as direct branch edges (the replication
  /// transform clones the jump chains).
  unsigned MaxStates = 4;
  /// Shallowest intra-loop and correlated rung built (exit ladders always
  /// start at 2).
  unsigned MinBudget = 2;
  /// Branches executed fewer times are not searched.
  uint64_t MinExecutions = 16;
  bool Exhaustive = true;
  uint64_t NodeBudget = 200'000;
  /// Worker threads for the per-branch ladder lookups: 0 = one per
  /// hardware core, 1 = serial (no pool). The result is identical for
  /// every value.
  unsigned Jobs = 0;
  /// Proven branches (sa/Dataflow.h) are not searched: their profile
  /// prediction is already perfect. Each skip increments the
  /// `search.pruned_by_proof` counter.
  const sa::BranchProofs *Proofs = nullptr;
};

/// One branch's machine ladders.
struct BranchLadders {
  /// Why the branch was not searched, if it was not.
  enum class Skip : uint8_t { None, Proven, Cold };
  Skip Skipped = Skip::None;
  /// The branch is in a recursive function, so no loop family was searched:
  /// the replicated per-activation state cannot be modelled by trace
  /// profiling, so the trained scores would be unreliable.
  bool Recursive = false;
  /// Executions, and hits of the profile prediction (the one-state rung).
  uint64_t Total = 0;
  uint64_t ProfileCorrect = 0;
  /// Correlated-path candidates profiled for the branch.
  size_t PathCandidates = 0;
  /// Ladders of the families searched (at most one loop family).
  std::shared_ptr<const IntraLoopLadder> IntraLoop;
  std::shared_ptr<const ExitLadder> Exit;
  std::shared_ptr<const CorrelatedLadder> Correlated;
  /// The family with the most correct predictions at rung MaxStates. It
  /// must beat the profile strictly; the loop family wins a tie with the
  /// correlated one.
  StrategyKind Family = StrategyKind::Profile;

  /// Correct predictions of the chosen family at rung \p N (the profile
  /// score for StrategyKind::Profile).
  uint64_t correctAt(unsigned N) const;
};

/// Correlated-path profiles taken before the search knows which branches
/// are warm: every branch that no proof excludes gets its candidates
/// profiled (the streamed trace walk, core/TraceProfiles.h, has no
/// execution counts yet when it starts). A branch's profile does not
/// depend on the other branches' candidates, so the search reads the same
/// profile for a warm branch as if it had profiled the warm ones alone.
struct BranchPathProfiles {
  /// Longest candidate: min(MaxStates, 4) of the search it serves.
  unsigned PathLen = 0;
  /// Per branch id: 1 when its candidates were profiled.
  std::vector<uint8_t> Profiled;
  /// Per branch id: its candidate paths (empty when not profiled).
  std::vector<std::vector<BranchPath>> Candidates;
  /// Per branch id: its profile over the candidates.
  std::vector<PathProfile> Profiles;

  /// The candidates a search with state budget \p MaxStates considers,
  /// for every branch not proven in \p Proofs (may be null); Profiles
  /// is left empty.
  static BranchPathProfiles candidates(const ProgramAnalysis &PA,
                                       unsigned MaxStates,
                                       const sa::BranchProofs *Proofs);
};

/// Searches every branch once: eligibility (warm, unproven, loop families
/// only outside recursive functions), one correlated-path profiling pass
/// over \p CT, the memoized ladder lookups (SearchCache) in parallel, and
/// the family choice. Indexed by branch id.
std::vector<BranchLadders> searchBranchLadders(const ProgramAnalysis &PA,
                                               const ProfileSet &Profiles,
                                               const ColumnarTrace &CT,
                                               const LadderSearchSpec &Spec);

/// The same search reading the eligible branches' path profiles from \p
/// Paths instead of profiling \p CT; \p Paths must cover every branch the
/// search considers, at its path length.
std::vector<BranchLadders> searchBranchLadders(const ProgramAnalysis &PA,
                                               const ProfileSet &Profiles,
                                               const ColumnarTrace &CT,
                                               const LadderSearchSpec &Spec,
                                               const BranchPathProfiles &Paths);

/// Selection parameters.
struct StrategyOptions {
  /// State budget per branch (see LadderSearchSpec).
  unsigned MaxStates = 4;
  bool Exhaustive = true;
  uint64_t NodeBudget = 200'000;
  /// Branches executed fewer times keep the plain profile strategy; very
  /// cold branches cannot amortize any replication.
  uint64_t MinExecutions = 16;
  /// Worker threads for the search (see LadderSearchSpec).
  unsigned Jobs = 0;
  /// Branch-direction proofs from sa const-prop (sa/Dataflow.h). A proven
  /// branch keeps the profile strategy without scoring any machine — its
  /// profile prediction is already perfect, so no machine can beat it and
  /// skipping the search cannot change the chosen strategies.
  const sa::BranchProofs *Proofs = nullptr;
};

/// Optional record of every candidate strategy scored during selection,
/// one list per branch id. The attribution ledger and `bpcr explain
/// --branch` use it to reconstruct why the winner won.
struct SelectionTrace {
  std::vector<std::vector<CandidateScore>> PerBranch;
};

/// Chooses the best strategy for every branch: the top rung of
/// searchBranchLadders. When \p TraceOut is non-null every candidate score
/// (winner and losers) is recorded into it. With \p Paths the search
/// reads the path profiles from it instead of profiling \p CT.
std::vector<BranchStrategy>
selectStrategies(const ProgramAnalysis &PA, const ProfileSet &Profiles,
                 const ColumnarTrace &CT, const StrategyOptions &Opts,
                 SelectionTrace *TraceOut = nullptr,
                 const BranchPathProfiles *Paths = nullptr);

/// Aggregated accuracy of a strategy assignment (Table 5 entries).
PredictionStats totalStrategyStats(const std::vector<BranchStrategy> &S);

} // namespace bpcr

#endif // BPCR_CORE_STRATEGYSELECTION_H
