//===- core/StrategySelection.cpp -----------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/StrategySelection.h"

#include "core/SearchCache.h"
#include "obs/Metrics.h"
#include "trace/ColumnarTrace.h"
#include "sa/Dataflow.h"
#include "support/ThreadPool.h"

#include <cassert>

using namespace bpcr;

const char *bpcr::strategyKindName(StrategyKind K) {
  switch (K) {
  case StrategyKind::Profile:
    return "profile";
  case StrategyKind::IntraLoop:
    return "intra-loop";
  case StrategyKind::LoopExit:
    return "loop-exit";
  case StrategyKind::Correlated:
    return "correlated";
  }
  return "<bad>";
}

uint64_t BranchLadders::correctAt(unsigned N) const {
  switch (Family) {
  case StrategyKind::Profile:
    return ProfileCorrect;
  case StrategyKind::IntraLoop:
    return IntraLoop->at(N).Correct;
  case StrategyKind::LoopExit:
    return Exit->at(N).Correct;
  case StrategyKind::Correlated:
    return Correlated->at(N).Correct;
  }
  return ProfileCorrect;
}

BranchPathProfiles
BranchPathProfiles::candidates(const ProgramAnalysis &PA, unsigned MaxStates,
                               const sa::BranchProofs *Proofs) {
  BranchPathProfiles Out;
  Out.PathLen = std::min<unsigned>(MaxStates, 4);
  Out.Profiled.assign(PA.numBranches(), 0);
  Out.Candidates.resize(PA.numBranches());
  for (uint32_t Id = 0; Id < PA.numBranches(); ++Id) {
    const int32_t B = static_cast<int32_t>(Id);
    if (Proofs && Proofs->proven(B))
      continue;
    Out.Profiled[Id] = 1;
    Out.Candidates[Id] = PA.backwardPaths(B, Out.PathLen,
                                          /*ThroughJumps=*/true);
  }
  return Out;
}

namespace {

/// searchBranchLadders, profiling the eligible branches' paths over \p CT
/// or reading them from \p Pre.
std::vector<BranchLadders> searchLadders(const ProgramAnalysis &PA,
                                         const ProfileSet &Profiles,
                                         const ColumnarTrace &CT,
                                         const LadderSearchSpec &Spec,
                                         const BranchPathProfiles *Pre) {
  assert(Spec.MaxStates >= 2 && "the machine search needs a state budget");
  const unsigned PathLen = std::min<unsigned>(Spec.MaxStates, 4);
  assert((!Pre || Pre->PathLen == PathLen) &&
         "path profiles taken for another state budget");
  std::vector<BranchLadders> Out(PA.numBranches());
  Registry &Obs = Registry::global();

  // Eligibility, then every correlated-path candidate profiled in a single
  // trace pass (unless they already were).
  std::vector<std::vector<BranchPath>> Candidates(PA.numBranches());
  for (uint32_t Id = 0; Id < PA.numBranches(); ++Id) {
    const int32_t B = static_cast<int32_t>(Id);
    const BranchProfile &P = Profiles.branch(B);
    BranchLadders &L = Out[Id];
    L.Total = P.executions();
    L.ProfileCorrect = P.executions() - P.profileMispredictions();
    if (Spec.Proofs && Spec.Proofs->proven(B)) {
      L.Skipped = BranchLadders::Skip::Proven;
      if (Obs.enabled())
        Obs.counter("search.pruned_by_proof").inc();
      continue;
    }
    if (P.executions() < Spec.MinExecutions) {
      L.Skipped = BranchLadders::Skip::Cold;
      continue;
    }
    L.Recursive = PA.isRecursive(PA.ref(B).FuncIdx);
    if (Pre) {
      assert(Pre->Profiled[Id] && "an eligible branch was not profiled");
      L.PathCandidates = Pre->Candidates[Id].size();
      continue;
    }
    Candidates[Id] = PA.backwardPaths(B, PathLen, /*ThroughJumps=*/true);
    L.PathCandidates = Candidates[Id].size();
  }
  std::vector<PathProfile> Profiled;
  if (!Pre)
    Profiled = profilePaths(Candidates, CT, PathLen, Spec.Jobs);
  const std::vector<PathProfile> &PathProfiles =
      Pre ? Pre->Profiles : Profiled;

  // One independent task per branch; results land in slots indexed by
  // branch id, so the outcome is identical for any worker count. Each
  // ladder comes from the memoized downward-fill search, so identical
  // pattern tables across branches share one search.
  SearchCache &Cache = SearchCache::global();
  auto SearchBranch = [&](size_t Idx) {
    const int32_t B = static_cast<int32_t>(Idx);
    BranchLadders &L = Out[Idx];
    if (L.Skipped != BranchLadders::Skip::None)
      return;

    const PatternTable &Table = Profiles.branch(B).Table;
    const BranchClass &C = PA.classOf(B);
    if (!L.Recursive && C.Kind == BranchKind::IntraLoop) {
      MachineOptions MO;
      MO.MaxStates = Spec.MaxStates;
      MO.MaxPatternLen = Table.maxBits();
      MO.Exhaustive = Spec.Exhaustive;
      MO.NodeBudget = Spec.NodeBudget;
      L.IntraLoop = Cache.intraLoopLadder(Table, MO, Spec.MinBudget);
    } else if (!L.Recursive && C.Kind == BranchKind::LoopExit) {
      L.Exit = Cache.exitLadder(Table, Spec.MaxStates, !C.TakenExits);
    }
    if (L.PathCandidates) {
      CorrelatedOptions CO;
      CO.MaxStates = Spec.MaxStates;
      CO.MaxPathLen = PathLen;
      CO.Exhaustive = Spec.Exhaustive;
      CO.NodeBudget = Spec.NodeBudget;
      L.Correlated =
          Cache.correlatedLadder(B, PathProfiles[Idx], CO, Spec.MinBudget);
    }

    uint64_t Best = L.ProfileCorrect;
    auto Consider = [&](StrategyKind K, uint64_t Correct) {
      if (Correct > Best) {
        Best = Correct;
        L.Family = K;
      }
    };
    if (L.IntraLoop)
      Consider(StrategyKind::IntraLoop,
               L.IntraLoop->at(Spec.MaxStates).Correct);
    if (L.Exit)
      Consider(StrategyKind::LoopExit, L.Exit->at(Spec.MaxStates).Correct);
    if (L.Correlated)
      Consider(StrategyKind::Correlated,
               L.Correlated->at(Spec.MaxStates).Correct);
  };
  parallelForJobs(Spec.Jobs, Out.size(), SearchBranch);
  return Out;
}

} // namespace

std::vector<BranchLadders>
bpcr::searchBranchLadders(const ProgramAnalysis &PA, const ProfileSet &Profiles,
                          const ColumnarTrace &CT,
                          const LadderSearchSpec &Spec) {
  return searchLadders(PA, Profiles, CT, Spec, nullptr);
}

std::vector<BranchLadders>
bpcr::searchBranchLadders(const ProgramAnalysis &PA, const ProfileSet &Profiles,
                          const ColumnarTrace &CT,
                          const LadderSearchSpec &Spec,
                          const BranchPathProfiles &Paths) {
  return searchLadders(PA, Profiles, CT, Spec, &Paths);
}

std::vector<BranchStrategy>
bpcr::selectStrategies(const ProgramAnalysis &PA, const ProfileSet &Profiles,
                       const ColumnarTrace &CT, const StrategyOptions &Opts,
                       SelectionTrace *TraceOut,
                       const BranchPathProfiles *Paths) {
  LadderSearchSpec Spec;
  Spec.MaxStates = Opts.MaxStates;
  Spec.MinBudget = Opts.MaxStates; // one search per family on a cold cache
  Spec.MinExecutions = Opts.MinExecutions;
  Spec.Exhaustive = Opts.Exhaustive;
  Spec.NodeBudget = Opts.NodeBudget;
  Spec.Jobs = Opts.Jobs;
  Spec.Proofs = Opts.Proofs;
  std::vector<BranchLadders> Ladders =
      searchLadders(PA, Profiles, CT, Spec, Paths);

  if (TraceOut) {
    TraceOut->PerBranch.clear();
    TraceOut->PerBranch.resize(PA.numBranches());
  }
  Registry &Obs = Registry::global();
  const bool ObsOn = Obs.enabled();
  if (ObsOn) {
    uint64_t PathCandidates = 0;
    for (const BranchLadders &L : Ladders)
      PathCandidates += L.PathCandidates;
    Obs.counter("search.correlated.path_candidates").add(PathCandidates);
    Obs.counter("strategy.branches_considered").add(PA.numBranches());
  }

  std::vector<BranchStrategy> Out(Ladders.size());
  for (size_t Id = 0; Id < Ladders.size(); ++Id) {
    const BranchLadders &L = Ladders[Id];
    BranchStrategy &S = Out[Id];
    S.BranchId = static_cast<int32_t>(Id);
    S.Total = L.Total;
    S.Correct = L.ProfileCorrect;

    // Records every family scored; the chosen one takes the top rung.
    auto Candidate = [&](StrategyKind K, uint64_t Correct, uint64_t Total,
                         unsigned States) {
      if (TraceOut)
        TraceOut->PerBranch[Id].push_back({strategyKindName(K), Correct,
                                           Total, States, K == L.Family});
      if (K != L.Family || K == StrategyKind::Profile)
        return false;
      S.Kind = K;
      S.Correct = Correct;
      S.Total = Total;
      S.States = States;
      return true;
    };
    Candidate(StrategyKind::Profile, S.Correct, S.Total, 1);
    if (L.IntraLoop) {
      const SuffixMachine &M = L.IntraLoop->at(Opts.MaxStates);
      if (Candidate(StrategyKind::IntraLoop, M.Correct, M.Total,
                    M.numStates()))
        S.Machine = std::make_unique<SuffixMachine>(M);
    }
    if (L.Exit) {
      const ExitChainMachine &M = L.Exit->at(Opts.MaxStates);
      if (Candidate(StrategyKind::LoopExit, M.Correct, M.Total,
                    M.numStates()))
        S.Machine = std::make_unique<ExitChainMachine>(M);
    }
    if (L.Correlated) {
      const CorrelatedMachine &CM = L.Correlated->at(Opts.MaxStates);
      if (Candidate(StrategyKind::Correlated, CM.Correct, CM.Total,
                    CM.numStates()))
        S.Corr = std::make_unique<CorrelatedMachine>(CM);
    }

    if (!ObsOn || L.Skipped == BranchLadders::Skip::Proven)
      continue;
    if (L.Skipped == BranchLadders::Skip::Cold) {
      Obs.counter("strategy.pruned.cold").inc();
      continue;
    }
    if (L.Recursive)
      Obs.counter("strategy.pruned.recursive").inc();
    Obs.counter(std::string("strategy.chosen.") + strategyKindName(S.Kind))
        .inc();
  }
  return Out;
}

PredictionStats
bpcr::totalStrategyStats(const std::vector<BranchStrategy> &S) {
  PredictionStats Stats;
  for (const BranchStrategy &B : S) {
    Stats.Predictions += B.Total;
    Stats.Mispredictions += B.Total - B.Correct;
  }
  return Stats;
}
