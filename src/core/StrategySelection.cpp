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

std::vector<BranchStrategy>
bpcr::selectStrategies(const ProgramAnalysis &PA, const ProfileSet &Profiles,
                       const ColumnarTrace &CT, const StrategyOptions &Opts,
                       SelectionTrace *TraceOut) {
  assert(Opts.MaxStates >= 2 && "strategy selection needs a state budget");
  if (TraceOut) {
    TraceOut->PerBranch.clear();
    TraceOut->PerBranch.resize(PA.numBranches());
  }
  const unsigned PathLen = std::min<unsigned>(Opts.MaxStates, 4);

  // Collect correlated-path candidates for every eligible branch, then
  // profile them in a single trace pass.
  std::vector<std::vector<BranchPath>> Candidates(PA.numBranches());
  for (uint32_t Id = 0; Id < PA.numBranches(); ++Id) {
    const BranchProfile &P = Profiles.branch(static_cast<int32_t>(Id));
    if (P.executions() < Opts.MinExecutions)
      continue;
    if (Opts.Proofs && Opts.Proofs->proven(static_cast<int32_t>(Id)))
      continue; // proven branches collect no paths: their search is pruned
    const BranchClass &C = PA.classOf(static_cast<int32_t>(Id));
    if (C.Kind != BranchKind::NonLoop && !Opts.CorrelatedForLoopBranches)
      continue;
    Candidates[Id] = PA.backwardPaths(static_cast<int32_t>(Id), PathLen,
                                      /*ThroughJumps=*/true);
  }
  std::vector<PathProfile> PathProfiles = profilePaths(Candidates, CT, PathLen);

  Registry &Obs = Registry::global();
  const bool ObsOn = Obs.enabled();
  if (ObsOn) {
    uint64_t PathCandidates = 0;
    for (const std::vector<BranchPath> &C : Candidates)
      PathCandidates += C.size();
    Obs.counter("search.correlated.path_candidates").add(PathCandidates);
    Obs.counter("strategy.branches_considered").add(PA.numBranches());
  }

  // Score branches in parallel: each branch's candidates are independent,
  // results land in slots indexed by branch id, and the machine searches
  // go through the memoized ladder cache (MinBudget == MaxStates, so a
  // cold cache pays exactly one search per family, like the serial code
  // did). Identical pattern tables across branches now share one search.
  std::vector<BranchStrategy> Out(PA.numBranches());
  SearchCache &Cache = SearchCache::global();

  auto ScoreBranch = [&](size_t Idx) {
    uint32_t Id = static_cast<uint32_t>(Idx);
    const BranchProfile &P = Profiles.branch(static_cast<int32_t>(Id));
    BranchStrategy S;
    S.BranchId = static_cast<int32_t>(Id);
    S.Kind = StrategyKind::Profile;
    S.Total = P.executions();
    S.Correct = P.executions() - P.profileMispredictions();
    S.States = 1;

    auto RecordCandidate = [&](StrategyKind K, uint64_t Correct,
                               uint64_t Total, unsigned States) {
      if (TraceOut)
        TraceOut->PerBranch[Id].push_back(
            {strategyKindName(K), Correct, Total, States, /*Chosen=*/false});
    };
    RecordCandidate(StrategyKind::Profile, S.Correct, S.Total, 1);
    auto MarkChosen = [&](const BranchStrategy &Final) {
      if (!TraceOut)
        return;
      for (CandidateScore &C : TraceOut->PerBranch[Id])
        if (C.Strategy == strategyKindName(Final.Kind)) {
          C.Chosen = true;
          break;
        }
    };

    // A branch proven unidirectional never consults its pattern table and
    // never enters the machine search: its profile prediction already gets
    // every execution right, so Correct == Total and no machine's strict
    // `>` comparison could win. The skip is therefore score-preserving.
    if (Opts.Proofs && Opts.Proofs->proven(static_cast<int32_t>(Id))) {
      if (ObsOn)
        Obs.counter("search.pruned_by_proof").inc();
      MarkChosen(S);
      Out[Idx] = std::move(S);
      return;
    }

    if (P.executions() < Opts.MinExecutions) {
      if (ObsOn)
        Obs.counter("strategy.pruned.cold").inc();
      MarkChosen(S);
      Out[Idx] = std::move(S);
      return;
    }

    const BranchClass &C = PA.classOf(static_cast<int32_t>(Id));
    bool LoopMachinesOk =
        !PA.isRecursive(PA.ref(static_cast<int32_t>(Id)).FuncIdx);

    if (!LoopMachinesOk) {
      // Fall through to the correlated candidates only.
      if (ObsOn)
        Obs.counter("strategy.pruned.recursive").inc();
    } else if (C.Kind == BranchKind::IntraLoop) {
      MachineOptions MO;
      MO.MaxStates = Opts.MaxStates;
      MO.MaxPatternLen = P.Table.maxBits();
      MO.Exhaustive = Opts.Exhaustive;
      MO.NodeBudget = Opts.NodeBudget;
      auto IL = Cache.intraLoopLadder(P.Table, MO,
                                      /*MinBudget=*/Opts.MaxStates);
      const SuffixMachine &M = IL->at(Opts.MaxStates);
      RecordCandidate(StrategyKind::IntraLoop, M.Correct, M.Total,
                      M.numStates());
      if (M.Correct > S.Correct) {
        S.Kind = StrategyKind::IntraLoop;
        S.Correct = M.Correct;
        S.Total = M.Total;
        S.States = M.numStates();
        S.Machine = std::make_unique<SuffixMachine>(M);
      }
    } else if (C.Kind == BranchKind::LoopExit) {
      auto EL = Cache.exitLadder(P.Table, Opts.MaxStates, !C.TakenExits);
      const ExitChainMachine &M = EL->at(Opts.MaxStates);
      RecordCandidate(StrategyKind::LoopExit, M.Correct, M.Total,
                      M.numStates());
      if (M.Correct > S.Correct) {
        S.Kind = StrategyKind::LoopExit;
        S.Correct = M.Correct;
        S.Total = M.Total;
        S.States = M.numStates();
        S.Machine = std::make_unique<ExitChainMachine>(M);
      }
    }

    if (!Candidates[Id].empty()) {
      CorrelatedOptions CO;
      CO.MaxStates = Opts.MaxStates;
      CO.MaxPathLen = PathLen;
      CO.Exhaustive = Opts.Exhaustive;
      CO.NodeBudget = Opts.NodeBudget;
      auto CL = Cache.correlatedLadder(static_cast<int32_t>(Id),
                                       PathProfiles[Id], CO,
                                       /*MinBudget=*/Opts.MaxStates);
      const CorrelatedMachine &CM = CL->at(Opts.MaxStates);
      RecordCandidate(StrategyKind::Correlated, CM.Correct, CM.Total,
                      CM.numStates());
      if (CM.Correct > S.Correct) {
        S.Kind = StrategyKind::Correlated;
        S.Correct = CM.Correct;
        S.Total = CM.Total;
        S.States = CM.numStates();
        S.Machine.reset();
        S.Corr = std::make_unique<CorrelatedMachine>(CM);
      }
    }

    if (ObsOn)
      Obs.counter(std::string("strategy.chosen.") +
                  strategyKindName(S.Kind))
          .inc();
    MarkChosen(S);
    Out[Idx] = std::move(S);
  };
  parallelForJobs(Opts.Jobs, Out.size(), ScoreBranch);
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
