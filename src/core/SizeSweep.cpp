//===- core/SizeSweep.cpp -------------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/SizeSweep.h"

#include "core/CorrelatedMachine.h"
#include "core/MachineSearch.h"
#include "core/Replication.h"
#include "core/SearchCache.h"
#include "obs/Metrics.h"
#include "obs/TraceSpans.h"
#include "sa/Dataflow.h"
#include "support/ThreadPool.h"
#include "trace/ColumnarTrace.h"

#include <algorithm>
#include <map>

using namespace bpcr;

namespace {

/// Identifies a natural loop across functions.
using LoopKey = std::pair<uint32_t, int32_t>; // (function, loop index)

/// One branch's machine ladder: best training-correct per state count, the
/// family it uses, and the per-size correlated cost.
struct Ladder {
  int32_t BranchId = -1;
  StrategyKind Kind = StrategyKind::Profile;
  /// Correct[n] for n states, n = 1..MaxStates (index 0 unused).
  std::vector<uint64_t> Correct;
  /// For the Correlated family: estimated added instructions per size.
  std::vector<uint64_t> CorrCost;
  /// For loop families: the loop this branch's copies multiply.
  LoopKey Loop{UINT32_MAX, -1};
  uint64_t LoopSize = 0;
  unsigned CurStates = 1;
};

} // namespace

std::vector<SweepPoint> bpcr::computeSizeSweep(const ProgramAnalysis &PA,
                                               const ProfileSet &Profiles,
                                               const ColumnarTrace &CT,
                                               const SweepOptions &Opts) {
  Span SweepSpan("sweep.compute", "sweep");
  const Module &Mod = PA.module();
  const uint64_t OrigSize = Mod.instructionCount();
  const uint64_t TotalExec = Profiles.totalExecutions();
  SweepSpan.arg("branches", static_cast<uint64_t>(PA.numBranches()));

  unsigned PathLen = std::min<unsigned>(4, Opts.MaxStates);

  // Batch path profiles for the correlated family.
  std::vector<std::vector<BranchPath>> Candidates(PA.numBranches());
  for (uint32_t Id = 0; Id < PA.numBranches(); ++Id) {
    const BranchProfile &P = Profiles.branch(static_cast<int32_t>(Id));
    if (P.executions() < Opts.MinExecutions)
      continue;
    if (Opts.Proofs && Opts.Proofs->proven(static_cast<int32_t>(Id)))
      continue;
    Candidates[Id] = PA.backwardPaths(static_cast<int32_t>(Id), PathLen,
                                      /*ThroughJumps=*/true);
  }
  std::vector<PathProfile> Paths = profilePaths(Candidates, CT, PathLen);

  // Build ladders, one independent task per branch. Each branch's whole
  // ladder comes from the memoized downward-fill search (one deep run
  // fills every rung its winner covers), replacing the old probe-then-
  // re-search-per-rung loop; results land in slots indexed by branch id,
  // so the outcome is identical for any worker count.
  std::vector<Ladder> Ladders(PA.numBranches());
  SearchCache &Cache = SearchCache::global();
  auto BuildLadder = [&](size_t Idx) {
    uint32_t Id = static_cast<uint32_t>(Idx);
    const BranchProfile &P = Profiles.branch(static_cast<int32_t>(Id));
    Ladder &L = Ladders[Idx];
    L.BranchId = static_cast<int32_t>(Id);
    L.Correct.assign(Opts.MaxStates + 1, 0);
    L.Correct[1] = P.executions() - P.profileMispredictions();
    L.CorrCost.assign(Opts.MaxStates + 1, 0);

    // Proven-unidirectional branches keep a flat ladder: the profile rung
    // already predicts every execution, so deeper rungs cannot gain and
    // the ladder search (SearchCache stays untouched) is skipped.
    if (Opts.Proofs && Opts.Proofs->proven(static_cast<int32_t>(Id))) {
      if (Registry::global().enabled())
        Registry::global().counter("search.pruned_by_proof").inc();
      for (unsigned N = 2; N <= Opts.MaxStates; ++N)
        L.Correct[N] = L.Correct[1];
      return;
    }

    if (P.executions() < Opts.MinExecutions) {
      for (unsigned N = 2; N <= Opts.MaxStates; ++N)
        L.Correct[N] = L.Correct[1];
      return;
    }

    const BranchClass &C = PA.classOf(static_cast<int32_t>(Id));

    // Full ladders for every applicable family; the deepest rung doubles
    // as the family-decision probe.
    std::shared_ptr<const IntraLoopLadder> IL;
    std::shared_ptr<const ExitLadder> EL;
    std::shared_ptr<const CorrelatedLadder> CL;
    uint64_t BestLoopCorrect = 0;
    uint64_t BestCorrCorrect = 0;
    if (C.Kind == BranchKind::IntraLoop) {
      MachineOptions MO;
      MO.MaxStates = Opts.MaxStates;
      MO.NodeBudget = Opts.NodeBudget;
      IL = Cache.intraLoopLadder(P.Table, MO, /*MinBudget=*/2);
      BestLoopCorrect = IL->at(Opts.MaxStates).Correct;
    } else if (C.Kind == BranchKind::LoopExit) {
      EL = Cache.exitLadder(P.Table, Opts.MaxStates, !C.TakenExits);
      BestLoopCorrect = EL->at(Opts.MaxStates).Correct;
    }
    if (!Candidates[Id].empty()) {
      CorrelatedOptions CO;
      CO.MaxStates = Opts.MaxStates;
      CO.MaxPathLen = PathLen;
      CO.NodeBudget = Opts.NodeBudget;
      CL = Cache.correlatedLadder(L.BranchId, Paths[Id], CO, /*MinBudget=*/2);
      BestCorrCorrect = CL->at(Opts.MaxStates).Correct;
    }

    bool UseLoopFamily = (C.Kind != BranchKind::NonLoop) &&
                         BestLoopCorrect >= BestCorrCorrect &&
                         BestLoopCorrect > L.Correct[1];
    bool UseCorrFamily =
        !UseLoopFamily && BestCorrCorrect > L.Correct[1];

    if (UseLoopFamily) {
      L.Kind = (C.Kind == BranchKind::IntraLoop) ? StrategyKind::IntraLoop
                                                 : StrategyKind::LoopExit;
      const BranchRef &R = PA.ref(L.BranchId);
      L.Loop = {R.FuncIdx, C.LoopIdx};
      L.LoopSize = loopInstructionCount(
          Mod.Functions[R.FuncIdx],
          PA.loopInfoFor(L.BranchId).loops()[static_cast<size_t>(C.LoopIdx)]);
      for (unsigned N = 2; N <= Opts.MaxStates; ++N) {
        uint64_t Corr = C.Kind == BranchKind::IntraLoop
                            ? IL->at(N).Correct
                            : EL->at(N).Correct;
        L.Correct[N] = std::max(Corr, L.Correct[N - 1]);
      }
    } else if (UseCorrFamily) {
      L.Kind = StrategyKind::Correlated;
      for (unsigned N = 2; N <= Opts.MaxStates; ++N) {
        const CorrelatedMachine &CM = CL->at(N);
        L.Correct[N] = std::max(CM.Correct, L.Correct[N - 1]);
        L.CorrCost[N] = correlatedReplicationCost(CM, PA);
      }
    } else {
      for (unsigned N = 2; N <= Opts.MaxStates; ++N)
        L.Correct[N] = L.Correct[1];
    }
  };
  parallelForJobs(Opts.Jobs, Ladders.size(), BuildLadder);

  // Greedy sweep.
  std::map<LoopKey, std::vector<size_t>> LoopMembers;
  for (size_t I = 0; I < Ladders.size(); ++I)
    if (Ladders[I].Kind == StrategyKind::IntraLoop ||
        Ladders[I].Kind == StrategyKind::LoopExit)
      LoopMembers[Ladders[I].Loop].push_back(I);

  auto LoopStateProduct = [&](const LoopKey &K, size_t Exclude,
                              unsigned Override) -> uint64_t {
    uint64_t Prod = 1;
    for (size_t I : LoopMembers[K])
      Prod *= (I == Exclude) ? Override : Ladders[I].CurStates;
    return Prod;
  };

  auto CurrentSize = [&]() -> double {
    uint64_t Size = OrigSize;
    for (const auto &[K, Members] : LoopMembers) {
      uint64_t Prod = 1;
      for (size_t I : Members)
        Prod *= Ladders[I].CurStates;
      Size += Ladders[Members.front()].LoopSize * (Prod - 1);
    }
    for (const Ladder &L : Ladders)
      if (L.Kind == StrategyKind::Correlated)
        Size += L.CorrCost[L.CurStates];
    return static_cast<double>(Size) / static_cast<double>(OrigSize);
  };

  auto CurrentMispredict = [&]() -> double {
    uint64_t Correct = 0;
    for (const Ladder &L : Ladders)
      Correct += L.Correct[L.CurStates];
    if (TotalExec == 0)
      return 0.0;
    return 100.0 * static_cast<double>(TotalExec - Correct) /
           static_cast<double>(TotalExec);
  };

  std::vector<SweepPoint> Points;
  Points.push_back({CurrentSize(), CurrentMispredict(), -1, 1});

  constexpr unsigned MaxSteps = 500;
  for (unsigned Step = 0; Step < MaxSteps; ++Step) {
    Span StepSpan("sweep.point", "sweep");
    StepSpan.arg("step", static_cast<uint64_t>(Step));
    double BestRatio = 0.0;
    size_t BestIdx = SIZE_MAX;
    unsigned BestTarget = 0;
    for (size_t I = 0; I < Ladders.size(); ++I) {
      Ladder &L = Ladders[I];
      // The next level with a strict gain.
      for (unsigned Target = L.CurStates + 1; Target <= Opts.MaxStates;
           ++Target) {
        uint64_t Gain = L.Correct[Target] - L.Correct[L.CurStates];
        if (Gain == 0)
          continue;
        double Cost = 1.0;
        if (L.Kind == StrategyKind::IntraLoop ||
            L.Kind == StrategyKind::LoopExit) {
          uint64_t Before = LoopStateProduct(L.Loop, I, L.CurStates);
          uint64_t After = LoopStateProduct(L.Loop, I, Target);
          Cost = static_cast<double>(L.LoopSize) *
                 static_cast<double>(After - Before);
        } else if (L.Kind == StrategyKind::Correlated) {
          Cost = static_cast<double>(L.CorrCost[Target] -
                                     L.CorrCost[L.CurStates]);
        }
        Cost = std::max(Cost, 1.0);
        double Ratio = static_cast<double>(Gain) / Cost;
        if (Ratio > BestRatio) {
          BestRatio = Ratio;
          BestIdx = I;
          BestTarget = Target;
        }
        break; // evaluate only the next beneficial level per branch
      }
    }
    if (BestIdx == SIZE_MAX)
      break;

    Ladders[BestIdx].CurStates = BestTarget;
    double Size = CurrentSize();
    StepSpan.arg("branch", static_cast<int64_t>(Ladders[BestIdx].BranchId));
    StepSpan.arg("states", static_cast<uint64_t>(BestTarget));
    StepSpan.arg("size_factor", Size);
    Points.push_back(
        {Size, CurrentMispredict(), Ladders[BestIdx].BranchId, BestTarget});
    if (Size > Opts.MaxSizeFactor)
      break;
  }
  SweepSpan.arg("points", static_cast<uint64_t>(Points.size()));
  return Points;
}
