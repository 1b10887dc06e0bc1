//===- core/SizeSweep.cpp -------------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/SizeSweep.h"

#include "core/Replication.h"
#include "obs/TraceSpans.h"

#include <algorithm>
#include <map>

using namespace bpcr;

namespace {

/// Identifies a natural loop across functions.
using LoopKey = std::pair<uint32_t, int32_t>; // (function, loop index)

/// One branch's machine ladder: best training-correct per state count, the
/// family it uses, and the per-size correlated cost.
struct Ladder {
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

std::vector<SweepPoint> sweep(const ProgramAnalysis &PA,
                              const ProfileSet &Profiles,
                              const ColumnarTrace &CT, const SweepOptions &Opts,
                              const BranchPathProfiles *Paths) {
  Span SweepSpan("sweep.compute", "sweep");
  const Module &Mod = PA.module();
  const uint64_t OrigSize = Mod.instructionCount();
  const uint64_t TotalExec = Profiles.totalExecutions();
  SweepSpan.arg("branches", static_cast<uint64_t>(PA.numBranches()));

  LadderSearchSpec Spec;
  Spec.MaxStates = Opts.MaxStates;
  Spec.MinBudget = 2; // every rung is a candidate step
  Spec.MinExecutions = Opts.MinExecutions;
  Spec.NodeBudget = Opts.NodeBudget;
  Spec.Jobs = Opts.Jobs;
  Spec.Proofs = Opts.Proofs;
  std::vector<BranchLadders> Searched =
      Paths ? searchBranchLadders(PA, Profiles, CT, Spec, *Paths)
            : searchBranchLadders(PA, Profiles, CT, Spec);

  // Each branch's chosen-family ladder, made monotone: a deeper machine
  // that scores lower is never worth growing into.
  std::vector<Ladder> Ladders(Searched.size());
  for (size_t I = 0; I < Searched.size(); ++I) {
    const BranchLadders &B = Searched[I];
    Ladder &L = Ladders[I];
    const int32_t Id = static_cast<int32_t>(I);
    L.Kind = B.Family;
    L.Correct.assign(Opts.MaxStates + 1, 0);
    L.Correct[1] = B.ProfileCorrect;
    L.CorrCost.assign(Opts.MaxStates + 1, 0);
    for (unsigned N = 2; N <= Opts.MaxStates; ++N) {
      L.Correct[N] = std::max(B.correctAt(N), L.Correct[N - 1]);
      if (L.Kind == StrategyKind::Correlated)
        L.CorrCost[N] = correlatedReplicationCost(B.Correlated->at(N), PA);
    }
    if (L.Kind == StrategyKind::IntraLoop ||
        L.Kind == StrategyKind::LoopExit) {
      const BranchRef &R = PA.ref(Id);
      const BranchClass &C = PA.classOf(Id);
      L.Loop = {R.FuncIdx, C.LoopIdx};
      L.LoopSize = loopInstructionCount(
          Mod.Functions[R.FuncIdx],
          PA.loopInfoFor(Id).loops()[static_cast<size_t>(C.LoopIdx)]);
    }
  }

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
    const int32_t Grown = static_cast<int32_t>(BestIdx);
    StepSpan.arg("branch", static_cast<int64_t>(Grown));
    StepSpan.arg("states", static_cast<uint64_t>(BestTarget));
    StepSpan.arg("size_factor", Size);
    Points.push_back({Size, CurrentMispredict(), Grown, BestTarget});
    if (Size > Opts.MaxSizeFactor)
      break;
  }
  SweepSpan.arg("points", static_cast<uint64_t>(Points.size()));
  return Points;
}

} // namespace

std::vector<SweepPoint> bpcr::computeSizeSweep(const ProgramAnalysis &PA,
                                               const ProfileSet &Profiles,
                                               const ColumnarTrace &CT,
                                               const SweepOptions &Opts) {
  return sweep(PA, Profiles, CT, Opts, nullptr);
}

std::vector<SweepPoint> bpcr::computeSizeSweep(const ProgramAnalysis &PA,
                                               const ProfileSet &Profiles,
                                               const ColumnarTrace &CT,
                                               const SweepOptions &Opts,
                                               const BranchPathProfiles &Paths) {
  return sweep(PA, Profiles, CT, Opts, &Paths);
}
