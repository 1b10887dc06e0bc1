//===- tests/test_strategy.cpp - Strategy selection and size sweep --------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/LoopAwareProfiles.h"
#include "core/SizeSweep.h"
#include "core/StrategySelection.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace bpcr;

namespace {

struct Prepared {
  // Module behind a unique_ptr: ProgramAnalysis keeps a reference into it,
  // which must survive moves of this struct.
  std::unique_ptr<Module> M;
  ColumnarTrace T;
  std::unique_ptr<ProgramAnalysis> PA;
  std::unique_ptr<ProfileSet> Profiles;
};

Prepared prepare(size_t WorkloadIdx, uint64_t Events = 200'000) {
  Prepared P;
  P.M = std::make_unique<Module>();
  P.T = traceWorkloadColumnar(allWorkloads()[WorkloadIdx], 1, *P.M, Events);
  P.PA = std::make_unique<ProgramAnalysis>(*P.M);
  P.Profiles = std::make_unique<ProfileSet>(
      buildLoopAwareProfiles(*P.PA, P.T));
  return P;
}

} // namespace

TEST(StrategySelection, NeverWorseThanProfilePerBranch) {
  Prepared P = prepare(1); // c-compiler
  StrategyOptions Opts;
  Opts.MaxStates = 4;
  Opts.NodeBudget = 20'000;
  auto Strategies = selectStrategies(*P.PA, *P.Profiles, P.T, Opts);
  ASSERT_EQ(Strategies.size(), P.PA->numBranches());
  for (const BranchStrategy &S : Strategies) {
    const BranchProfile &BP = P.Profiles->branch(S.BranchId);
    uint64_t ProfCorrect = BP.executions() - BP.profileMispredictions();
    EXPECT_GE(S.Correct, ProfCorrect) << "branch " << S.BranchId;
    EXPECT_EQ(S.Total, BP.executions());
    EXPECT_LE(S.States, Opts.MaxStates);
    if (S.Kind == StrategyKind::Profile) {
      EXPECT_EQ(S.States, 1u);
    }
  }
}

TEST(StrategySelection, StateBudgetIsMonotone) {
  Prepared P = prepare(3); // ghostview
  uint64_t PrevCorrect = 0;
  for (unsigned N = 2; N <= 6; N += 2) {
    StrategyOptions Opts;
    Opts.MaxStates = N;
    Opts.NodeBudget = 20'000;
    auto Strategies = selectStrategies(*P.PA, *P.Profiles, P.T, Opts);
    PredictionStats Total = totalStrategyStats(Strategies);
    EXPECT_GE(Total.correct(), PrevCorrect) << "N=" << N;
    PrevCorrect = Total.correct();
  }
}

TEST(StrategySelection, ColdBranchesStayProfile) {
  Prepared P = prepare(0);
  StrategyOptions Opts;
  Opts.MaxStates = 4;
  Opts.MinExecutions = UINT64_MAX; // everything is "cold"
  auto Strategies = selectStrategies(*P.PA, *P.Profiles, P.T, Opts);
  for (const BranchStrategy &S : Strategies)
    EXPECT_EQ(S.Kind, StrategyKind::Profile);
}

TEST(StrategySelection, KindsMatchBranchClasses) {
  Prepared P = prepare(5); // prolog: all branch kinds appear
  StrategyOptions Opts;
  Opts.MaxStates = 4;
  Opts.NodeBudget = 20'000;
  auto Strategies = selectStrategies(*P.PA, *P.Profiles, P.T, Opts);
  for (const BranchStrategy &S : Strategies) {
    const BranchClass &C = P.PA->classOf(S.BranchId);
    switch (S.Kind) {
    case StrategyKind::IntraLoop:
      EXPECT_EQ(C.Kind, BranchKind::IntraLoop);
      EXPECT_NE(S.Machine, nullptr);
      break;
    case StrategyKind::LoopExit:
      EXPECT_EQ(C.Kind, BranchKind::LoopExit);
      EXPECT_NE(S.Machine, nullptr);
      break;
    case StrategyKind::Correlated:
      EXPECT_NE(S.Corr, nullptr);
      break;
    case StrategyKind::Profile:
      EXPECT_EQ(S.Machine, nullptr);
      EXPECT_EQ(S.Corr, nullptr);
      break;
    }
  }
}

TEST(StrategySelection, GhostviewFindsCorrelation) {
  // The ghostview dispatch cascade is built to correlate; the selection
  // must pick correlated machines for at least one branch and the total
  // must clearly beat profile.
  Prepared P = prepare(3);
  StrategyOptions Opts;
  Opts.MaxStates = 6;
  Opts.NodeBudget = 20'000;
  auto Strategies = selectStrategies(*P.PA, *P.Profiles, P.T, Opts);
  unsigned Correlated = 0;
  uint64_t ProfileMiss = 0, ChosenMiss = 0;
  for (const BranchStrategy &S : Strategies) {
    if (S.Kind == StrategyKind::Correlated)
      ++Correlated;
    ProfileMiss += P.Profiles->branch(S.BranchId).profileMispredictions();
    ChosenMiss += S.mispredicted();
  }
  EXPECT_GE(Correlated, 1u);
  EXPECT_LT(ChosenMiss, ProfileMiss);
}

TEST(StrategyKindNames, AreStable) {
  EXPECT_STREQ(strategyKindName(StrategyKind::Profile), "profile");
  EXPECT_STREQ(strategyKindName(StrategyKind::IntraLoop), "intra-loop");
  EXPECT_STREQ(strategyKindName(StrategyKind::LoopExit), "loop-exit");
  EXPECT_STREQ(strategyKindName(StrategyKind::Correlated), "correlated");
}

// -- Size sweep --------------------------------------------------------------

TEST(SizeSweep, StartsAtProfilePoint) {
  Prepared P = prepare(2); // compress
  SweepOptions Opts;
  Opts.MaxStates = 4;
  Opts.NodeBudget = 10'000;
  auto Points = computeSizeSweep(*P.PA, *P.Profiles, P.T, Opts);
  ASSERT_FALSE(Points.empty());
  EXPECT_DOUBLE_EQ(Points[0].SizeFactor, 1.0);
  EXPECT_EQ(Points[0].BranchId, -1);
  // The first point is the all-profile misprediction rate.
  uint64_t Miss = 0;
  for (uint32_t Id = 0; Id < P.PA->numBranches(); ++Id)
    Miss += P.Profiles->branch(static_cast<int32_t>(Id))
                .profileMispredictions();
  double Expected = 100.0 * static_cast<double>(Miss) /
                    static_cast<double>(P.Profiles->totalExecutions());
  EXPECT_NEAR(Points[0].MispredictPercent, Expected, 1e-9);
}

TEST(SizeSweep, MispredictionMonotoneDecreasing) {
  Prepared P = prepare(3);
  SweepOptions Opts;
  Opts.MaxStates = 5;
  Opts.NodeBudget = 10'000;
  auto Points = computeSizeSweep(*P.PA, *P.Profiles, P.T, Opts);
  for (size_t I = 1; I < Points.size(); ++I) {
    EXPECT_LE(Points[I].MispredictPercent,
              Points[I - 1].MispredictPercent + 1e-9);
    EXPECT_GE(Points[I].SizeFactor, Points[I - 1].SizeFactor - 1e-9);
  }
}

TEST(SizeSweep, EveryStepNamesABranch) {
  Prepared P = prepare(4); // predict
  SweepOptions Opts;
  Opts.MaxStates = 4;
  Opts.NodeBudget = 10'000;
  auto Points = computeSizeSweep(*P.PA, *P.Profiles, P.T, Opts);
  for (size_t I = 1; I < Points.size(); ++I) {
    EXPECT_GE(Points[I].BranchId, 0);
    EXPECT_GE(Points[I].NewStates, 2u);
    EXPECT_LE(Points[I].NewStates, Opts.MaxStates);
  }
}

TEST(SizeSweep, SizeCapStopsTheSweep) {
  Prepared P = prepare(5); // prolog
  SweepOptions Opts;
  Opts.MaxStates = 8;
  Opts.MaxSizeFactor = 1.5;
  Opts.NodeBudget = 10'000;
  auto Points = computeSizeSweep(*P.PA, *P.Profiles, P.T, Opts);
  // At most one point may exceed the cap (the one that crossed it).
  for (size_t I = 0; I + 1 < Points.size(); ++I)
    EXPECT_LE(Points[I].SizeFactor, 1.5);
}

TEST(SizeSweep, FirstStepsGiveTheBiggestDrops) {
  // The paper: "The first states reduce the misprediction rate
  // substantially, later ones increase the [code size] considerably."
  Prepared P = prepare(3);
  SweepOptions Opts;
  Opts.MaxStates = 6;
  Opts.NodeBudget = 10'000;
  auto Points = computeSizeSweep(*P.PA, *P.Profiles, P.T, Opts);
  if (Points.size() >= 5) {
    double FirstDrop = Points[0].MispredictPercent -
                       Points[2].MispredictPercent;
    double LastDrop = Points[Points.size() - 3].MispredictPercent -
                      Points[Points.size() - 1].MispredictPercent;
    EXPECT_GE(FirstDrop, LastDrop);
  }
}

TEST(SizeSweep, GrowsOnlyMachinesSelectionWouldBuild) {
  // Abalone's negamax is recursive, so selection gives its loop branches no
  // loop machine. The sweep must not grow one either: every branch it grows
  // gets a machine from selection at the same budget, and a loop branch in
  // a recursive function only a correlated one.
  Prepared P = prepare(0); // abalone
  SweepOptions SO;
  SO.MaxStates = 6;
  SO.NodeBudget = 50'000;
  auto Points = computeSizeSweep(*P.PA, *P.Profiles, P.T, SO);
  StrategyOptions StO;
  StO.MaxStates = SO.MaxStates;
  StO.NodeBudget = SO.NodeBudget;
  StO.MinExecutions = SO.MinExecutions;
  auto Strategies = selectStrategies(*P.PA, *P.Profiles, P.T, StO);

  auto RecursiveLoopBranch = [&](int32_t Id) {
    return P.PA->classOf(Id).Kind != BranchKind::NonLoop &&
           P.PA->isRecursive(P.PA->ref(Id).FuncIdx);
  };
  unsigned RecursiveLoopBranches = 0;
  for (uint32_t Id = 0; Id < P.PA->numBranches(); ++Id)
    RecursiveLoopBranches += RecursiveLoopBranch(static_cast<int32_t>(Id));
  ASSERT_GE(RecursiveLoopBranches, 3u);

  ASSERT_GE(Points.size(), 2u);
  for (size_t I = 1; I < Points.size(); ++I) {
    const int32_t B = Points[I].BranchId;
    const BranchStrategy &S = Strategies[static_cast<size_t>(B)];
    EXPECT_NE(S.Kind, StrategyKind::Profile) << "step " << I << " branch " << B;
    if (RecursiveLoopBranch(B)) {
      EXPECT_EQ(S.Kind, StrategyKind::Correlated)
          << "step " << I << " branch " << B;
    }
  }
}

// -- Per-branch machine search -----------------------------------------------

TEST(LadderSearch, NoLoopLaddersInRecursiveFunctions) {
  Prepared P = prepare(0); // abalone
  LadderSearchSpec Spec;
  Spec.MaxStates = 6;
  Spec.NodeBudget = 50'000;
  auto Ladders = searchBranchLadders(*P.PA, *P.Profiles, P.T, Spec);
  ASSERT_EQ(Ladders.size(), P.PA->numBranches());
  unsigned Recursive = 0;
  for (uint32_t Id = 0; Id < P.PA->numBranches(); ++Id) {
    const BranchLadders &L = Ladders[Id];
    if (L.Skipped != BranchLadders::Skip::None)
      continue;
    const int32_t B = static_cast<int32_t>(Id);
    EXPECT_EQ(L.Recursive, P.PA->isRecursive(P.PA->ref(B).FuncIdx));
    if (!L.Recursive)
      continue;
    ++Recursive;
    EXPECT_EQ(L.IntraLoop, nullptr) << "branch " << Id;
    EXPECT_EQ(L.Exit, nullptr) << "branch " << Id;
    EXPECT_TRUE(L.Family == StrategyKind::Profile ||
                L.Family == StrategyKind::Correlated)
        << "branch " << Id;
  }
  EXPECT_GE(Recursive, 3u);
}

TEST(LadderSearch, SelectionTakesTheSearchedFamily) {
  Prepared P = prepare(3); // ghostview
  StrategyOptions Opts;
  Opts.MaxStates = 5;
  Opts.NodeBudget = 20'000;
  auto Strategies = selectStrategies(*P.PA, *P.Profiles, P.T, Opts);
  LadderSearchSpec Spec;
  Spec.MaxStates = Opts.MaxStates;
  Spec.MinBudget = Opts.MaxStates;
  Spec.NodeBudget = Opts.NodeBudget;
  auto Ladders = searchBranchLadders(*P.PA, *P.Profiles, P.T, Spec);
  ASSERT_EQ(Strategies.size(), Ladders.size());
  for (size_t Id = 0; Id < Ladders.size(); ++Id) {
    EXPECT_EQ(Strategies[Id].Kind, Ladders[Id].Family) << "branch " << Id;
    EXPECT_EQ(Strategies[Id].Correct,
              Ladders[Id].correctAt(Opts.MaxStates))
        << "branch " << Id;
  }
}
