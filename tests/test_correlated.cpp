//===- tests/test_correlated.cpp - Correlated path machine tests ----------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "TraceTestUtil.h"

#include "core/CorrelatedMachine.h"
#include "support/Rng.h"
#include "trace/ColumnarTrace.h"

#include <gtest/gtest.h>

using namespace bpcr;

namespace {

BranchPath path(std::initializer_list<std::pair<int32_t, bool>> Steps) {
  BranchPath P;
  for (auto [Id, Taken] : Steps)
    P.Steps.push_back({Id, Taken});
  return P;
}

/// Branch 2's outcome equals branch 0's previous outcome; branch 1 sits in
/// between as noise.
ColumnarTrace copyThroughNoise(size_t N, uint64_t Seed) {
  Rng G(Seed);
  ColumnarTrace T;
  for (size_t I = 0; I < N; ++I) {
    bool A = G.chance(1, 2);
    T.append(0, A);
    T.append(1, G.chance(1, 4));
    T.append(2, A);
  }
  return T;
}

} // namespace

TEST(PathProfiler, CountsLongestMatchingPath) {
  // Candidates for branch 2: [(1,*)] and [(0,*),(1,*)].
  std::vector<std::vector<BranchPath>> Cands(3);
  Cands[2] = {path({{1, true}}),
              path({{1, false}}),
              path({{0, true}, {1, true}}),
              path({{0, true}, {1, false}}),
              path({{0, false}, {1, true}}),
              path({{0, false}, {1, false}})};
  ColumnarTrace T = copyThroughNoise(1000, 3);
  auto Profiles = profilePaths(Cands, T, 2);
  // Every execution of branch 2 is preceded by (0,x),(1,y): the longest
  // candidates match, so nothing lands in shorter ones or unmatched.
  EXPECT_EQ(Profiles[2].Unmatched.total(), 0u);
  uint64_t Total = 0;
  for (const auto &[Key, C] : Profiles[2].PerPath) {
    EXPECT_EQ(Key.size(), 2u);
    Total += C.total();
  }
  EXPECT_EQ(Total, 1000u);
}

TEST(PathProfiler, UnmatchedBucketCatchesTheRest) {
  std::vector<std::vector<BranchPath>> Cands(3);
  Cands[2] = {path({{1, true}})}; // only one direction covered
  ColumnarTrace T = copyThroughNoise(1000, 5);
  auto Profiles = profilePaths(Cands, T, 2);
  uint64_t Matched = 0;
  for (const auto &[Key, C] : Profiles[2].PerPath)
    Matched += C.total();
  EXPECT_EQ(Matched + Profiles[2].Unmatched.total(), 1000u);
  EXPECT_GT(Profiles[2].Unmatched.total(), 0u);
}

TEST(CorrelatedMachine, SolvesCopyBranch) {
  std::vector<BranchPath> Cands = {
      path({{0, true}, {1, true}}),   path({{0, true}, {1, false}}),
      path({{0, false}, {1, true}}),  path({{0, false}, {1, false}}),
      path({{1, true}}),              path({{1, false}}),
  };
  ColumnarTrace T = copyThroughNoise(2000, 7);
  CorrelatedOptions Opts;
  Opts.MaxStates = 5; // 4 paths + catch-all
  Opts.MaxPathLen = 2;
  CorrelatedMachine M = test::fitCorrelatedMachine(2, Cands, T, Opts);
  PredictionStats S = evaluateCorrelatedMachine(M, T);
  // Branch 2 is fully determined by the (0,x) part of the path.
  EXPECT_LE(S.mispredictionPercent(), 1.0);
  EXPECT_LE(M.numStates(), 5u);
}

TEST(CorrelatedMachine, BudgetTwoUsesBestSinglePath) {
  std::vector<BranchPath> Cands = {path({{1, true}}), path({{1, false}})};
  ColumnarTrace T;
  // Branch 2 is taken exactly when branch 1 was taken.
  Rng G(9);
  for (int I = 0; I < 1000; ++I) {
    bool A = G.chance(1, 3);
    T.append(1, A);
    T.append(2, A);
  }
  CorrelatedOptions Opts;
  Opts.MaxStates = 2;
  Opts.MaxPathLen = 1;
  CorrelatedMachine M = test::fitCorrelatedMachine(2, Cands, T, Opts);
  ASSERT_EQ(M.Paths.size(), 1u);
  // One path plus the default suffices: (1,T)->T, default->N (or the
  // mirror image).
  PredictionStats S = evaluateCorrelatedMachine(M, T);
  EXPECT_EQ(S.Mispredictions, 0u);
}

TEST(CorrelatedMachine, AssignmentScoreMatchesEvaluation) {
  std::vector<BranchPath> Cands = {
      path({{0, true}, {1, true}}),  path({{0, true}, {1, false}}),
      path({{0, false}, {1, true}}), path({{0, false}, {1, false}}),
      path({{1, true}}),             path({{1, false}}),
  };
  ColumnarTrace T = copyThroughNoise(1500, 11);
  CorrelatedOptions Opts;
  Opts.MaxStates = 4;
  Opts.MaxPathLen = 2;
  CorrelatedMachine M = test::fitCorrelatedMachine(2, Cands, T, Opts);
  PredictionStats S = evaluateCorrelatedMachine(M, T);
  EXPECT_EQ(S.Predictions, M.Total);
  EXPECT_EQ(S.Mispredictions, M.Total - M.Correct);
}

TEST(CorrelatedMachine, MatchPrefersLongestPath) {
  CorrelatedMachine M;
  M.BranchId = 2;
  M.MaxPathLen = 2;
  M.Paths = {path({{1, true}}), path({{0, true}, {1, true}})};
  M.PathPred = {0, 1};
  M.DefaultPred = 0;
  std::vector<PathStep> Recent = {{0, true}, {1, true}};
  EXPECT_EQ(M.match(Recent), 1);
  Recent = {{0, false}, {1, true}};
  EXPECT_EQ(M.match(Recent), 0);
  Recent = {{0, true}, {1, false}};
  EXPECT_EQ(M.match(Recent), -1);
}

TEST(CorrelatedMachine, InterveningEventBreaksMatch) {
  CorrelatedMachine M;
  M.BranchId = 5;
  M.MaxPathLen = 2;
  M.Paths = {path({{0, true}})};
  M.PathPred = {1};
  M.DefaultPred = 0;
  // (0,T) followed by an unrelated event: the strict suffix no longer
  // starts with (0,T).
  std::vector<PathStep> Recent = {{0, true}, {7, false}};
  EXPECT_EQ(M.match(Recent), -1);
}

TEST(CorrelatedMachine, StateBudgetMonotone) {
  std::vector<BranchPath> Cands = {
      path({{0, true}, {1, true}}),  path({{0, true}, {1, false}}),
      path({{0, false}, {1, true}}), path({{0, false}, {1, false}}),
      path({{1, true}}),             path({{1, false}}),
  };
  ColumnarTrace T = copyThroughNoise(1500, 13);
  uint64_t Prev = 0;
  for (unsigned States = 2; States <= 6; ++States) {
    CorrelatedOptions Opts;
    Opts.MaxStates = States;
    Opts.MaxPathLen = 2;
    CorrelatedMachine M = test::fitCorrelatedMachine(2, Cands, T, Opts);
    EXPECT_GE(M.Correct, Prev);
    Prev = M.Correct;
  }
}

TEST(CorrelatedMachine, EncodeDecodeRoundTrip) {
  BranchPath P = path({{5, true}, {3, false}, {9, true}});
  SymbolString S = encodePathSteps(P);
  ASSERT_EQ(S.size(), 3u);
  EXPECT_EQ(S[0], (5u << 1) | 1u);
  EXPECT_EQ(S[1], (3u << 1) | 0u);
  EXPECT_EQ(S[2], (9u << 1) | 1u);
}
