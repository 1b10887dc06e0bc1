//===- tests/test_correlated.cpp - Correlated path machine tests ----------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ProfileTestUtil.h"
#include "TraceTestUtil.h"

#include "core/CorrelatedMachine.h"
#include "support/Rng.h"
#include "trace/ColumnarTrace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

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

namespace {

/// Brute-force reference for profilePaths: for every event of a branch,
/// try each suffix of the preceding MaxPathLen decisions, longest first,
/// against the branch's candidate set.
std::vector<PathProfile>
referencePathProfiles(const std::vector<std::vector<BranchPath>> &Cands,
                      const std::vector<test::Event> &Events,
                      unsigned MaxPathLen) {
  std::vector<std::map<SymbolString, DirCounts>> Hits(Cands.size());
  std::vector<std::set<SymbolString>> Keys(Cands.size());
  for (size_t B = 0; B < Cands.size(); ++B)
    for (const BranchPath &P : Cands[B])
      if (!P.Steps.empty() && P.Steps.size() <= MaxPathLen)
        Keys[B].insert(encodePathSteps(P));

  std::vector<PathProfile> Out(Cands.size());
  for (size_t I = 0; I < Events.size(); ++I) {
    auto [Id, Taken] = Events[I];
    if (Id < 0 || static_cast<size_t>(Id) >= Cands.size())
      continue;
    size_t B = static_cast<size_t>(Id);
    bool Matched = false;
    for (size_t L = std::min<size_t>(I, MaxPathLen); L >= 1 && !Matched;
         --L) {
      BranchPath Window;
      for (size_t K = I - L; K < I; ++K)
        Window.Steps.push_back({Events[K].first, Events[K].second});
      SymbolString Key = encodePathSteps(Window);
      if (Keys[B].count(Key)) {
        Hits[B][Key].record(Taken);
        Matched = true;
      }
    }
    if (!Matched)
      Out[B].Unmatched.record(Taken);
  }
  for (size_t B = 0; B < Cands.size(); ++B)
    for (const auto &[Key, Counts] : Hits[B])
      Out[B].PerPath.emplace_back(Key, Counts);
  return Out;
}

BranchPath randomPath(Rng &G, size_t Len, int32_t IdRange) {
  BranchPath P;
  for (size_t K = 0; K < Len; ++K)
    P.Steps.push_back({static_cast<int32_t>(G.below(
                           static_cast<uint64_t>(IdRange))),
                       G.chance(1, 2)});
  return P;
}

} // namespace

class PathProfilerDiff : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PathProfilerDiff, MatchesBruteForceLongestSuffix) {
  Rng G(GetParam() * 1009 + 17);
  const unsigned MaxPathLen = 1 + static_cast<unsigned>(G.below(5));
  const size_t NumBranches = 1 + G.below(6);
  // Trace ids run past NumBranches: those events feed only the window.
  const int32_t IdRange = static_cast<int32_t>(NumBranches + 2);

  std::vector<std::vector<BranchPath>> Cands(NumBranches);
  for (auto &List : Cands) {
    size_t N = G.below(9); // empty lists included
    for (size_t C = 0; C < N; ++C) {
      if (!List.empty() && G.chance(1, 4)) {
        List.push_back(List[G.below(List.size())]); // duplicate
        continue;
      }
      if (!List.empty() && G.chance(1, 4)) {
        // A proper suffix of an earlier candidate.
        BranchPath P = List[G.below(List.size())];
        if (P.Steps.size() > 1)
          P.Steps.erase(P.Steps.begin(),
                        P.Steps.begin() +
                            static_cast<long>(1 + G.below(P.Steps.size() - 1)));
        List.push_back(P);
        continue;
      }
      // Lengths 0 and past MaxPathLen are ignored by the profiler.
      List.push_back(randomPath(G, G.below(MaxPathLen + 3), IdRange));
    }
  }

  std::vector<test::Event> Events;
  size_t Len = G.below(600);
  for (size_t I = 0; I < Len; ++I)
    Events.emplace_back(static_cast<int32_t>(G.below(
                            static_cast<uint64_t>(IdRange))),
                        G.chance(1, 3));
  // Plant candidate paths so the longest ones actually occur.
  for (size_t Rep = 0; Rep < 20 && Len > 0; ++Rep) {
    size_t B = G.below(NumBranches);
    if (Cands[B].empty())
      continue;
    const BranchPath &P = Cands[B][G.below(Cands[B].size())];
    for (const PathStep &S : P.Steps)
      Events.emplace_back(S.BranchId, S.Taken);
    Events.emplace_back(static_cast<int32_t>(B), G.chance(1, 2));
  }

  // Walked in chunks (some shorter than MaxPathLen) on any number of
  // threads, the profile is the same.
  const std::vector<PathProfile> Want =
      referencePathProfiles(Cands, Events, MaxPathLen);
  const ColumnarTrace CT = test::makeTrace(Events);
  for (size_t Chunk : {size_t{1}, size_t{3}, size_t{64}, TraceChunkEvents})
    for (unsigned Jobs : {1u, 2u, 3u, 7u}) {
      SCOPED_TRACE("chunk " + std::to_string(Chunk) + " jobs " +
                   std::to_string(Jobs));
      test::expectSamePathProfiles(
          profilePaths(Cands, CT, MaxPathLen, Jobs, Chunk), Want);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathProfilerDiff,
                         ::testing::Range<uint64_t>(0, 64));

TEST(PathProfiler, MatchesBruteForceOnManyDistinctContexts) {
  // 300k random events over 300 branches meet more distinct (context,
  // event) pairs than the profiler keeps transitions for, so its
  // transition table starts over several times within the pass.
  Rng G(4242);
  const unsigned MaxPathLen = 4;
  const int32_t NumBranches = 300;
  std::vector<std::vector<BranchPath>> Cands(NumBranches);
  for (auto &List : Cands)
    for (int C = 0; C < 10; ++C)
      List.push_back(randomPath(G, 1 + G.below(3), NumBranches));
  std::vector<test::Event> Events;
  for (int I = 0; I < 300000; ++I)
    Events.emplace_back(static_cast<int32_t>(G.below(NumBranches)),
                        G.chance(1, 2));
  const std::vector<PathProfile> Want =
      referencePathProfiles(Cands, Events, MaxPathLen);
  const ColumnarTrace CT = test::makeTrace(Events);
  test::expectSamePathProfiles(profilePaths(Cands, CT, MaxPathLen), Want);
  test::expectSamePathProfiles(profilePaths(Cands, CT, MaxPathLen, /*Jobs=*/4),
                               Want);
}

TEST(PathProfiler, ShortWindowAtTraceStartFallsBackToShorterPaths) {
  // Branch 1's candidates: [(0,T)] and [(2,T),(0,T)]. The first execution
  // has only one decision behind it, so only the short path can match.
  std::vector<std::vector<BranchPath>> Cands(2);
  Cands[1] = {path({{2, true}, {0, true}}), path({{0, true}})};
  ColumnarTrace T =
      test::makeTrace({{0, true}, {1, true}, {2, true}, {0, true}, {1, false}});
  auto Profiles = profilePaths(Cands, T, 3);
  ASSERT_EQ(Profiles[1].PerPath.size(), 2u);
  // Lexicographic key order: [(0,T)] sorts before [(2,T),(0,T)].
  EXPECT_EQ(Profiles[1].PerPath[0].first, encodePathSteps(path({{0, true}})));
  EXPECT_EQ(Profiles[1].PerPath[0].second.Taken, 1u);
  EXPECT_EQ(Profiles[1].PerPath[1].second.NotTaken, 1u);
  EXPECT_EQ(Profiles[1].Unmatched.total(), 0u);
  // Branch 0 has no candidates: all its executions are unmatched.
  EXPECT_EQ(Profiles[0].Unmatched.Taken, 2u);
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
