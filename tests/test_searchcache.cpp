//===- tests/test_searchcache.cpp -----------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Ladder memoization contracts: the downward-fill ladders must reproduce
// the per-budget direct searches exactly whenever those searches are
// exact, every rung must be populated even when the node budget runs out,
// and the process-wide cache must return identical results (and
// deterministic hit/miss statistics) for any worker count.
//
//===----------------------------------------------------------------------===//

#include "core/LoopAwareProfiles.h"
#include "core/ProgramAnalysis.h"
#include "core/SearchCache.h"
#include "core/SizeSweep.h"
#include "core/StrategySelection.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

using namespace bpcr;

namespace {

/// A pattern table with a biased periodic structure: enough distinct
/// patterns to make the search non-trivial, few enough to stay exact.
PatternTable makeTable(unsigned MaxBits = 9, int Streams = 3) {
  PatternTable T(MaxBits);
  for (int S = 0; S < Streams; ++S) {
    T.resetHistory();
    for (int I = 0; I < 400; ++I) {
      // Period-3 pattern with a seeded disturbance per stream.
      bool Taken = (I % 3 != 0) ^ ((I + S) % 17 == 0);
      T.record(Taken);
    }
  }
  return T;
}

PathProfile makeProfile() {
  PathProfile P;
  P.PerPath.push_back({{0, 2}, {120, 4}});
  P.PerPath.push_back({{0, 3}, {7, 90}});
  P.PerPath.push_back({{1, 2}, {40, 40}});
  P.PerPath.push_back({{1, 2, 4}, {33, 2}});
  P.Unmatched = {55, 60};
  return P;
}

} // namespace

TEST(SearchLadders, IntraLoopLadderMatchesDirectSearchWhenExact) {
  PatternTable T = makeTable();
  MachineOptions Opts;
  Opts.MaxStates = 6;
  Opts.NodeBudget = 5'000'000; // generous: every search stays exact
  IntraLoopLadder L = buildIntraLoopLadder(T, Opts, /*MinBudget=*/2);
  for (unsigned N = 2; N <= Opts.MaxStates; ++N) {
    MachineOptions Direct = Opts;
    Direct.MaxStates = N;
    bool Exhausted = true;
    SuffixMachine M = buildIntraLoopMachine(T, Direct, &Exhausted);
    ASSERT_FALSE(Exhausted) << "test table too hard for the node budget";
    EXPECT_EQ(L.at(N).Correct, M.Correct) << "budget " << N;
    EXPECT_EQ(L.at(N).states(), M.states()) << "budget " << N;
  }
}

TEST(SearchLadders, ExitLadderMatchesDirectFits) {
  PatternTable T = makeTable(9, 2);
  for (bool StayOnTaken : {false, true}) {
    ExitLadder L = buildExitLadder(T, 6, StayOnTaken);
    for (unsigned N = 2; N <= 6; ++N) {
      ExitChainMachine M = buildExitMachine(T, N, StayOnTaken);
      EXPECT_EQ(L.at(N).Correct, M.Correct)
          << "budget " << N << " stay " << StayOnTaken;
    }
  }
}

TEST(SearchLadders, CorrelatedLadderMatchesDirectSearchWhenExact) {
  PathProfile P = makeProfile();
  CorrelatedOptions Opts;
  Opts.MaxStates = 5;
  Opts.MaxPathLen = 3;
  Opts.NodeBudget = 1'000'000;
  CorrelatedLadder L = buildCorrelatedLadder(7, P, Opts, /*MinBudget=*/2);
  for (unsigned N = 2; N <= Opts.MaxStates; ++N) {
    CorrelatedOptions Direct = Opts;
    Direct.MaxStates = N;
    CorrelatedMachine M = buildCorrelatedMachineFromProfile(7, P, Direct);
    EXPECT_EQ(L.at(N).Correct, M.Correct) << "budget " << N;
  }
}

TEST(SearchLadders, ExhaustedSearchStillFillsEveryRung) {
  // A node budget this small exhausts immediately; the ladder must fall
  // back to truncating the deep winner rather than leaving rungs empty.
  PatternTable T = makeTable();
  MachineOptions Opts;
  Opts.MaxStates = 8;
  Opts.NodeBudget = 16;
  IntraLoopLadder L = buildIntraLoopLadder(T, Opts, /*MinBudget=*/2);
  uint64_t Executions = T.executions();
  for (unsigned N = 2; N <= Opts.MaxStates; ++N) {
    EXPECT_GE(L.at(N).numStates(), 1u) << "budget " << N;
    EXPECT_LE(L.at(N).numStates(), N) << "budget " << N;
    EXPECT_GT(L.at(N).Correct, 0u) << "budget " << N;
    EXPECT_LE(L.at(N).Correct, Executions) << "budget " << N;
  }
}

TEST(SearchLadders, TruncationIsDeterministic) {
  PatternTable T = makeTable();
  MachineOptions Opts;
  Opts.MaxStates = 8;
  Opts.NodeBudget = 16;
  IntraLoopLadder A = buildIntraLoopLadder(T, Opts, 2);
  IntraLoopLadder B = buildIntraLoopLadder(T, Opts, 2);
  for (unsigned N = 2; N <= Opts.MaxStates; ++N) {
    EXPECT_EQ(A.at(N).Correct, B.at(N).Correct);
    EXPECT_EQ(A.at(N).states(), B.at(N).states());
  }
}

//===----------------------------------------------------------------------===//
// Cache behaviour
//===----------------------------------------------------------------------===//

TEST(SearchCacheTest, SecondLookupHits) {
  SearchCache &C = SearchCache::global();
  C.clear();
  PatternTable T = makeTable();
  MachineOptions Opts;
  Opts.MaxStates = 4;
  auto A = C.intraLoopLadder(T, Opts, 2);
  auto B = C.intraLoopLadder(T, Opts, 2);
  EXPECT_EQ(A.get(), B.get()) << "hit must return the cached object";
  SearchCache::Stats S = C.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 1u);
  C.clear();
}

TEST(SearchCacheTest, KeyCoversOptionsAndMinBudget) {
  SearchCache &C = SearchCache::global();
  C.clear();
  PatternTable T = makeTable();
  MachineOptions Opts;
  Opts.MaxStates = 4;
  (void)C.intraLoopLadder(T, Opts, 2);
  // Different MinBudget, different NodeBudget, different MaxStates: all
  // distinct entries.
  (void)C.intraLoopLadder(T, Opts, 4);
  MachineOptions O2 = Opts;
  O2.NodeBudget += 1;
  (void)C.intraLoopLadder(T, O2, 2);
  MachineOptions O3 = Opts;
  O3.MaxStates = 5;
  (void)C.intraLoopLadder(T, O3, 2);
  EXPECT_EQ(C.stats().Misses, 4u);
  EXPECT_EQ(C.stats().Hits, 0u);
  C.clear();
}

TEST(SearchCacheTest, KeyCoversTableContent) {
  SearchCache &C = SearchCache::global();
  C.clear();
  MachineOptions Opts;
  Opts.MaxStates = 4;
  PatternTable A = makeTable(9, 2);
  PatternTable B = makeTable(9, 3);
  (void)C.intraLoopLadder(A, Opts, 2);
  (void)C.intraLoopLadder(B, Opts, 2);
  EXPECT_EQ(C.stats().Misses, 2u);
  // Content-identical rebuild of A hits even though it is a distinct
  // object.
  PatternTable A2 = makeTable(9, 2);
  (void)C.intraLoopLadder(A2, Opts, 2);
  EXPECT_EQ(C.stats().Hits, 1u);
  C.clear();
}

//===----------------------------------------------------------------------===//
// Whole-pipeline determinism across worker counts
//===----------------------------------------------------------------------===//

TEST(SearchCacheTest, SweepIdenticalAcrossJobsAndCacheStates) {
  const Workload *W = nullptr;
  for (const Workload &Cand : allWorkloads())
    if (std::string_view(Cand.Name) == "compress")
      W = &Cand;
  ASSERT_NE(W, nullptr);
  Module M;
  ColumnarTrace T = traceWorkloadColumnar(*W, /*Seed=*/1, M,
                                          /*MaxBranchEvents=*/20'000);
  ProgramAnalysis PA(M);
  ProfileSet Profiles = buildLoopAwareProfiles(PA, T);

  SweepOptions Opts;
  Opts.MaxStates = 6;

  SearchCache &C = SearchCache::global();
  C.clear();
  Opts.Jobs = 1;
  std::vector<SweepPoint> Serial = computeSizeSweep(PA, Profiles, T, Opts);
  SearchCache::Stats SerialStats = C.stats();

  C.clear();
  Opts.Jobs = 4;
  std::vector<SweepPoint> Par = computeSizeSweep(PA, Profiles, T, Opts);
  SearchCache::Stats ParStats = C.stats();

  // Warm-cache rerun: everything hits, same curve.
  Opts.Jobs = 4;
  std::vector<SweepPoint> Warm = computeSizeSweep(PA, Profiles, T, Opts);

  ASSERT_EQ(Serial.size(), Par.size());
  ASSERT_EQ(Serial.size(), Warm.size());
  for (size_t I = 0; I < Serial.size(); ++I) {
    EXPECT_EQ(Serial[I].SizeFactor, Par[I].SizeFactor) << "point " << I;
    EXPECT_EQ(Serial[I].MispredictPercent, Par[I].MispredictPercent);
    EXPECT_EQ(Serial[I].BranchId, Par[I].BranchId);
    EXPECT_EQ(Serial[I].NewStates, Par[I].NewStates);
    EXPECT_EQ(Serial[I].SizeFactor, Warm[I].SizeFactor);
    EXPECT_EQ(Serial[I].MispredictPercent, Warm[I].MispredictPercent);
  }

  // In-flight deduplication makes the cold hit/miss split itself
  // schedule-independent.
  EXPECT_EQ(SerialStats.Hits, ParStats.Hits);
  EXPECT_EQ(SerialStats.Misses, ParStats.Misses);
  C.clear();
}

TEST(SearchCacheTest, StrategySelectionIdenticalAcrossJobs) {
  const Workload *W = nullptr;
  for (const Workload &Cand : allWorkloads())
    if (std::string_view(Cand.Name) == "compress")
      W = &Cand;
  ASSERT_NE(W, nullptr);
  Module M;
  ColumnarTrace T = traceWorkloadColumnar(*W, /*Seed=*/1, M,
                                          /*MaxBranchEvents=*/20'000);
  ProgramAnalysis PA(M);
  ProfileSet Profiles = buildLoopAwareProfiles(PA, T);

  StrategyOptions Opts;
  Opts.MaxStates = 4;
  SearchCache &C = SearchCache::global();

  C.clear();
  Opts.Jobs = 1;
  std::vector<BranchStrategy> Serial = selectStrategies(PA, Profiles, T, Opts);
  C.clear();
  Opts.Jobs = 4;
  std::vector<BranchStrategy> Par = selectStrategies(PA, Profiles, T, Opts);

  ASSERT_EQ(Serial.size(), Par.size());
  for (size_t I = 0; I < Serial.size(); ++I) {
    EXPECT_EQ(Serial[I].BranchId, Par[I].BranchId);
    EXPECT_EQ(Serial[I].Kind, Par[I].Kind) << "branch " << Serial[I].BranchId;
    EXPECT_EQ(Serial[I].Correct, Par[I].Correct);
    EXPECT_EQ(Serial[I].States, Par[I].States);
  }
  C.clear();
}
