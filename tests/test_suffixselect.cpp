//===- tests/test_suffixselect.cpp - Machine-search engine tests ----------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "TraceTestUtil.h"

#include "core/BranchProfiles.h"
#include "core/SuffixSelect.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace bpcr;

namespace {

ObservedPattern pat(std::initializer_list<uint32_t> Syms, uint64_t Taken,
                    uint64_t NotTaken) {
  ObservedPattern P;
  P.Syms = SymbolString(Syms);
  P.Counts.Taken = Taken;
  P.Counts.NotTaken = NotTaken;
  return P;
}

/// Observed patterns of a perfectly alternating branch with 4-bit history:
/// after ...10 the branch is taken, after ...01 not taken.
std::vector<ObservedPattern> alternatingPatterns(uint64_t N) {
  return {
      pat({1, 0, 1, 0}, N, 0), // last outcome 0 -> next taken
      pat({0, 1, 0, 1}, 0, N), // last outcome 1 -> next not taken
  };
}

} // namespace

TEST(ScoreStateSet, LongestSuffixWins) {
  // States "1" and "01": pattern ...01 must land on "01", not "1".
  std::vector<ObservedPattern> Pats = {pat({0, 0, 0, 1}, 10, 0),
                                       pat({1, 1, 0, 1}, 0, 10)};
  SuffixSelection S = scoreStateSet(Pats, {{1}, {0, 1}});
  // "01" is the longest matching suffix of both patterns -> they merge and
  // split 10/10.
  ASSERT_EQ(S.States.size(), 2u);
  EXPECT_EQ(S.Correct, 10u);
  EXPECT_EQ(S.Total, 20u);
}

TEST(ScoreStateSet, DistinguishingStatesSeparateCounts) {
  std::vector<ObservedPattern> Pats = {pat({0, 0, 0, 1}, 10, 0),
                                       pat({1, 1, 0, 1}, 0, 10)};
  // Adding length-3 states separates the two patterns.
  SuffixSelection S = scoreStateSet(Pats, {{0, 0, 1}, {1, 0, 1}});
  EXPECT_EQ(S.Correct, 20u);
}

TEST(ScoreStateSet, UnmatchedFallsToDefault) {
  std::vector<ObservedPattern> Pats = {pat({1, 1}, 5, 2),
                                       pat({0, 0}, 1, 9)};
  SuffixSelection S = scoreStateSet(Pats, {{1}});
  // {1,1} matches "1"; {0,0} matches nothing -> default predicts not
  // taken.
  EXPECT_EQ(S.DefaultCounts.NotTaken, 9u);
  EXPECT_EQ(S.Correct, 5u + 9u);
}

TEST(ScoreStateSet, EmptyPatternGoesToDefault) {
  std::vector<ObservedPattern> Pats = {pat({}, 3, 7)};
  SuffixSelection S = scoreStateSet(Pats, {{1}});
  EXPECT_EQ(S.DefaultCounts.total(), 10u);
  EXPECT_EQ(S.DefaultPred, 0);
}

TEST(SelectSuffix, TwoStateBaseIsOneBitHistory) {
  SelectOptions Opts;
  Opts.MaxSelected = 2;
  Opts.MaxLen = 4;
  SuffixSelection S =
      selectSuffixStates(alternatingPatterns(100), {{0}, {1}}, Opts);
  // Only the catch-alls fit; they already solve alternation perfectly.
  ASSERT_EQ(S.States.size(), 2u);
  EXPECT_EQ(S.Correct, 200u);
  EXPECT_EQ(S.StatePred[0], 1); // after 0 -> taken
  EXPECT_EQ(S.StatePred[1], 0); // after 1 -> not taken
}

TEST(SelectSuffix, FindsDistinguishingState) {
  // Branch follows a period-3 pattern 0,1,1: after "11" comes 0, after
  // "01" comes 1, after "10" comes 1.
  std::vector<ObservedPattern> Pats = {
      pat({1, 0, 1, 1}, 0, 90), // suffix 11 -> not taken
      pat({0, 1, 1, 0}, 90, 0), // suffix 10 -> taken
      pat({1, 1, 0, 1}, 90, 0), // suffix 01 -> taken
  };
  SelectOptions Opts;
  Opts.MaxSelected = 4;
  Opts.MaxLen = 3;
  SuffixSelection S = selectSuffixStates(Pats, {{0}, {1}}, Opts);
  // With {0,1} alone: state "1" mixes 90T/90N -> 270 correct total is
  // impossible; adding "11" (or "01") separates them for a perfect score.
  EXPECT_EQ(S.Correct, 270u);
  EXPECT_LE(S.States.size(), 4u);
}

TEST(SelectSuffix, RespectsStateBudget) {
  Rng G(3);
  std::vector<ObservedPattern> Pats;
  for (int I = 0; I < 16; ++I)
    Pats.push_back(pat({static_cast<uint32_t>(I >> 3) & 1,
                        static_cast<uint32_t>(I >> 2) & 1,
                        static_cast<uint32_t>(I >> 1) & 1,
                        static_cast<uint32_t>(I) & 1},
                       G.below(100), G.below(100)));
  for (unsigned Budget = 2; Budget <= 6; ++Budget) {
    SelectOptions Opts;
    Opts.MaxSelected = Budget;
    Opts.MaxLen = 4;
    SuffixSelection S = selectSuffixStates(Pats, {{0}, {1}}, Opts);
    EXPECT_LE(S.States.size(), Budget);
  }
}

TEST(SelectSuffix, ScoreIsMonotoneInBudget) {
  Rng G(17);
  std::vector<ObservedPattern> Pats;
  for (int I = 0; I < 16; ++I)
    Pats.push_back(pat({static_cast<uint32_t>(I >> 3) & 1,
                        static_cast<uint32_t>(I >> 2) & 1,
                        static_cast<uint32_t>(I >> 1) & 1,
                        static_cast<uint32_t>(I) & 1},
                       G.below(50), G.below(50)));
  uint64_t Prev = 0;
  for (unsigned Budget = 2; Budget <= 8; ++Budget) {
    SelectOptions Opts;
    Opts.MaxSelected = Budget;
    Opts.MaxLen = 4;
    SuffixSelection S = selectSuffixStates(Pats, {{0}, {1}}, Opts);
    EXPECT_GE(S.Correct, Prev);
    Prev = S.Correct;
  }
}

TEST(SelectSuffix, ExactBeatsOrMatchesGreedy) {
  Rng G(23);
  for (int Round = 0; Round < 10; ++Round) {
    std::vector<ObservedPattern> Pats;
    for (int I = 0; I < 16; ++I)
      Pats.push_back(pat({static_cast<uint32_t>(I >> 3) & 1,
                          static_cast<uint32_t>(I >> 2) & 1,
                          static_cast<uint32_t>(I >> 1) & 1,
                          static_cast<uint32_t>(I) & 1},
                         G.below(100), G.below(100)));
    SelectOptions Greedy;
    Greedy.MaxSelected = 5;
    Greedy.MaxLen = 4;
    Greedy.Exhaustive = false;
    SelectOptions Exact = Greedy;
    Exact.Exhaustive = true;
    uint64_t GS = selectSuffixStates(Pats, {{0}, {1}}, Greedy).Correct;
    uint64_t ES = selectSuffixStates(Pats, {{0}, {1}}, Exact).Correct;
    EXPECT_GE(ES, GS);
  }
}

TEST(SelectSuffix, SuffixClosureHolds) {
  Rng G(29);
  std::vector<ObservedPattern> Pats;
  for (int I = 0; I < 16; ++I)
    Pats.push_back(pat({static_cast<uint32_t>(I >> 3) & 1,
                        static_cast<uint32_t>(I >> 2) & 1,
                        static_cast<uint32_t>(I >> 1) & 1,
                        static_cast<uint32_t>(I) & 1},
                       G.below(100), G.below(100)));
  SelectOptions Opts;
  Opts.MaxSelected = 7;
  Opts.MaxLen = 4;
  SuffixSelection S = selectSuffixStates(Pats, {{0}, {1}}, Opts);
  // Every state's one-shorter suffix must be present.
  auto Has = [&S](const SymbolString &X) {
    for (const SymbolString &St : S.States)
      if (St == X)
        return true;
    return false;
  };
  for (const SymbolString &St : S.States) {
    if (St.size() <= 1)
      continue;
    SymbolString Parent(St.begin() + 1, St.end());
    EXPECT_TRUE(Has(Parent));
  }
}

TEST(SelectSuffix, TotalsAreConserved) {
  std::vector<ObservedPattern> Pats = alternatingPatterns(50);
  Pats.push_back(pat({1, 1, 1, 1}, 7, 3));
  SelectOptions Opts;
  Opts.MaxSelected = 3;
  Opts.MaxLen = 4;
  SuffixSelection S = selectSuffixStates(Pats, {{0}, {1}}, Opts);
  uint64_t Sum = S.DefaultCounts.total();
  for (const DirCounts &C : S.StateCounts)
    Sum += C.total();
  EXPECT_EQ(Sum, S.Total);
  EXPECT_EQ(S.Total, 110u);
  EXPECT_LE(S.Correct, S.Total);
}

TEST(SelectSuffix, NodeBudgetFallsBackGracefully) {
  Rng G(31);
  std::vector<ObservedPattern> Pats;
  for (int I = 0; I < 16; ++I)
    Pats.push_back(pat({static_cast<uint32_t>(I >> 3) & 1,
                        static_cast<uint32_t>(I >> 2) & 1,
                        static_cast<uint32_t>(I >> 1) & 1,
                        static_cast<uint32_t>(I) & 1},
                       G.below(100), G.below(100)));
  SelectOptions Opts;
  Opts.MaxSelected = 6;
  Opts.MaxLen = 4;
  Opts.NodeBudget = 3; // absurdly small
  SuffixSelection S = selectSuffixStates(Pats, {{0}, {1}}, Opts);
  EXPECT_TRUE(S.BudgetExhausted);
  // Still at least as good as the all-catch-all baseline.
  SuffixSelection Base = scoreStateSet(Pats, {{0}, {1}});
  EXPECT_GE(S.Correct, Base.Correct);
}

// -- PatternTable ----------------------------------------------------------------

TEST(PatternTable, RecordsFullPatternsAndMarginals) {
  PatternTable T(3);
  // Outcomes: 1,0,1,1 with zero-filled initial history.
  for (bool O : {true, false, true, true})
    T.record(O);
  // Histories seen: 000,001,010,101.
  EXPECT_EQ(T.full().size(), 4u);
  // Marginal: counts of patterns whose last outcome was 1.
  DirCounts C = T.countsFor(0b1, 1);
  // Histories ending in 1: 001 (outcome 0), 101 (outcome 1).
  EXPECT_EQ(C.Taken, 1u);
  EXPECT_EQ(C.NotTaken, 1u);
}

TEST(PatternTable, DistinctPatternsByWidth) {
  PatternTable T(4);
  for (int I = 0; I < 64; ++I)
    T.record(I % 2 == 0);
  // Steady state alternation: two 4-bit patterns (0101/1010), two 1-bit
  // ones, plus a few warmup artifacts (0000, 0001, 0010).
  EXPECT_LE(T.distinctPatterns(4), 5u);
  EXPECT_GE(T.distinctPatterns(4), 2u);
  EXPECT_EQ(T.distinctPatterns(1), 2u);
}

TEST(ProfileSet, FillRateDropsWithWidth) {
  ProfileSet P(1, 9);
  ColumnarTrace T;
  Rng G(3);
  for (int I = 0; I < 20000; ++I)
    T.append(0, G.chance(1, 2));
  T.finalize(1);
  P.addTrace(T);
  double F1 = P.fillRatePercent(1);
  double F5 = P.fillRatePercent(5);
  double F9 = P.fillRatePercent(9);
  EXPECT_DOUBLE_EQ(F1, 100.0);
  EXPECT_GE(F5, F9); // relative occupancy shrinks with width
  EXPECT_GT(F9, 0.0);
}

TEST(ProfileSet, TracksPerBranchStreams) {
  ProfileSet P(2, 4);
  P.addTrace(
      test::makeTrace({{0, true}, {1, false}, {0, true}, {0, false}}, 2));
  EXPECT_EQ(P.branch(0).executions(), 3u);
  EXPECT_EQ(P.branch(0).takenCount(), 2u);
  EXPECT_TRUE(P.branch(0).majorityTaken());
  EXPECT_EQ(P.branch(0).profileMispredictions(), 1u);
  EXPECT_EQ(P.branch(1).executions(), 1u);
  EXPECT_EQ(P.executedBranches(), 2u);
  EXPECT_EQ(P.totalExecutions(), 4u);
}

namespace {

/// Brute force: enumerate ALL suffix-closed subsets of candidates up to the
/// budget and return the best assignment score. Only viable for tiny
/// pattern spaces.
uint64_t bruteForceBest(const std::vector<ObservedPattern> &Pats,
                        unsigned MaxSelected, unsigned MaxLen) {
  // Collect candidates (distinct suffixes, len 1..MaxLen), excluding the
  // forced catch-alls {0} and {1}.
  std::vector<SymbolString> Cands;
  auto Has = [&Cands](const SymbolString &S) {
    for (const SymbolString &C : Cands)
      if (C == S)
        return true;
    return false;
  };
  for (const ObservedPattern &P : Pats)
    for (size_t L = 2; L <= std::min<size_t>(P.Syms.size(), MaxLen); ++L) {
      SymbolString S(P.Syms.end() - static_cast<long>(L), P.Syms.end());
      if (!Has(S))
        Cands.push_back(S);
    }

  uint64_t Best = 0;
  size_t N = Cands.size(); // small by construction: 2^N subsets are fine
  for (uint64_t Mask = 0; Mask < (1ull << N); ++Mask) {
    std::vector<SymbolString> Set = {{0}, {1}};
    unsigned Count = 2;
    for (size_t I = 0; I < N; ++I)
      if (Mask & (1ull << I)) {
        Set.push_back(Cands[I]);
        ++Count;
      }
    if (Count > MaxSelected)
      continue;
    // Substring closure (what the machine search enforces): both the
    // drop-oldest suffix and the drop-newest init of every state present.
    bool Closed = true;
    for (const SymbolString &S : Set) {
      if (S.size() <= 1)
        continue;
      SymbolString Parent(S.begin() + 1, S.end());
      SymbolString Init(S.begin(), S.end() - 1);
      bool FoundParent = false, FoundInit = false;
      for (const SymbolString &O : Set) {
        FoundParent |= (O == Parent);
        FoundInit |= (O == Init);
      }
      Closed &= FoundParent && FoundInit;
    }
    if (!Closed)
      continue;
    Best = std::max(Best, scoreStateSet(Pats, Set).Correct);
  }
  return Best;
}

} // namespace

TEST(SelectSuffix, ExactSearchMatchesBruteForce) {
  // Random small tables; the branch-and-bound result must equal the
  // brute-force optimum over all suffix-closed sets.
  for (uint64_t Seed : {101u, 102u, 103u, 104u, 105u}) {
    Rng G(Seed);
    std::vector<ObservedPattern> Pats;
    for (int I = 0; I < 8; ++I) // 3-bit patterns: candidate space ~14
      Pats.push_back(pat({static_cast<uint32_t>(I >> 2) & 1,
                          static_cast<uint32_t>(I >> 1) & 1,
                          static_cast<uint32_t>(I) & 1},
                         G.below(60), G.below(60)));
    for (unsigned Budget : {3u, 4u, 5u}) {
      SelectOptions Opts;
      Opts.MaxSelected = Budget;
      Opts.MaxLen = 3;
      Opts.NodeBudget = 10'000'000;
      Opts.SubstringClosure = true; // what the machine search uses
      SuffixSelection S = selectSuffixStates(Pats, {{0}, {1}}, Opts);
      ASSERT_FALSE(S.BudgetExhausted);
      EXPECT_EQ(S.Correct, bruteForceBest(Pats, Budget, 3))
          << "seed=" << Seed << " budget=" << Budget;
    }
  }
}
