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

#include <functional>
#include <map>
#include <set>

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

// -- Incremental engine vs. full-rescore reference ---------------------------

namespace {

bool refLess(const SymbolString &A, const SymbolString &B) {
  return A.size() != B.size() ? A.size() < B.size() : A < B;
}

/// Per-channel majority score of \p Set: every pattern goes to its longest
/// suffix in the set (of length 1..MaxLen), or to the default state.
uint64_t refScore(const std::vector<SymbolString> &Pats,
                  const std::vector<DirCounts> &Counts, size_t C,
                  const std::set<SymbolString> &Set, unsigned MaxLen) {
  std::map<SymbolString, std::vector<DirCounts>> Acc; // {} is the default
  for (size_t PI = 0; PI < Pats.size(); ++PI) {
    SymbolString Key;
    for (size_t L = std::min<size_t>(Pats[PI].size(), MaxLen); L >= 1; --L) {
      SymbolString S(Pats[PI].end() - static_cast<long>(L), Pats[PI].end());
      if (Set.count(S)) {
        Key = S;
        break;
      }
    }
    std::vector<DirCounts> &A = Acc[Key];
    A.resize(C);
    for (size_t Ch = 0; Ch < C; ++Ch) {
      A[Ch].Taken += Counts[PI * C + Ch].Taken;
      A[Ch].NotTaken += Counts[PI * C + Ch].NotTaken;
    }
  }
  uint64_t Score = 0;
  for (const auto &[Key, A] : Acc)
    for (const DirCounts &D : A)
      Score += std::max(D.Taken, D.NotTaken);
  return Score;
}

/// The pre-incremental engine: the same interning, candidate order,
/// closure rules, prune test and node accounting as selectSuffixStates,
/// but every node rescores every pattern from scratch.
struct ReferenceSearch {
  const std::vector<SymbolString> &Pats;
  const std::vector<DirCounts> &Counts;
  size_t C;
  SelectOptions Opts;
  std::set<SymbolString> Interned, In;
  std::vector<SymbolString> Cands;
  size_t Selected = 0, NumForced = 0;
  uint64_t BestScore = 0, Nodes = 0;
  bool Exhausted = false;
  std::set<SymbolString> Best;

  ReferenceSearch(const std::vector<SymbolString> &Pats,
                  const std::vector<DirCounts> &Counts, size_t C,
                  const std::vector<SymbolString> &Forced,
                  const SelectOptions &Opts)
      : Pats(Pats), Counts(Counts), C(C), Opts(Opts) {
    In.insert(Forced.begin(), Forced.end());
    NumForced = In.size();
    for (const SymbolString &P : Pats)
      for (size_t Start = 0; Start < P.size(); ++Start)
        for (size_t L = Opts.MinLen; L <= Opts.MaxLen && Start + L <= P.size();
             ++L)
          if (Opts.SubstringClosure || Start + L == P.size())
            Interned.insert(SymbolString(P.begin() + static_cast<long>(Start),
                                         P.begin() +
                                             static_cast<long>(Start + L)));
    for (const SymbolString &S : Interned)
      if (!In.count(S))
        Cands.push_back(S);
    std::sort(Cands.begin(), Cands.end(), refLess);
  }
  uint64_t score() const { return refScore(Pats, Counts, C, In, Opts.MaxLen); }
  bool legal(const SymbolString &S) const {
    if (S.size() <= Opts.MinLen)
      return true;
    return In.count(SymbolString(S.begin() + 1, S.end())) &&
           (!Opts.SubstringClosure ||
            In.count(SymbolString(S.begin(), S.end() - 1)));
  }
  bool full() const { return Selected + NumForced >= Opts.MaxSelected; }
  void consider() {
    uint64_t S = score();
    // Ties replace an empty best, exactly like the engine.
    if (S > BestScore || Best.empty()) {
      BestScore = S;
      Best = In;
    }
  }
  void dfs(size_t Idx) {
    if (Exhausted)
      return;
    if (++Nodes > Opts.NodeBudget) {
      Exhausted = true;
      return;
    }
    consider();
    if (Idx >= Cands.size() || full())
      return;
    std::set<SymbolString> Saved = In;
    In.insert(Cands.begin() + static_cast<long>(Idx), Cands.end());
    uint64_t Bound = score();
    In = Saved;
    if (Bound <= BestScore)
      return;
    if (legal(Cands[Idx])) {
      In.insert(Cands[Idx]);
      ++Selected;
      dfs(Idx + 1);
      In.erase(Cands[Idx]);
      --Selected;
      if (Exhausted)
        return;
    }
    dfs(Idx + 1);
  }
  void greedy() {
    consider();
    std::set<SymbolString> Start = In;
    while (!full()) {
      uint64_t Base = score(), BestGain = 0;
      const SymbolString *Pick = nullptr;
      for (const SymbolString &Cand : Cands) {
        if (In.count(Cand) || !legal(Cand))
          continue;
        In.insert(Cand);
        uint64_t S = score();
        In.erase(Cand);
        if (S > Base && S - Base > BestGain) {
          BestGain = S - Base;
          Pick = &Cand;
        }
      }
      if (!Pick)
        break;
      In.insert(*Pick);
      ++Selected;
      consider();
    }
    In = Start;
    Selected = 0;
  }
};

/// A random table: \p Alphabet symbols, patterns of length 0..5, \p C
/// channels.
void randomTable(Rng &G, uint32_t Alphabet, size_t C, size_t NumPats,
                 std::vector<SymbolString> &Pats,
                 std::vector<DirCounts> &Counts) {
  Pats.clear();
  Counts.clear();
  for (size_t I = 0; I < NumPats; ++I) {
    SymbolString S(G.below(6));
    for (uint32_t &Sym : S)
      Sym = static_cast<uint32_t>(G.below(Alphabet));
    Pats.push_back(S);
    for (size_t Ch = 0; Ch < C; ++Ch) {
      DirCounts D;
      D.Taken = G.below(40);
      D.NotTaken = G.below(40);
      Counts.push_back(D);
    }
  }
}

} // namespace

TEST(SelectSuffix, IncrementalEngineMatchesFullRescore) {
  // The incremental engine must walk the reference's exact traversal: same
  // states, score, node count and budget outcome, budget-exhausted runs
  // included.
  Rng G(41);
  unsigned Exhausted = 0, Runs = 0;
  for (int Round = 0; Round < 240; ++Round) {
    const size_t C = 1 + static_cast<size_t>(G.below(4));
    const uint32_t Alphabet = 2 + static_cast<uint32_t>(G.below(3));
    std::vector<SymbolString> Pats;
    std::vector<DirCounts> Counts;
    randomTable(G, Alphabet, C, 4 + G.below(20), Pats, Counts);

    SelectOptions Opts;
    Opts.MinLen = 1 + static_cast<unsigned>(G.below(2));
    Opts.MaxLen = Opts.MinLen + static_cast<unsigned>(G.below(4));
    Opts.MaxSelected = 2 + static_cast<unsigned>(G.below(7));
    Opts.SubstringClosure = G.chance(1, 2);
    Opts.Exhaustive = !G.chance(1, 8);
    Opts.NodeBudget = G.chance(1, 3) ? 1 + G.below(40) : 20'000;
    // Forced states no longer than MinLen: none, the empty string, or a
    // random set of one-symbol strings.
    std::vector<SymbolString> Forced;
    switch (G.below(3)) {
    case 0:
      break;
    case 1:
      Forced.push_back({});
      break;
    default:
      for (uint32_t Sym = 0; Sym < Alphabet; ++Sym)
        if (G.chance(1, 2))
          Forced.push_back({Sym});
      break;
    }

    ReferenceSearch Ref(Pats, Counts, C, Forced, Opts);
    Ref.greedy();
    if (Opts.Exhaustive)
      Ref.dfs(0);
    SuffixSelection S = selectSuffixStates(
        Pats, Counts, static_cast<unsigned>(C), Forced, Opts);

    std::vector<SymbolString> RefStates(Ref.Best.begin(), Ref.Best.end());
    std::sort(RefStates.begin(), RefStates.end(), refLess);
    ASSERT_EQ(S.States, RefStates) << "round " << Round;
    ASSERT_EQ(S.Correct, Ref.BestScore) << "round " << Round;
    ASSERT_EQ(S.Nodes, Ref.Nodes) << "round " << Round;
    ASSERT_EQ(S.BudgetExhausted, Ref.Exhausted) << "round " << Round;
    uint64_t Total = 0;
    for (const DirCounts &D : Counts)
      Total += D.total();
    EXPECT_EQ(S.Total, Total);

    if (C == 1) {
      // The single-channel overload is the same search.
      std::vector<ObservedPattern> Obs;
      for (size_t PI = 0; PI < Pats.size(); ++PI)
        Obs.push_back({Pats[PI], Counts[PI]});
      SuffixSelection One = selectSuffixStates(Obs, Forced, Opts);
      EXPECT_EQ(One.States, S.States);
      EXPECT_EQ(One.Correct, S.Correct);
      EXPECT_EQ(One.Nodes, S.Nodes);
    }
    Exhausted += S.BudgetExhausted;
    ++Runs;
  }
  // The sample covers both outcomes of the node budget.
  EXPECT_GT(Exhausted, 10u);
  EXPECT_LT(Exhausted, Runs - 10);
}

TEST(SelectSuffix, ExactMultiChannelSearchMatchesBruteForce) {
  // Joint-machine settings (forced empty string, substring closure, one
  // channel per member): the branch-and-bound optimum must equal the best
  // closed set found by enumerating every state subset within the budget.
  for (uint64_t Seed : {201u, 202u, 203u, 204u, 205u, 206u}) {
    Rng G(Seed);
    const size_t C = 2 + static_cast<size_t>(G.below(2));
    const uint32_t Alphabet = static_cast<uint32_t>(2 * C);
    std::vector<SymbolString> Pats;
    std::vector<DirCounts> Counts;
    randomTable(G, Alphabet, C, 8, Pats, Counts);

    SelectOptions Opts;
    Opts.MinLen = 1;
    Opts.MaxLen = 2;
    Opts.SubstringClosure = true;
    Opts.NodeBudget = 10'000'000;

    std::set<SymbolString> Subs;
    for (const SymbolString &P : Pats)
      for (size_t Start = 0; Start < P.size(); ++Start)
        for (size_t L = 1; L <= Opts.MaxLen && Start + L <= P.size(); ++L)
          Subs.insert(SymbolString(P.begin() + static_cast<long>(Start),
                                   P.begin() + static_cast<long>(Start + L)));
    std::vector<SymbolString> Cands(Subs.begin(), Subs.end());

    for (unsigned Budget : {2u, 3u, 4u, 5u}) {
      Opts.MaxSelected = Budget;
      SuffixSelection S = selectSuffixStates(
          Pats, Counts, static_cast<unsigned>(C), {SymbolString()}, Opts);
      ASSERT_FALSE(S.BudgetExhausted);

      // Every subset of at most Budget - 1 candidates (plus the empty
      // string) that is closed under dropping either end symbol.
      uint64_t Best = 0;
      std::set<SymbolString> Set = {SymbolString()};
      std::function<void(size_t)> Enumerate = [&](size_t From) {
        bool Closed = true;
        for (const SymbolString &St : Set)
          if (St.size() > 1)
            Closed &= Set.count(SymbolString(St.begin() + 1, St.end())) &&
                      Set.count(SymbolString(St.begin(), St.end() - 1));
        if (Closed)
          Best = std::max(Best, refScore(Pats, Counts, C, Set, Opts.MaxLen));
        if (Set.size() >= Budget)
          return;
        for (size_t I = From; I < Cands.size(); ++I) {
          Set.insert(Cands[I]);
          Enumerate(I + 1);
          Set.erase(Cands[I]);
        }
      };
      Enumerate(0);
      EXPECT_EQ(S.Correct, Best) << "seed=" << Seed << " budget=" << Budget;
      EXPECT_EQ(S.Correct, refScore(Pats, Counts, C,
                                    std::set<SymbolString>(S.States.begin(),
                                                           S.States.end()),
                                    Opts.MaxLen));
    }
  }
}
