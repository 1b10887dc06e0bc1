//===- core/SuffixSelect.cpp ----------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Implementation notes. All suffixes of the observed patterns are interned
// once; every pattern precomputes its suffix-id list (longest first). The
// exact search is DFS over include/exclude decisions per candidate with an
// admissible bound (score of the current set plus every remaining
// candidate — the assignment score is monotone in the set because adding
// states only refines the pattern partition).
//
// Nothing is rescored per node. The search keeps each pattern's assigned
// suffix, per-(state, channel) accumulators and the running score, and
// undoes its moves through a log:
//  - including a legal candidate c moves exactly the patterns c is a suffix
//    of, each from a strictly shorter suffix (closure: a selected longer
//    suffix would have c on its parent chain), so one include costs
//    O(|patterns ending in c| x channels);
//  - the bound at position Idx splits the patterns by their longest
//    interned suffix ("top"). Patterns whose top is at a position >= Idx
//    all land on their top once every remaining candidate is in, which is
//    a fixed score RestFrom[Idx] summed once up front. The others keep
//    their current assignment; they form the "restricted" accumulator,
//    which a pattern joins as the DFS passes its top's position.
//
//===----------------------------------------------------------------------===//

#include "core/SuffixSelect.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace bpcr;

namespace {

bool stringLess(const SymbolString &A, const SymbolString &B) {
  if (A.size() != B.size())
    return A.size() < B.size();
  return A < B;
}

SymbolString suffixOf(const SymbolString &S, size_t Len) {
  assert(Len <= S.size() && "suffix longer than string");
  return SymbolString(S.end() - static_cast<long>(Len), S.end());
}

uint64_t correctOf(const DirCounts &D) { return std::max(D.Taken, D.NotTaken); }

/// Per-(slot, channel) counts with their running score: the sum over every
/// entry of its majority count.
struct Accumulator {
  std::vector<DirCounts> Acc;
  uint64_t Score = 0;

  /// Adds (Sign = +1) or removes (Sign = -1) one pattern's channels.
  void apply(size_t Slot, const DirCounts *Counts, size_t Channels,
             int Sign) {
    DirCounts *A = Acc.data() + Slot * Channels;
    for (size_t Ch = 0; Ch < Channels; ++Ch) {
      Score -= correctOf(A[Ch]);
      if (Sign > 0) {
        A[Ch].Taken += Counts[Ch].Taken;
        A[Ch].NotTaken += Counts[Ch].NotTaken;
      } else {
        A[Ch].Taken -= Counts[Ch].Taken;
        A[Ch].NotTaken -= Counts[Ch].NotTaken;
      }
      Score += correctOf(A[Ch]);
    }
  }
};

/// Interned-suffix search context.
class Search {
public:
  Search(const std::vector<SymbolString> &Patterns,
         const std::vector<DirCounts> &Counts, size_t Channels,
         const std::vector<SymbolString> &Forced, const SelectOptions &Opts)
      : Counts(Counts), Channels(Channels), Opts(Opts) {
    // Intern forced states and every candidate suffix.
    for (const SymbolString &F : Forced) {
      assert(F.size() <= Opts.MinLen && "forced state longer than MinLen");
      int Id = intern(F);
      IsForced[static_cast<size_t>(Id)] = true;
    }
    for (const SymbolString &P : Patterns) {
      size_t MaxL = std::min<size_t>(P.size(), Opts.MaxLen);
      for (size_t L = Opts.MinLen; L <= MaxL; ++L)
        intern(suffixOf(P, L));
      if (Opts.SubstringClosure) {
        // Also make every contiguous substring available, so a long state
        // can always be reached through its prefixes.
        for (size_t Start = 0; Start < P.size(); ++Start)
          for (size_t L = Opts.MinLen;
               L <= Opts.MaxLen && Start + L <= P.size(); ++L)
            intern(SymbolString(P.begin() + static_cast<long>(Start),
                                P.begin() + static_cast<long>(Start + L)));
      }
    }
    const size_t NumStrings = Strings.size();

    // Parent links: suffix parent (drop oldest) and, for substring
    // closure, the init parent (drop newest).
    Parent.assign(NumStrings, -1);
    InitParent.assign(NumStrings, -1);
    for (size_t Id = 0; Id < NumStrings; ++Id) {
      const SymbolString &S = Strings[Id];
      if (S.size() <= Opts.MinLen)
        continue;
      auto It = Ids.find(suffixOf(S, S.size() - 1));
      if (It != Ids.end())
        Parent[Id] = It->second;
      auto It2 = Ids.find(SymbolString(S.begin(), S.end() - 1));
      if (It2 != Ids.end())
        InitParent[Id] = It2->second;
    }

    // Candidate order: by (length, content) so parents precede children.
    for (size_t Id = 0; Id < NumStrings; ++Id)
      if (!IsForced[Id])
        Candidates.push_back(static_cast<int>(Id));
    std::sort(Candidates.begin(), Candidates.end(), [this](int A, int B) {
      return stringLess(Strings[static_cast<size_t>(A)],
                        Strings[static_cast<size_t>(B)]);
    });
    std::vector<size_t> PosOf(NumStrings, SIZE_MAX); // SIZE_MAX: forced
    for (size_t I = 0; I < Candidates.size(); ++I)
      PosOf[static_cast<size_t>(Candidates[I])] = I;

    InSet.assign(NumStrings, 0);
    for (size_t Id = 0; Id < NumStrings; ++Id)
      if (IsForced[Id])
        InSet[Id] = 1;
    NumForced = Forced.size();

    // Per-pattern suffix-id lists (longest first), the patterns each state
    // is a suffix of, and the initial assignment to the longest forced
    // suffix (or the default slot).
    DefaultSlot = NumStrings;
    Full.Acc.assign((NumStrings + 1) * Channels, DirCounts());
    Restricted.Acc = Full.Acc;
    PatternSuffixes.resize(Patterns.size());
    Users.resize(NumStrings);
    AssignedK.resize(Patterns.size());
    Joined.assign(Patterns.size(), 0);
    JoinAt.resize(Candidates.size());
    for (size_t PI = 0; PI < Patterns.size(); ++PI) {
      const SymbolString &S = Patterns[PI];
      std::vector<int> &Suffixes = PatternSuffixes[PI];
      for (size_t L = std::min<size_t>(S.size(), Opts.MaxLen); L >= 1; --L) {
        auto It = Ids.find(suffixOf(S, L));
        if (It != Ids.end())
          Suffixes.push_back(It->second);
      }
      size_t K = 0;
      while (K < Suffixes.size() &&
             !InSet[static_cast<size_t>(Suffixes[K])])
        ++K;
      AssignedK[PI] = K;
      for (size_t J = 0; J < Suffixes.size(); ++J)
        Users[static_cast<size_t>(Suffixes[J])].push_back({PI, J});
      Full.apply(slotOf(PI, K), countsOf(PI), Channels, +1);
      size_t TopPos = Suffixes.empty()
                          ? SIZE_MAX
                          : PosOf[static_cast<size_t>(Suffixes.front())];
      if (TopPos == SIZE_MAX) {
        // No candidate can ever move this pattern's bound contribution.
        Joined[PI] = 1;
        Restricted.apply(slotOf(PI, K), countsOf(PI), Channels, +1);
      } else {
        JoinAt[TopPos].push_back(PI);
      }
    }

    // RestFrom[I]: the merged score of the patterns whose top sits at a
    // position >= I, each group on its own top.
    RestFrom.assign(Candidates.size() + 1, 0);
    for (size_t I = Candidates.size(); I-- > 0;) {
      Accumulator Group;
      Group.Acc.resize(Channels);
      for (size_t PI : JoinAt[I])
        Group.apply(0, countsOf(PI), Channels, +1);
      RestFrom[I] = RestFrom[I + 1] + Group.Score;
    }
  }

  /// Runs greedy then (optionally) exact search; returns the best set.
  std::vector<SymbolString> run() {
    greedy();
    if (Opts.Exhaustive)
      dfs(0);
    std::vector<SymbolString> Out;
    for (size_t Id : BestIds)
      Out.push_back(Strings[Id]);
    std::sort(Out.begin(), Out.end(), stringLess);
    return Out;
  }

  uint64_t BestScore = 0;
  uint64_t Nodes = 0;
  bool BudgetExhausted = false;

private:
  struct Use {
    size_t Pattern;
    size_t K; // index of the state in the pattern's suffix list
  };
  struct Move {
    size_t Pattern;
    size_t FromK;
  };

  int intern(const SymbolString &S) {
    auto [It, Inserted] = Ids.emplace(S, static_cast<int>(Strings.size()));
    if (Inserted) {
      Strings.push_back(S);
      IsForced.push_back(false);
    }
    return It->second;
  }

  const DirCounts *countsOf(size_t PI) const {
    return Counts.data() + PI * Channels;
  }

  size_t slotOf(size_t PI, size_t K) const {
    return K < PatternSuffixes[PI].size()
               ? static_cast<size_t>(PatternSuffixes[PI][K])
               : DefaultSlot;
  }

  void assign(size_t PI, size_t K) {
    size_t From = slotOf(PI, AssignedK[PI]), To = slotOf(PI, K);
    const DirCounts *C = countsOf(PI);
    Full.apply(From, C, Channels, -1);
    Full.apply(To, C, Channels, +1);
    if (Joined[PI]) {
      Restricted.apply(From, C, Channels, -1);
      Restricted.apply(To, C, Channels, +1);
    }
    AssignedK[PI] = K;
  }

  /// Selects \p Id; returns the undo mark for retract().
  size_t include(int Id) {
    size_t Mark = Log.size();
    InSet[static_cast<size_t>(Id)] = 1;
    for (const Use &U : Users[static_cast<size_t>(Id)]) {
      assert(U.K < AssignedK[U.Pattern] &&
             "closure: a pattern never sits on a longer suffix of a "
             "candidate that is not selected");
      Log.push_back({U.Pattern, AssignedK[U.Pattern]});
      assign(U.Pattern, U.K);
    }
    return Mark;
  }

  void retract(int Id, size_t Mark) {
    while (Log.size() > Mark) {
      assign(Log.back().Pattern, Log.back().FromK);
      Log.pop_back();
    }
    InSet[static_cast<size_t>(Id)] = 0;
  }

  /// Adds (or removes) the patterns whose top sits at position \p Idx to
  /// the restricted accumulator at their current assignment.
  void join(size_t Idx, bool On) {
    for (size_t PI : JoinAt[Idx]) {
      Joined[PI] = On;
      Restricted.apply(slotOf(PI, AssignedK[PI]), countsOf(PI), Channels,
                       On ? +1 : -1);
    }
  }

  bool isLegal(int CandId) const {
    const SymbolString &S = Strings[static_cast<size_t>(CandId)];
    if (S.size() <= Opts.MinLen)
      return true;
    int P = Parent[static_cast<size_t>(CandId)];
    if (P < 0 || !InSet[static_cast<size_t>(P)])
      return false;
    if (Opts.SubstringClosure) {
      int IP = InitParent[static_cast<size_t>(CandId)];
      if (IP < 0 || !InSet[static_cast<size_t>(IP)])
        return false;
    }
    return true;
  }

  unsigned budgetLeft() const {
    size_t Used = SelectedCount + NumForced;
    return Opts.MaxSelected > Used
               ? static_cast<unsigned>(Opts.MaxSelected - Used)
               : 0;
  }

  void consider() {
    uint64_t S = Full.Score;
    if (S > BestScore || BestIds.empty()) {
      BestScore = S;
      BestIds.clear();
      for (size_t Id = 0; Id < Strings.size(); ++Id)
        if (InSet[Id])
          BestIds.push_back(Id);
    }
  }

  void dfs(size_t Idx) {
    if (BudgetExhausted)
      return;
    if (++Nodes > Opts.NodeBudget) {
      BudgetExhausted = true;
      return;
    }
    consider();
    if (Idx >= Candidates.size() || budgetLeft() == 0)
      return;
    // Score with every candidate at position >= Idx included.
    if (Restricted.Score + RestFrom[Idx] <= BestScore)
      return;

    join(Idx, true);
    int Id = Candidates[Idx];
    if (isLegal(Id)) {
      size_t Mark = include(Id);
      ++SelectedCount;
      dfs(Idx + 1);
      retract(Id, Mark);
      --SelectedCount;
    }
    if (!BudgetExhausted)
      dfs(Idx + 1);
    join(Idx, false);
  }

  void greedy() {
    consider();
    std::vector<std::pair<int, size_t>> Picked;
    while (budgetLeft() > 0) {
      uint64_t Base = Full.Score;
      uint64_t BestGain = 0;
      int BestCand = -1;
      for (int C : Candidates) {
        if (InSet[static_cast<size_t>(C)] || !isLegal(C))
          continue;
        size_t Mark = include(C);
        uint64_t S = Full.Score;
        retract(C, Mark);
        if (S > Base && S - Base > BestGain) {
          BestGain = S - Base;
          BestCand = C;
        }
      }
      if (BestCand < 0)
        break;
      Picked.push_back({BestCand, include(BestCand)});
      ++SelectedCount;
      consider();
    }
    // Reset selection state (greedy shares it with the exact phase).
    for (auto It = Picked.rbegin(); It != Picked.rend(); ++It)
      retract(It->first, It->second);
    SelectedCount = 0;
  }

  const std::vector<DirCounts> &Counts;
  const size_t Channels;
  const SelectOptions &Opts;

  std::map<SymbolString, int> Ids;
  std::vector<SymbolString> Strings;
  std::vector<bool> IsForced;
  std::vector<int> Parent;
  std::vector<int> InitParent;
  std::vector<std::vector<int>> PatternSuffixes;
  std::vector<std::vector<Use>> Users;
  std::vector<int> Candidates;

  std::vector<uint8_t> InSet;
  size_t SelectedCount = 0;
  size_t NumForced = 0;

  /// Assignment state: index into the pattern's suffix list (its size
  /// means the default slot).
  std::vector<size_t> AssignedK;
  size_t DefaultSlot = 0;
  Accumulator Full, Restricted;
  std::vector<uint8_t> Joined;
  std::vector<std::vector<size_t>> JoinAt;
  std::vector<uint64_t> RestFrom;
  std::vector<Move> Log;

  std::vector<size_t> BestIds;
};

} // namespace

SuffixSelection
bpcr::scoreStateSet(const std::vector<ObservedPattern> &Patterns,
                    const std::vector<SymbolString> &States) {
  SuffixSelection Out;
  Out.States = States;
  std::sort(Out.States.begin(), Out.States.end(), stringLess);
  Out.States.erase(std::unique(Out.States.begin(), Out.States.end()),
                   Out.States.end());

  auto FindAssigned = [&Out](const SymbolString &Syms) -> long {
    // Longest selected suffix.
    for (size_t L = Syms.size(); L >= 1; --L) {
      SymbolString Probe = suffixOf(Syms, L);
      auto It = std::lower_bound(Out.States.begin(), Out.States.end(), Probe,
                                 stringLess);
      if (It != Out.States.end() && *It == Probe)
        return It - Out.States.begin();
      if (L == 1)
        break;
    }
    return -1;
  };

  Out.StateCounts.assign(Out.States.size(), DirCounts());
  for (const ObservedPattern &P : Patterns) {
    long Idx = P.Syms.empty() ? -1 : FindAssigned(P.Syms);
    DirCounts &G =
        Idx < 0 ? Out.DefaultCounts : Out.StateCounts[static_cast<size_t>(Idx)];
    G.Taken += P.Counts.Taken;
    G.NotTaken += P.Counts.NotTaken;
  }

  Out.StatePred.resize(Out.States.size());
  for (size_t I = 0; I < Out.States.size(); ++I) {
    Out.StatePred[I] = Out.StateCounts[I].majorityTaken() ? 1 : 0;
    Out.Correct +=
        std::max(Out.StateCounts[I].Taken, Out.StateCounts[I].NotTaken);
    Out.Total += Out.StateCounts[I].total();
  }
  Out.DefaultPred = Out.DefaultCounts.majorityTaken() ? 1 : 0;
  Out.Correct += std::max(Out.DefaultCounts.Taken, Out.DefaultCounts.NotTaken);
  Out.Total += Out.DefaultCounts.total();
  return Out;
}

SuffixSelection
bpcr::selectSuffixStates(const std::vector<SymbolString> &Patterns,
                         const std::vector<DirCounts> &Counts,
                         unsigned Channels,
                         const std::vector<SymbolString> &Forced,
                         const SelectOptions &Opts) {
  assert(Counts.size() == Patterns.size() * Channels &&
         "one count row per pattern");
  Search S(Patterns, Counts, Channels, Forced, Opts);
  SuffixSelection Out;
  Out.States = S.run();
  Out.Correct = S.BestScore;
  for (const DirCounts &C : Counts)
    Out.Total += C.total();
  Out.BudgetExhausted = S.BudgetExhausted;
  Out.Nodes = S.Nodes;
  if (Registry::global().enabled())
    Registry::global().counter("search.nodes").add(S.Nodes);
  return Out;
}

SuffixSelection
bpcr::selectSuffixStates(const std::vector<ObservedPattern> &Patterns,
                         const std::vector<SymbolString> &Forced,
                         const SelectOptions &Opts) {
  std::vector<SymbolString> Syms;
  std::vector<DirCounts> Counts;
  Syms.reserve(Patterns.size());
  Counts.reserve(Patterns.size());
  for (const ObservedPattern &P : Patterns) {
    Syms.push_back(P.Syms);
    Counts.push_back(P.Counts);
  }
  SuffixSelection Sel = selectSuffixStates(Syms, Counts, 1, Forced, Opts);
  SuffixSelection Out = scoreStateSet(Patterns, Sel.States);
  Out.BudgetExhausted = Sel.BudgetExhausted;
  Out.Nodes = Sel.Nodes;
  return Out;
}
