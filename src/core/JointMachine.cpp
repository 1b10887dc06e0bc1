//===- core/JointMachine.cpp ----------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/JointMachine.h"

#include "obs/Metrics.h"
#include "obs/TraceSpans.h"
#include "trace/ColumnarTrace.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

using namespace bpcr;

namespace {

bool stringLess(const SymbolString &A, const SymbolString &B) {
  if (A.size() != B.size())
    return A.size() < B.size();
  return A < B;
}

SymbolString suffixOf(const SymbolString &S, size_t Len) {
  return SymbolString(S.end() - static_cast<long>(Len), S.end());
}

uint32_t symbolOf(int MemberIdx, bool Taken) {
  return (static_cast<uint32_t>(MemberIdx) << 1) | (Taken ? 1U : 0U);
}

/// Shared loop of the members; false when they do not share one.
bool sharedLoop(const ProgramAnalysis &PA, const std::vector<int32_t> &Members,
                uint32_t &FuncIdx, const Loop *&L) {
  if (Members.empty())
    return false;
  const BranchClass &C0 = PA.classOf(Members[0]);
  if (C0.Kind == BranchKind::NonLoop)
    return false;
  FuncIdx = PA.ref(Members[0]).FuncIdx;
  L = &PA.loopInfoFor(Members[0]).loops()[static_cast<size_t>(C0.LoopIdx)];
  for (int32_t M : Members) {
    const BranchClass &C = PA.classOf(M);
    if (PA.ref(M).FuncIdx != FuncIdx || C.Kind == BranchKind::NonLoop ||
        C.LoopIdx != C0.LoopIdx)
      return false;
  }
  return true;
}

} // namespace

int JointLoopMachine::memberIndex(int32_t OrigId) const {
  auto It = std::lower_bound(Members.begin(), Members.end(), OrigId);
  if (It == Members.end() || *It != OrigId)
    return -1;
  return static_cast<int>(It - Members.begin());
}

unsigned JointLoopMachine::next(unsigned State, int MemberIdx,
                                bool Taken) const {
  size_t MaxLen = States.back().size();
  SymbolString S = States[State];
  S.push_back(symbolOf(MemberIdx, Taken));
  if (S.size() > MaxLen)
    S.erase(S.begin(), S.end() - static_cast<long>(MaxLen));
  for (size_t L = S.size(); L >= 1; --L) {
    SymbolString Probe = suffixOf(S, L);
    auto It =
        std::lower_bound(States.begin(), States.end(), Probe, stringLess);
    if (It != States.end() && *It == Probe)
      return static_cast<unsigned>(It - States.begin());
    if (L == 1)
      break;
  }
  return 0; // the empty state
}

std::string JointLoopMachine::describe() const {
  std::string Out = "joint{members=" + std::to_string(Members.size());
  Out += ",states=";
  for (size_t I = 0; I < States.size(); ++I) {
    if (I)
      Out += '|';
    if (States[I].empty())
      Out += "eps";
    for (uint32_t Sym : States[I]) {
      Out += std::to_string(Sym >> 1);
      Out += (Sym & 1) ? 'T' : 'N';
    }
  }
  Out += '}';
  return Out;
}

namespace {

/// The joint history of profileJointLoop as an automaton over interned
/// histories: a state is one distinct history (at most MaxLen symbols,
/// oldest first), and a transition appends a symbol and drops the oldest
/// one past MaxLen. Transitions are built on first use into a flat
/// open-addressing table keyed by (state, symbol), so the profile pass
/// costs one table probe per member event; a history string is built and
/// looked up only when a transition is first seen.
class JointHistories {
public:
  explicit JointHistories(unsigned MaxLen) : MaxLen(MaxLen) {
    intern(SymbolString());
    resize(256);
  }

  /// The empty history (loop entry).
  static constexpr uint32_t Start = 0;

  uint32_t next(uint32_t State, uint32_t Sym) {
    const uint64_t Key = (uint64_t{State} << 32) | Sym;
    size_t H = home(Key);
    while (Table[H].Key != Key) {
      if (Table[H].Key == Empty)
        return add(Key, State, Sym);
      H = (H + 1) & (Table.size() - 1);
    }
    return Table[H].Next;
  }

  size_t size() const { return Strings.size(); }
  const SymbolString &history(uint32_t State) const { return Strings[State]; }

private:
  struct Transition {
    uint64_t Key;
    uint32_t Next;
  };
  static constexpr uint64_t Empty = UINT64_MAX;

  size_t home(uint64_t Key) const {
    return static_cast<size_t>((Key * 0x9E3779B97F4A7C15ULL) >> Shift);
  }

  void resize(size_t Size) {
    Table.assign(Size, {Empty, 0});
    Shift = 64 - static_cast<unsigned>(std::countr_zero(Size));
  }

  uint32_t intern(SymbolString S) {
    auto [It, Inserted] =
        Index.emplace(std::move(S), static_cast<uint32_t>(Strings.size()));
    if (Inserted)
      Strings.push_back(It->first);
    return It->second;
  }

  uint32_t add(uint64_t Key, uint32_t State, uint32_t Sym) {
    SymbolString S = Strings[State];
    S.push_back(Sym);
    if (S.size() > MaxLen)
      S.erase(S.begin(), S.end() - static_cast<long>(MaxLen));
    const uint32_t Next = intern(std::move(S));
    if (2 * (Used + 1) > Table.size()) {
      std::vector<Transition> Old = std::move(Table);
      resize(2 * Old.size());
      for (const Transition &T : Old)
        if (T.Key != Empty)
          Table[place(T.Key)] = T;
    }
    Table[place(Key)] = {Key, Next};
    ++Used;
    return Next;
  }

  size_t place(uint64_t Key) const {
    size_t H = home(Key);
    while (Table[H].Key != Empty)
      H = (H + 1) & (Table.size() - 1);
    return H;
  }

  unsigned MaxLen;
  std::vector<SymbolString> Strings;
  std::map<SymbolString, uint32_t> Index;
  std::vector<Transition> Table;
  unsigned Shift = 0;
  size_t Used = 0;
};

} // namespace

JointProfile bpcr::profileJointLoop(const ProgramAnalysis &PA,
                                    const std::vector<int32_t> &Members,
                                    const ColumnarTrace &CT,
                                    unsigned MaxLen) {
  Span S("profiles.joint", "kernel");
  S.arg("events", static_cast<uint64_t>(CT.size()));
  JointProfile Out;
  uint32_t FuncIdx = 0;
  const Loop *L = nullptr;
  if (!sharedLoop(PA, Members, FuncIdx, L))
    return Out;

  std::vector<int32_t> Sorted = Members;
  std::sort(Sorted.begin(), Sorted.end());
  const size_t NumMembers = Sorted.size();

  // Per branch id: Outside, InLoop (a non-member inside the loop: no
  // transition, no reset) or the member index. An id with no branch is
  // outside every loop.
  constexpr int32_t Outside = -2, InLoop = -1;
  std::vector<int32_t> Role(PA.numBranches(), Outside);
  for (uint32_t Id = 0; Id < PA.numBranches(); ++Id) {
    const BranchRef &R = PA.ref(static_cast<int32_t>(Id));
    if (R.FuncIdx == FuncIdx && L->contains(R.BlockIdx))
      Role[Id] = InLoop;
  }
  for (size_t MI = NumMembers; MI-- > 0;) // a repeated id keeps its first
    Role[static_cast<uint32_t>(Sorted[MI])] = static_cast<int32_t>(MI);

  // One global-order pass over the id column and the packed directions,
  // counting per (history, member).
  const int32_t *Ids = CT.ids().data();
  const BitstreamView Dirs = CT.directions();
  JointHistories Histories(MaxLen);
  std::vector<DirCounts> Counts;
  uint32_t History = JointHistories::Start;
  for (size_t I = 0, N = CT.size(); I < N; ++I) {
    const uint32_t Id = static_cast<uint32_t>(Ids[I]);
    const int32_t MI = Id < Role.size() ? Role[Id] : Outside;
    if (MI < 0) {
      if (MI == Outside)
        History = JointHistories::Start;
      continue;
    }
    const bool Taken = Dirs.bit(I);
    const size_t Slot = History * NumMembers + static_cast<size_t>(MI);
    if (Slot >= Counts.size())
      Counts.resize(Histories.size() * NumMembers);
    Counts[Slot].record(Taken);
    ++Out.Executions;
    History = Histories.next(History, symbolOf(MI, Taken));
  }

  // Every history that counted a member execution, with its per-member
  // counts.
  for (uint32_t H = 0; H * NumMembers < Counts.size(); ++H) {
    auto First = Counts.begin() + static_cast<long>(H * NumMembers);
    if (std::any_of(First, First + static_cast<long>(NumMembers),
                    [](const DirCounts &C) { return C.total() > 0; }))
      Out.PerPattern.emplace(Histories.history(H),
                             std::vector<DirCounts>(
                                 First, First + static_cast<long>(NumMembers)));
  }
  return Out;
}

JointLoopMachine
bpcr::buildJointLoopMachine(const std::vector<int32_t> &Members,
                            const JointProfile &Profile,
                            const JointOptions &Opts) {
  Span SSearch("search.joint.candidate", "search");
  SSearch.arg("max_states", static_cast<uint64_t>(Opts.MaxStates));
  JointLoopMachine M;
  M.Members = Members;
  std::sort(M.Members.begin(), M.Members.end());

  // The shared suffix-selection engine with one count channel per member
  // and the empty string forced as the initial / catch-all state.
  const size_t NumMembers = M.Members.size();
  std::vector<SymbolString> Patterns;
  std::vector<DirCounts> ChannelCounts;
  Patterns.reserve(Profile.PerPattern.size());
  ChannelCounts.reserve(Profile.PerPattern.size() * NumMembers);
  for (const auto &[Syms, PerMember] : Profile.PerPattern) {
    Patterns.push_back(Syms);
    for (size_t J = 0; J < NumMembers; ++J)
      ChannelCounts.push_back(J < PerMember.size() ? PerMember[J]
                                                   : DirCounts());
  }
  SelectOptions Sel;
  Sel.MaxSelected = Opts.MaxStates;
  Sel.MinLen = 1;
  Sel.MaxLen = Opts.MaxLen;
  Sel.Exhaustive = Opts.Exhaustive;
  Sel.NodeBudget = Opts.NodeBudget;
  Sel.SubstringClosure = true;
  SuffixSelection Best =
      selectSuffixStates(Patterns, ChannelCounts,
                         static_cast<unsigned>(NumMembers), {SymbolString()},
                         Sel);
  M.States = std::move(Best.States); // sorted; the empty state is index 0
  assert(!M.States.empty() && M.States.front().empty());
  if (Registry::global().enabled()) {
    Registry &Obs = Registry::global();
    Obs.counter("search.joint.machines").inc();
    if (Best.BudgetExhausted)
      Obs.counter("search.budget_exhausted").inc();
  }
  SSearch.arg("patterns", static_cast<uint64_t>(Patterns.size()));
  SSearch.arg("correct", Best.Correct);

  // Fit per-(state, member) predictions by longest-suffix assignment.
  std::vector<std::vector<DirCounts>> Counts(
      M.States.size(), std::vector<DirCounts>(M.Members.size()));
  auto Assign = [&M](const SymbolString &Syms) -> size_t {
    for (size_t L = Syms.size(); L >= 1; --L) {
      SymbolString Probe = suffixOf(Syms, L);
      auto It = std::lower_bound(M.States.begin(), M.States.end(), Probe,
                                 stringLess);
      if (It != M.States.end() && *It == Probe)
        return static_cast<size_t>(It - M.States.begin());
      if (L == 1)
        break;
    }
    return 0;
  };
  for (const auto &[Syms, PerMember] : Profile.PerPattern) {
    size_t S = Syms.empty() ? 0 : Assign(Syms);
    for (size_t J = 0; J < PerMember.size() && J < M.Members.size(); ++J) {
      Counts[S][J].Taken += PerMember[J].Taken;
      Counts[S][J].NotTaken += PerMember[J].NotTaken;
    }
  }

  M.Predictions.assign(M.States.size(),
                       std::vector<uint8_t>(M.Members.size(), 1));
  M.Correct = 0;
  M.Total = 0;
  for (size_t S = 0; S < M.States.size(); ++S)
    for (size_t J = 0; J < M.Members.size(); ++J) {
      M.Predictions[S][J] = Counts[S][J].majorityTaken() ? 1 : 0;
      M.Correct += std::max(Counts[S][J].Taken, Counts[S][J].NotTaken);
      M.Total += Counts[S][J].total();
    }
  return M;
}

PredictionStats bpcr::evaluateJointMachine(const JointLoopMachine &M,
                                           const ProgramAnalysis &PA,
                                           const ColumnarTrace &CT) {
  PredictionStats Stats;
  if (M.Members.empty())
    return Stats;
  uint32_t FuncIdx = 0;
  const Loop *L = nullptr;
  if (!sharedLoop(PA, M.Members, FuncIdx, L))
    return Stats;

  unsigned State = M.initialState();
  for (size_t I = 0, N = CT.size(); I < N; ++I) {
    const int32_t Id = CT.branchId(I);
    // An id with no branch is outside the loop.
    const bool Inside = Id >= 0 &&
                        static_cast<uint32_t>(Id) < PA.numBranches() &&
                        PA.ref(Id).FuncIdx == FuncIdx &&
                        L->contains(PA.ref(Id).BlockIdx);
    if (!Inside) {
      State = M.initialState();
      continue;
    }
    int MI = M.memberIndex(Id);
    if (MI < 0)
      continue;
    const bool Taken = CT.taken(I);
    Stats.record(M.predictTaken(State, MI) == Taken);
    State = M.next(State, MI, Taken);
  }
  return Stats;
}
