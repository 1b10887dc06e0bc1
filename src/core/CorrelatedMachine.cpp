//===- core/CorrelatedMachine.cpp -----------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/CorrelatedMachine.h"

#include "obs/TraceSpans.h"
#include "support/ThreadPool.h"
#include "trace/ColumnarTrace.h"
#include "trace/TraceStream.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <span>

using namespace bpcr;

namespace {

/// Packs a decision step into one selection symbol.
uint32_t encodeStep(const PathStep &S) {
  return (static_cast<uint32_t>(S.BranchId) << 1) | (S.Taken ? 1U : 0U);
}

PathStep decodeStep(uint32_t Sym) {
  return {static_cast<int32_t>(Sym >> 1), (Sym & 1U) != 0};
}

BranchPath decodePath(const SymbolString &S) {
  BranchPath P;
  P.Steps.reserve(S.size());
  for (uint32_t Sym : S)
    P.Steps.push_back(decodeStep(Sym));
  return P;
}

} // namespace

SymbolString bpcr::encodePathSteps(const BranchPath &P) {
  SymbolString S;
  S.reserve(P.Steps.size());
  for (const PathStep &Step : P.Steps)
    S.push_back(encodeStep(Step));
  return S;
}

int CorrelatedMachine::match(const std::vector<PathStep> &Recent) const {
  // Paths are sorted by (length, content); probe longest first.
  for (size_t L = std::min<size_t>(Recent.size(), MaxPathLen); L >= 1; --L) {
    BranchPath Probe;
    Probe.Steps.assign(Recent.end() - static_cast<long>(L), Recent.end());
    SymbolString Key = encodePathSteps(Probe);
    for (size_t I = Paths.size(); I-- > 0;) {
      if (Paths[I].Steps.size() != L)
        continue;
      if (encodePathSteps(Paths[I]) == Key)
        return static_cast<int>(I);
    }
    if (L == 1)
      break;
  }
  return -1;
}

namespace {

/// Span-vs-key order for binary searches over sorted SymbolStrings.
bool keyLess(const SymbolString &K, std::span<const uint32_t> S) {
  return std::lexicographical_compare(K.begin(), K.end(), S.begin(),
                                      S.end());
}

/// Position of \p S in the sorted range [First, Last), or Last.
std::vector<SymbolString>::const_iterator
findKey(std::vector<SymbolString>::const_iterator First,
        std::vector<SymbolString>::const_iterator Last,
        std::span<const uint32_t> S) {
  auto It = std::lower_bound(First, Last, S, keyLess);
  if (It != Last &&
      std::equal(It->begin(), It->end(), S.begin(), S.end()))
    return It;
  return Last;
}

/// The matcher behind profilePaths: an Aho-Corasick automaton over every
/// branch's candidate keys (oldest decision first). A state is a prefix of
/// some key: the longest one the decisions so far end with. Every key
/// that matches the recent decisions ends that prefix, so a state and the
/// next event's branch fix the event's count slot.
///
/// PathKeys holds the keys and states, read-only once built and shared by
/// every worker of a pass. Each worker's PathAutomaton builds transitions,
/// keyed by (state, event symbol), on first use into its own flat
/// open-addressing table; a transition carries both the event's slot and
/// the next state, so a pass costs one table probe per event. The states
/// are bounded by the candidates and the table by MaxTransitions (it
/// starts over when full), whatever the trace.
class PathKeys {
public:
  /// Count slots: one per distinct candidate key, numbered in each
  /// branch's sorted key order, then one unmatched slot per branch, then
  /// one for events whose id has no branch.
  PathKeys(const std::vector<std::vector<BranchPath>> &CandidatesByBranch,
           unsigned MaxPathLen) {
    FirstSlot.reserve(CandidatesByBranch.size() + 1);
    for (const std::vector<BranchPath> &Cands : CandidatesByBranch) {
      FirstSlot.push_back(static_cast<uint32_t>(Keys.size()));
      size_t First = Keys.size();
      for (const BranchPath &P : Cands)
        if (!P.Steps.empty() && P.Steps.size() <= MaxPathLen)
          Keys.push_back(encodePathSteps(P));
      sortUnique(Keys, First);
    }
    FirstSlot.push_back(static_cast<uint32_t>(Keys.size()));

    States.push_back({}); // the empty prefix sorts first: Start
    for (const SymbolString &K : Keys)
      for (size_t L = 1; L <= K.size(); ++L)
        States.emplace_back(K.begin(), K.begin() + static_cast<long>(L));
    sortUnique(States, 0);
  }

  size_t numBranches() const { return FirstSlot.size() - 1; }
  size_t numSlots() const { return Keys.size() + numBranches() + 1; }
  uint32_t unmatchedSlot(size_t B) const {
    return static_cast<uint32_t>(Keys.size() + B);
  }
  const SymbolString &key(uint32_t Slot) const { return Keys[Slot]; }
  uint32_t firstSlot(size_t B) const { return FirstSlot[B]; }

  /// The state before the first event.
  static constexpr uint32_t Start = 0;

  /// Longest candidate of branch \p Id that \p State's prefix ends with.
  uint32_t slotFor(uint32_t State, int32_t Id) const {
    const SymbolString &Prefix = States[State];
    size_t B = static_cast<size_t>(Id);
    if (B >= numBranches())
      return static_cast<uint32_t>(numSlots() - 1);
    auto First = Keys.begin() + FirstSlot[B];
    auto Last = Keys.begin() + FirstSlot[B + 1];
    for (size_t L = Prefix.size(); L >= 1; --L) {
      auto It = findKey(First, Last,
                        std::span(Prefix).subspan(Prefix.size() - L));
      if (It != Last)
        return static_cast<uint32_t>(It - Keys.begin());
    }
    return unmatchedSlot(B);
  }

  /// The longest state that \p State's prefix followed by \p Sym ends
  /// with. \p Scratch is the caller's buffer.
  uint32_t nextState(uint32_t State, uint32_t Sym,
                     SymbolString &Scratch) const {
    Scratch.assign(States[State].begin(), States[State].end());
    Scratch.push_back(Sym);
    for (size_t Drop = 0; Drop < Scratch.size(); ++Drop) {
      auto It = findKey(States.begin(), States.end(),
                        std::span(Scratch).subspan(Drop));
      if (It != States.end())
        return static_cast<uint32_t>(It - States.begin());
    }
    return Start;
  }

private:
  static void sortUnique(std::vector<SymbolString> &V, size_t First) {
    std::sort(V.begin() + static_cast<long>(First), V.end());
    V.erase(std::unique(V.begin() + static_cast<long>(First), V.end()),
            V.end());
  }

  std::vector<SymbolString> Keys;
  std::vector<uint32_t> FirstSlot;
  /// Every distinct prefix of a key, sorted; a state is an index here.
  std::vector<SymbolString> States;
};

/// One worker's transition cache over shared PathKeys.
class PathAutomaton {
public:
  explicit PathAutomaton(const PathKeys &Keys) : Keys(Keys) { resize(256); }

  /// Advances \p State over the event (\p Id, \p Taken); \returns the
  /// event's count slot.
  uint32_t step(uint32_t &State, int32_t Id, bool Taken) {
    const uint32_t Sym = encodeStep({Id, Taken});
    const uint64_t Key = keyOf(State, Sym);
    size_t H = home(Key);
    while (Table[H].Key != Key) {
      if (Table[H].Key == Empty) {
        H = add(State, Id, Sym);
        break;
      }
      H = (H + 1) & (Table.size() - 1);
    }
    State = Table[H].Next;
    return Table[H].Slot;
  }

private:
  struct Transition {
    uint64_t Key;
    uint32_t Next;
    uint32_t Slot;
  };
  static constexpr uint64_t Empty = UINT64_MAX;
  static constexpr size_t MaxTransitions = size_t{1} << 16;

  static uint64_t keyOf(uint32_t State, uint32_t Sym) {
    return (uint64_t{State} << 32) | Sym;
  }

  size_t home(uint64_t Key) const {
    return static_cast<size_t>((Key * 0x9E3779B97F4A7C15ULL) >> Shift);
  }

  /// Builds the transition from \p State over (\p Id, \p Sym); \returns
  /// its table index.
  size_t add(uint32_t State, int32_t Id, uint32_t Sym) {
    if (Used == MaxTransitions) {
      resize(256);
      Used = 0;
    } else if (2 * (Used + 1) > Table.size()) {
      std::vector<Transition> Old = std::move(Table);
      resize(2 * Old.size());
      for (const Transition &T : Old)
        if (T.Key != Empty)
          Table[place(T.Key)] = T;
    }
    const uint64_t Key = keyOf(State, Sym);
    size_t H = place(Key);
    Table[H] = {Key, Keys.nextState(State, Sym, Extended),
                Keys.slotFor(State, Id)};
    ++Used;
    return H;
  }

  /// First free table index on \p Key's probe sequence.
  size_t place(uint64_t Key) const {
    size_t H = home(Key);
    while (Table[H].Key != Empty)
      H = (H + 1) & (Table.size() - 1);
    return H;
  }

  void resize(size_t Size) {
    Table.assign(Size, {Empty, 0, 0});
    Shift = 64 - static_cast<unsigned>(std::countr_zero(Size));
  }

  const PathKeys &Keys;
  std::vector<Transition> Table;
  unsigned Shift = 0;
  size_t Used = 0;
  /// nextState's buffer, reused so building a transition does not
  /// allocate once it has grown.
  SymbolString Extended;
};

} // namespace

struct PathWalk::State {
  State(const std::vector<std::vector<BranchPath>> &CandidatesByBranch,
        unsigned MaxPathLen)
      : Keys(CandidatesByBranch, MaxPathLen), MaxPathLen(MaxPathLen) {}

  /// One worker's transition cache and per-slot counts, kept across the
  /// chunks it walks.
  struct Worker {
    explicit Worker(const PathKeys &Keys)
        : Paths(Keys), Counts(Keys.numSlots()) {}
    PathAutomaton Paths;
    std::vector<DirCounts> Counts;
  };

  const PathKeys Keys;
  const unsigned MaxPathLen;
  std::vector<std::unique_ptr<Worker>> Workers;
};

PathWalk::PathWalk(
    const std::vector<std::vector<BranchPath>> &CandidatesByBranch,
    unsigned MaxPathLen, unsigned Workers)
    : S(std::make_unique<State>(CandidatesByBranch, MaxPathLen)) {
  S->Workers.resize(std::max(Workers, 1u));
}

PathWalk::~PathWalk() = default;

void PathWalk::walkChunk(size_t, EventRange R, TraceColumns Cols,
                         unsigned WorkerIdx) {
  // One table probe and one counter bump per event, no allocation and no
  // map lookup (those happen only when a context is first seen). The
  // automaton's state depends only on the last MaxPathLen events (no
  // state is longer), so a chunk starts from the state it reaches over
  // those events from Start; it is the one a whole-trace pass would be in.
  std::unique_ptr<State::Worker> &W = S->Workers[WorkerIdx];
  if (!W)
    W = std::make_unique<State::Worker>(S->Keys);
  PathAutomaton &Paths = W->Paths;
  DirCounts *Counts = W->Counts.data();
  const int32_t *Ids = Cols.Ids;
  uint32_t At = PathKeys::Start;
  for (size_t I = R.Begin - std::min<size_t>(R.Begin, S->MaxPathLen);
       I < R.Begin; ++I)
    Paths.step(At, Ids[I], Cols.taken(I));
  for (size_t I = R.Begin; I < R.End; ++I) {
    const bool Taken = Cols.taken(I);
    Counts[Paths.step(At, Ids[I], Taken)].record(Taken);
  }
}

std::vector<PathProfile> PathWalk::profiles() const {
  const PathKeys &Keys = S->Keys;
  std::vector<DirCounts> Counts(Keys.numSlots());
  for (const std::unique_ptr<State::Worker> &W : S->Workers)
    if (W)
      for (size_t Slot = 0; Slot < Counts.size(); ++Slot) {
        Counts[Slot].Taken += W->Counts[Slot].Taken;
        Counts[Slot].NotTaken += W->Counts[Slot].NotTaken;
      }

  // Slots run in sorted key order within each branch; report the keys that
  // were hit.
  std::vector<PathProfile> Out(Keys.numBranches());
  for (size_t B = 0; B < Out.size(); ++B) {
    for (uint32_t Slot = Keys.firstSlot(B); Slot < Keys.firstSlot(B + 1);
         ++Slot)
      if (Counts[Slot].total() > 0)
        Out[B].PerPath.emplace_back(Keys.key(Slot), Counts[Slot]);
    Out[B].Unmatched = Counts[Keys.unmatchedSlot(B)];
  }
  return Out;
}

std::vector<PathProfile> bpcr::profilePaths(
    const std::vector<std::vector<BranchPath>> &CandidatesByBranch,
    const ColumnarTrace &CT, unsigned MaxPathLen, unsigned Jobs,
    size_t ChunkEvents) {
  Span S("profiles.paths", "kernel");
  S.arg("events", static_cast<uint64_t>(CT.size()));
  const unsigned Workers = threadsFor(Jobs);
  PathWalk Walk(CandidatesByBranch, MaxPathLen, Workers);
  walkChunks(CT.columns(), CT.size(), ChunkEvents, Workers,
             [&Walk](size_t Chunk, EventRange R, TraceColumns Cols,
                     unsigned Worker) {
               Walk.walkChunk(Chunk, R, Cols, Worker);
             });
  return Walk.profiles();
}

CorrelatedMachine
bpcr::buildCorrelatedMachineFromProfile(int32_t BranchId,
                                        const PathProfile &Profile,
                                        const CorrelatedOptions &Opts) {
  CorrelatedMachine M;
  M.BranchId = BranchId;
  M.MaxPathLen = Opts.MaxPathLen;

  std::vector<ObservedPattern> Patterns;
  for (const auto &[Key, Counts] : Profile.PerPath)
    Patterns.push_back({Key, Counts});
  if (Profile.Unmatched.total() > 0)
    Patterns.push_back({SymbolString(), Profile.Unmatched});

  SelectOptions Sel;
  assert(Opts.MaxStates >= 2 && "need room for a path plus the catch-all");
  Sel.MaxSelected = Opts.MaxStates - 1; // the catch-all takes one state
  Sel.MinLen = 1;
  Sel.MaxLen = Opts.MaxPathLen;
  Sel.Exhaustive = Opts.Exhaustive;
  Sel.NodeBudget = Opts.NodeBudget;

  SuffixSelection Selected = selectSuffixStates(Patterns, {}, Sel);

  for (size_t I = 0; I < Selected.States.size(); ++I) {
    M.Paths.push_back(decodePath(Selected.States[I]));
    M.PathPred.push_back(Selected.StatePred[I]);
  }
  M.DefaultPred = Selected.DefaultPred;
  M.Correct = Selected.Correct;
  M.Total = Selected.Total;
  return M;
}

PredictionStats bpcr::evaluateCorrelatedMachine(const CorrelatedMachine &M,
                                                const ColumnarTrace &CT) {
  PredictionStats Stats;
  std::vector<PathStep> Recent;
  for (size_t I = 0, N = CT.size(); I < N; ++I) {
    const PathStep E{CT.branchId(I), CT.taken(I)};
    if (E.BranchId == M.BranchId)
      Stats.record(M.predictFor(Recent) == E.Taken);
    Recent.push_back(E);
    if (Recent.size() > M.MaxPathLen)
      Recent.erase(Recent.begin());
  }
  return Stats;
}
