//===- core/SearchCache.cpp -----------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/SearchCache.h"

#include "obs/Metrics.h"
#include "obs/TraceSpans.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <unordered_map>

using namespace bpcr;

//===----------------------------------------------------------------------===//
// Ladder construction
//===----------------------------------------------------------------------===//

namespace {

/// True when dropping States[Idx] keeps the set substring-closed: the state
/// is longer than the forced base and no other state extends it by one
/// symbol (older symbol prepended — suffix parent — or newer appended —
/// init parent).
bool canRemoveState(const std::vector<SymbolString> &States, size_t Idx,
                    size_t BaseLen) {
  const SymbolString &S = States[Idx];
  if (S.size() <= BaseLen)
    return false;
  for (const SymbolString &X : States) {
    if (X.size() != S.size() + 1)
      continue;
    if (std::equal(S.begin(), S.end(), X.begin() + 1) ||
        std::equal(S.begin(), S.end(), X.begin()))
      return false;
  }
  return true;
}

/// Fills rungs [L.MinBudget, Top] by truncating \p M: repeatedly drop the
/// closure-preserving leaf state whose removal keeps the most correct
/// predictions (first wins ties). Used when the search that produced \p M
/// exhausted its node budget — the result is greedy-quality either way, so
/// re-running a full exhausted search per rung buys nothing but the node
/// budget's cost again at every level. Returns the first budget the
/// truncation could not reach (it cannot shrink past the forced base), or
/// L.MinBudget - 1 when every rung was filled.
unsigned fillRungsByTruncation(IntraLoopLadder &L, const PatternTable &Table,
                               const SuffixMachine &M, unsigned Top) {
  std::vector<ObservedPattern> Patterns = patternsFromTable(Table);
  std::vector<SymbolString> States = M.states();
  size_t BaseLen = SIZE_MAX;
  for (const SymbolString &S : States)
    BaseLen = std::min(BaseLen, S.size());

  uint64_t Filled = 0;
  unsigned B = Top;
  for (; B >= L.MinBudget; --B) {
    while (States.size() > B) {
      long BestIdx = -1;
      uint64_t BestCorrect = 0;
      for (size_t I = 0; I < States.size(); ++I) {
        if (!canRemoveState(States, I, BaseLen))
          continue;
        std::vector<SymbolString> Next = States;
        Next.erase(Next.begin() + static_cast<long>(I));
        uint64_t C = scoreStateSet(Patterns, Next).Correct;
        if (BestIdx < 0 || C > BestCorrect) {
          BestIdx = static_cast<long>(I);
          BestCorrect = C;
        }
      }
      if (BestIdx < 0)
        break; // only the forced base is left; lower rungs need a search
      States.erase(States.begin() + BestIdx);
    }
    if (States.size() > B)
      break;
    SuffixSelection Sel = scoreStateSet(Patterns, States);
    Sel.BudgetExhausted = true;
    L.ByBudget[B] = SuffixMachine::fromSelection(Sel);
    ++Filled;
    if (B == L.MinBudget) {
      --B;
      break;
    }
  }
  if (Filled && Registry::global().enabled())
    Registry::global().counter("search.intra_loop.truncated_rungs").add(Filled);
  return B;
}

} // namespace

IntraLoopLadder bpcr::buildIntraLoopLadder(const PatternTable &Table,
                                           const MachineOptions &Opts,
                                           unsigned MinBudget) {
  Span S("search.intra_loop.ladder", "search");
  S.arg("max_states", static_cast<uint64_t>(Opts.MaxStates));

  IntraLoopLadder L;
  L.MaxStates = Opts.MaxStates;
  L.MinBudget = std::max(2u, std::min(MinBudget, Opts.MaxStates));
  L.ByBudget.resize(Opts.MaxStates + 1);

  // Downward fill: the winner at budget N is optimal for every budget down
  // to its own state count (suffix closure means a machine's size bounds
  // its pattern lengths, so smaller budgets admit strict subsets). Repeat
  // just below the filled range until the ladder floor is reached. When a
  // search exhausts its node budget the remaining rungs are filled by
  // truncating its winner instead — every further search would exhaust too,
  // paying the full node budget per rung for another greedy-quality answer.
  unsigned N = Opts.MaxStates;
  while (N >= L.MinBudget) {
    MachineOptions MO = Opts;
    MO.MaxStates = N;
    bool Exhausted = false;
    SuffixMachine M = buildIntraLoopMachine(Table, MO, &Exhausted);
    unsigned Floor = std::max(L.MinBudget, std::max(2u, M.numStates()));
    for (unsigned B = N; B >= Floor; --B)
      L.ByBudget[B] = M;
    if (Floor <= L.MinBudget)
      break;
    if (Exhausted) {
      N = fillRungsByTruncation(L, Table, M, Floor - 1);
      if (N < L.MinBudget)
        break;
      continue; // resume searching at the rung truncation could not reach
    }
    N = Floor - 1;
  }
  return L;
}

ExitLadder bpcr::buildExitLadder(const PatternTable &Table, unsigned MaxStates,
                                 bool StayOnTaken) {
  assert(MaxStates >= 2 && "exit ladder needs at least two states");
  Span S("search.exit.ladder", "search");
  S.arg("max_states", static_cast<uint64_t>(MaxStates));

  ExitLadder L;
  L.MaxStates = MaxStates;
  L.MinBudget = 2;
  L.ByBudget.resize(MaxStates + 1);

  // The chain family is small enough to enumerate: budget N admits chains
  // up to N-1 and parity tails up to chain N-2. Candidates arrive in the
  // same order buildExitMachine probes them — (N-2) parity before (N-1)
  // plain — so the running best (strict improvement, first wins ties)
  // reproduces its per-budget results with one fit per shape.
  uint64_t Fits = 1;
  ExitChainMachine Best =
      ExitChainMachine::fit(Table, /*ChainLen=*/1, /*Parity=*/false,
                            StayOnTaken);
  L.ByBudget[2] = Best;
  for (unsigned N = 3; N <= MaxStates; ++N) {
    ExitChainMachine P = ExitChainMachine::fit(Table, N - 2, /*Parity=*/true,
                                               StayOnTaken);
    if (P.Correct > Best.Correct)
      Best = std::move(P);
    ExitChainMachine F = ExitChainMachine::fit(Table, N - 1, /*Parity=*/false,
                                               StayOnTaken);
    if (F.Correct > Best.Correct)
      Best = std::move(F);
    Fits += 2;
    L.ByBudget[N] = Best;
  }

  Registry &Obs = Registry::global();
  if (Obs.enabled())
    Obs.counter("search.exit.machines").add(Fits);
  return L;
}

CorrelatedLadder bpcr::buildCorrelatedLadder(int32_t BranchId,
                                             const PathProfile &Profile,
                                             const CorrelatedOptions &Opts,
                                             unsigned MinBudget) {
  Span S("search.correlated.ladder", "search");
  S.arg("branch", static_cast<int64_t>(BranchId));
  S.arg("max_states", static_cast<uint64_t>(Opts.MaxStates));

  CorrelatedLadder L;
  L.MaxStates = Opts.MaxStates;
  L.MinBudget = std::max(2u, std::min(MinBudget, Opts.MaxStates));
  L.ByBudget.resize(Opts.MaxStates + 1);

  // Same downward fill as the intra-loop ladder; path states are
  // independent, so a machine with K states (paths plus catch-all) is
  // feasible — and optimal — at every budget in [K, N].
  unsigned N = Opts.MaxStates;
  while (N >= L.MinBudget) {
    CorrelatedOptions CO = Opts;
    CO.MaxStates = N;
    CorrelatedMachine M =
        buildCorrelatedMachineFromProfile(BranchId, Profile, CO);
    unsigned Floor = std::max(L.MinBudget, std::max(2u, M.numStates()));
    for (unsigned B = N; B >= Floor; --B)
      L.ByBudget[B] = M;
    if (Floor <= L.MinBudget)
      break;
    N = Floor - 1;
  }
  return L;
}

//===----------------------------------------------------------------------===//
// Cache
//===----------------------------------------------------------------------===//

namespace {

/// splitmix64 finalizer: a cheap, well-distributed 64-bit mixer.
uint64_t mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

struct CacheKey {
  uint64_t H1 = 0;
  uint64_t H2 = 0;
  bool operator==(const CacheKey &O) const {
    return H1 == O.H1 && H2 == O.H2;
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey &K) const {
    return static_cast<size_t>(K.H1);
  }
};

/// Order-sensitive 128-bit fingerprint accumulator with an
/// order-independent entry point for unordered containers.
struct Fingerprint {
  uint64_t H1 = 0x243F6A8885A308D3ull;
  uint64_t H2 = 0x13198A2E03707344ull;

  void word(uint64_t W) {
    H1 = mix64(H1 ^ W);
    H2 = mix64(H2 + W);
  }

  /// Commutative accumulation: each entry is mixed into two independent
  /// sums, so iteration order of an unordered_map cannot change the key.
  void unorderedEntry(uint64_t A, uint64_t B, uint64_t C) {
    uint64_t E = mix64(mix64(A) ^ mix64(B + 0x452821E638D01377ull) ^
                       mix64(C + 0xBE5466CF34E90C6Cull));
    H1 += E;
    H2 += mix64(E ^ 0xC0AC29B7C97C50DDull);
  }

  CacheKey key() const { return {H1, H2}; }
};

void hashTable(Fingerprint &F, const PatternTable &Table) {
  F.word(Table.maxBits());
  F.word(Table.full().size());
  for (const auto &[Pattern, Counts] : Table.full())
    F.unorderedEntry(Pattern, Counts.Taken, Counts.NotTaken);
}

void hashProfile(Fingerprint &F, const PathProfile &Profile) {
  // PerPath is built from a std::map walk, so its order is deterministic
  // and plain sequential hashing is sound.
  F.word(Profile.PerPath.size());
  for (const auto &[Key, Counts] : Profile.PerPath) {
    F.word(Key.size());
    for (uint32_t Sym : Key)
      F.word(Sym);
    F.word(Counts.Taken);
    F.word(Counts.NotTaken);
  }
  F.word(Profile.Unmatched.Taken);
  F.word(Profile.Unmatched.NotTaken);
}

/// One cache slot; the first requester fills Value, everyone else blocks on
/// the condition variable. Ready/Failed transitions happen under M.
template <typename T> struct Slot {
  std::mutex M;
  std::condition_variable CV;
  std::shared_ptr<const T> Value;
  bool Failed = false;
};

template <typename T>
using Shard = std::unordered_map<CacheKey, std::shared_ptr<Slot<T>>,
                                 CacheKeyHash>;

} // namespace

struct SearchCache::Impl {
  std::mutex Mu;
  Shard<IntraLoopLadder> Intra;
  Shard<ExitLadder> Exit;
  Shard<CorrelatedLadder> Corr;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};

  template <typename T, typename BuildFn>
  std::shared_ptr<const T> get(Shard<T> &S, const CacheKey &K,
                               const BuildFn &Build) {
    std::shared_ptr<Slot<T>> SlotPtr;
    bool IsMiss = false;
    Registry &Obs = Registry::global();
    {
      std::lock_guard<std::mutex> Lock(Mu);
      std::shared_ptr<Slot<T>> &Entry = S[K];
      IsMiss = !Entry;
      if (IsMiss)
        Entry = std::make_shared<Slot<T>>();
      SlotPtr = Entry;
      (IsMiss ? Misses : Hits).fetch_add(1, std::memory_order_relaxed);
    }
    if (Obs.enabled())
      Obs.counter(IsMiss ? "search.cache.misses" : "search.cache.hits").inc();

    if (IsMiss) {
      try {
        auto Value = std::make_shared<const T>(Build());
        std::lock_guard<std::mutex> SlotLock(SlotPtr->M);
        SlotPtr->Value = Value;
        SlotPtr->CV.notify_all();
        return Value;
      } catch (...) {
        {
          std::lock_guard<std::mutex> SlotLock(SlotPtr->M);
          SlotPtr->Failed = true;
          SlotPtr->CV.notify_all();
        }
        std::lock_guard<std::mutex> Lock(Mu);
        auto It = S.find(K);
        if (It != S.end() && It->second == SlotPtr)
          S.erase(It);
        throw;
      }
    }

    std::unique_lock<std::mutex> SlotLock(SlotPtr->M);
    SlotPtr->CV.wait(SlotLock, [&] { return SlotPtr->Value || SlotPtr->Failed; });
    if (SlotPtr->Value)
      return SlotPtr->Value;
    // The computing thread failed (allocation); fall back to building
    // locally rather than surfacing its exception here.
    SlotLock.unlock();
    return std::make_shared<const T>(Build());
  }
};

SearchCache::SearchCache() : P(std::make_unique<Impl>()) {}
SearchCache::~SearchCache() = default;

SearchCache &SearchCache::global() {
  static SearchCache C;
  return C;
}

std::shared_ptr<const IntraLoopLadder>
SearchCache::intraLoopLadder(const PatternTable &Table,
                             const MachineOptions &Opts, unsigned MinBudget) {
  auto Build = [&] { return buildIntraLoopLadder(Table, Opts, MinBudget); };
  Fingerprint F;
  F.word(0xA11); // family tag
  F.word(Opts.MaxStates);
  F.word(Opts.MaxPatternLen);
  F.word(Opts.Exhaustive);
  F.word(Opts.NodeBudget);
  F.word(MinBudget);
  hashTable(F, Table);
  return P->get(P->Intra, F.key(), Build);
}

std::shared_ptr<const ExitLadder>
SearchCache::exitLadder(const PatternTable &Table, unsigned MaxStates,
                        bool StayOnTaken) {
  auto Build = [&] { return buildExitLadder(Table, MaxStates, StayOnTaken); };
  Fingerprint F;
  F.word(0xB22); // family tag
  F.word(MaxStates);
  F.word(StayOnTaken);
  hashTable(F, Table);
  return P->get(P->Exit, F.key(), Build);
}

std::shared_ptr<const CorrelatedLadder>
SearchCache::correlatedLadder(int32_t BranchId, const PathProfile &Profile,
                              const CorrelatedOptions &Opts,
                              unsigned MinBudget) {
  auto Build = [&] {
    return buildCorrelatedLadder(BranchId, Profile, Opts, MinBudget);
  };
  Fingerprint F;
  F.word(0xC33); // family tag
  F.word(static_cast<uint64_t>(static_cast<int64_t>(BranchId)));
  F.word(Opts.MaxStates);
  F.word(Opts.MaxPathLen);
  F.word(Opts.Exhaustive);
  F.word(Opts.NodeBudget);
  F.word(MinBudget);
  hashProfile(F, Profile);
  return P->get(P->Corr, F.key(), Build);
}

SearchCache::Stats SearchCache::stats() const {
  Stats S;
  S.Hits = P->Hits.load(std::memory_order_relaxed);
  S.Misses = P->Misses.load(std::memory_order_relaxed);
  return S;
}

void SearchCache::clear() {
  std::lock_guard<std::mutex> Lock(P->Mu);
  P->Intra.clear();
  P->Exit.clear();
  P->Corr.clear();
  P->Hits.store(0, std::memory_order_relaxed);
  P->Misses.store(0, std::memory_order_relaxed);
}
