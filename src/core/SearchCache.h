//===- core/SearchCache.h - Memoized machine-search ladders -----*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memoization for the per-branch machine search, built around *ladders*:
/// the best machine per state budget N = MinBudget..MaxStates for one
/// branch family. One branch-and-bound run at the deepest budget fills
/// every rung its winner covers — the best machine within budget B that
/// uses K <= B states is also the best for every budget in [K, B], because
/// the feasible sets are nested — so a full ladder costs a handful of
/// searches instead of one per rung. The per-branch machine search
/// (searchBranchLadders, core/StrategySelection.h) is the only client;
/// selection passes MinBudget == MaxStates and pays exactly one search per
/// family, the size sweep passes 2.
///
/// The cache keys ladders by a 128-bit content fingerprint (pattern table
/// or path profile) plus every search option, so identical branches across
/// one program — and repeated pipeline runs in one process — share results.
/// Concurrent requests for the same key deduplicate in flight: the first
/// requester computes (one miss), later requesters block on the entry (one
/// hit each), which keeps the `search.cache.{hits,misses}` counters
/// byte-identical across `--jobs` values.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_CORE_SEARCHCACHE_H
#define BPCR_CORE_SEARCHCACHE_H

#include "core/CorrelatedMachine.h"
#include "core/MachineSearch.h"
#include "support/CountingAlloc.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace bpcr {

/// Best machine per state budget for one family. ByBudget[N] is filled for
/// N in [MinBudget, MaxStates]; index 0 and 1 are never populated (one
/// state is the machine-less profile prediction).
template <typename MachineT> struct MachineLadder {
  unsigned MaxStates = 0;
  unsigned MinBudget = 2;
  /// Rung storage reports into the opt-in allocation tracker
  /// (support/CountingAlloc.h): the cached ladders dominate the search's
  /// resident memory, so `bpcr profile` accounts them separately.
  std::vector<MachineT, CountingAllocator<MachineT, AllocTag::Ladder>>
      ByBudget;

  const MachineT &at(unsigned Budget) const {
    assert(Budget >= MinBudget && Budget <= MaxStates &&
           "budget outside the built ladder");
    return ByBudget[Budget];
  }
};

using IntraLoopLadder = MachineLadder<SuffixMachine>;
using ExitLadder = MachineLadder<ExitChainMachine>;
using CorrelatedLadder = MachineLadder<CorrelatedMachine>;

/// Best intra-loop machines for budgets [MinBudget, Opts.MaxStates] via
/// downward fill: search the deepest budget, copy the winner into every
/// rung down to its state count, then search just below that. Exact
/// whenever the underlying search is exact. A search that exhausts its
/// node budget is greedy-quality already, so the rungs below it are filled
/// by greedily truncating its winner (counted in
/// search.intra_loop.truncated_rungs) rather than burning the node budget
/// again per rung.
IntraLoopLadder buildIntraLoopLadder(const PatternTable &Table,
                                     const MachineOptions &Opts,
                                     unsigned MinBudget);

/// Best exit-chain machines for budgets [2, MaxStates]. The chain family
/// is enumerable: one fit per newly admitted (chain length, parity) shape
/// plus a running best, O(MaxStates) fits for the whole ladder.
ExitLadder buildExitLadder(const PatternTable &Table, unsigned MaxStates,
                           bool StayOnTaken);

/// Best correlated machines for budgets [MinBudget, Opts.MaxStates],
/// downward fill like the intra-loop ladder.
CorrelatedLadder buildCorrelatedLadder(int32_t BranchId,
                                       const PathProfile &Profile,
                                       const CorrelatedOptions &Opts,
                                       unsigned MinBudget);

/// Process-wide memoization of ladder construction. Thread-safe. Entries
/// live until clear(), so the stats stay schedule-independent.
class SearchCache {
public:
  static SearchCache &global();

  SearchCache();
  ~SearchCache();
  SearchCache(const SearchCache &) = delete;
  SearchCache &operator=(const SearchCache &) = delete;

  std::shared_ptr<const IntraLoopLadder>
  intraLoopLadder(const PatternTable &Table, const MachineOptions &Opts,
                  unsigned MinBudget);
  std::shared_ptr<const ExitLadder>
  exitLadder(const PatternTable &Table, unsigned MaxStates, bool StayOnTaken);
  std::shared_ptr<const CorrelatedLadder>
  correlatedLadder(int32_t BranchId, const PathProfile &Profile,
                   const CorrelatedOptions &Opts, unsigned MinBudget);

  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
  };
  Stats stats() const;

  /// Drops every entry and zeroes the stats. Requires quiescence (no
  /// concurrent lookups), like the metrics registry's clear().
  void clear();

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

} // namespace bpcr

#endif // BPCR_CORE_SEARCHCACHE_H
