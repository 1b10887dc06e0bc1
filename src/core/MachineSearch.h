//===- core/MachineSearch.h - Best-machine construction ---------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Searches for the best state machine of a given size for one branch
/// (paper sec. 4.1/4.2): intra-loop machines over suffix-state sets with
/// catch-all bases {"0","1"} or all four 2-bit strings, and loop-exit
/// machines over the chain family with an optional even/odd parity tail.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_CORE_MACHINESEARCH_H
#define BPCR_CORE_MACHINESEARCH_H

#include "core/Machines.h"

namespace bpcr {

/// Intra-loop machine search parameters.
struct MachineOptions {
  /// Machine size budget (number of states).
  unsigned MaxStates = 4;
  /// Longest history suffix considered; further capped by the machine size
  /// (an N-state suffix-closed machine cannot use strings longer than its
  /// chain capacity).
  unsigned MaxPatternLen = 9;
  /// Exact branch-and-bound; false for greedy only.
  bool Exhaustive = true;
  /// Node cap for the exact search; on exhaustion the best solution found
  /// so far (at least the greedy one) is returned.
  uint64_t NodeBudget = 200'000;
};

/// Converts a pattern table into observed-pattern form (bit symbols, oldest
/// first).
std::vector<ObservedPattern> patternsFromTable(const PatternTable &Table);

/// Best intra-loop suffix machine with at most Opts.MaxStates states.
/// \param AnyBudgetExhausted set when any base's exact search hit the node
/// budget (the result is then greedy-quality, not exact); ladder
/// construction uses it to avoid paying for more exhausted searches.
SuffixMachine buildIntraLoopMachine(const PatternTable &Table,
                                    const MachineOptions &Opts,
                                    bool *AnyBudgetExhausted = nullptr);

/// Best loop-exit chain machine with at most \p MaxStates states.
/// \param StayOnTaken outcome polarity that continues the loop.
ExitChainMachine buildExitMachine(const PatternTable &Table,
                                  unsigned MaxStates, bool StayOnTaken);

/// Correct predictions of the *full* k-bit local history table (no
/// compaction): the "n bit" reference rows of the paper's Table 3.
uint64_t fullHistoryCorrect(const PatternTable &Table, unsigned Bits);

} // namespace bpcr

#endif // BPCR_CORE_MACHINESEARCH_H
