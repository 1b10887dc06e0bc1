//===- core/SuffixSelect.h - Optimal suffix-state selection -----*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's machine construction problem in its general form: given
/// observed history strings with taken/not-taken counts, choose at most N
/// suffix states so that assigning every observed string to its longest
/// selected suffix and predicting each state's majority direction maximizes
/// correct predictions ("we make an exhaustive search in the pattern table
/// to find the best state machine", sec 4.1).
///
/// Three instantiations share this engine:
///  - intra-loop machines: symbols are branch outcomes (0/1), the forced
///    base is {"0","1"} (or all four 2-bit strings, paper figure 3);
///  - correlated machines: symbols are (branch, direction) path steps and
///    the implicit empty suffix is the paper's "state [that] covers the
///    case where the control flow matches none of the paths";
///  - joint loop machines (core/JointMachine.h): symbols are (member,
///    direction) decisions, the forced base is the empty string, and every
///    pattern carries one count channel per member branch.
///
/// The search is exact branch-and-bound (the assignment score is monotone
/// in the state set, so the score of "current set plus every remaining
/// candidate" is an admissible bound); a node budget degrades it gracefully
/// to the greedy result for pathological tables. Each search node is scored
/// incrementally: including a state moves only the patterns it is a suffix
/// of, and the bound is a running partial score plus a precomputed suffix
/// sum (docs/PERFORMANCE.md, "Incremental branch-and-bound").
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_CORE_SUFFIXSELECT_H
#define BPCR_CORE_SUFFIXSELECT_H

#include "predict/SemiStaticPredictors.h" // DirCounts

#include <cstdint>
#include <vector>

namespace bpcr {

/// A history string; symbols are stored oldest first, newest last.
using SymbolString = std::vector<uint32_t>;

/// One observed full-length history with its outcome counts.
struct ObservedPattern {
  SymbolString Syms;
  DirCounts Counts;
};

/// Search configuration.
struct SelectOptions {
  /// Maximum number of selected (non-empty) states, forced states included.
  unsigned MaxSelected = 4;
  /// Longest suffix considered as a state.
  unsigned MaxLen = 9;
  /// Shortest selectable suffix; states of this length need no parent.
  unsigned MinLen = 1;
  /// Exact search; false uses greedy forward selection only.
  bool Exhaustive = true;
  /// Abort exact search after this many nodes and return the best found.
  uint64_t NodeBudget = 2'000'000;
  /// Require closure under dropping the NEWEST symbol as well (full
  /// contiguous-substring closure). For machines that evolve by their own
  /// transitions (the intra-loop suffix machines) this is what makes the
  /// assignment score equal machine simulation EXACTLY: with only
  /// drop-oldest closure, a machine can contain a long state it never
  /// reaches because the intermediate prefix is missing. Correlated path
  /// machines match each execution independently and do not need it.
  bool SubstringClosure = false;
};

/// Result of a selection. The multi-channel overload fills only States,
/// Correct, Total, BudgetExhausted and Nodes; the per-state predictions and
/// counts below come from the single-channel overload.
struct SuffixSelection {
  /// Selected states (forced ones included), sorted by (length, content).
  std::vector<SymbolString> States;
  /// Majority prediction of each state (1 = taken), aligned with States.
  std::vector<uint8_t> StatePred;
  /// Prediction of the implicit empty state for unmatched histories.
  uint8_t DefaultPred = 1;
  /// Counts assigned to each state / to the default state.
  std::vector<DirCounts> StateCounts;
  DirCounts DefaultCounts;
  /// Assignment score: correctly predicted executions out of Total.
  uint64_t Correct = 0;
  uint64_t Total = 0;
  /// True when the exact search ran out of node budget (result is the best
  /// seen, typically the greedy solution or better).
  bool BudgetExhausted = false;
  /// Branch-and-bound nodes visited (0 for a greedy-only search).
  uint64_t Nodes = 0;
};

/// Selects the best suffix-state set.
///
/// \param Patterns observed full histories with counts; an empty-Syms
///        pattern contributes to the default state.
/// \param Forced states that must be in every considered set (e.g. the
///        catch-all states "0" and "1"); counted against MaxSelected. No
///        forced state may be longer than MinLen.
/// \param Opts search parameters. Suffix closure is enforced: a state of
///        length > MinLen requires its one-shorter suffix to be selected or
///        forced, which keeps machine simulation equal to the assignment
///        used for scoring.
SuffixSelection selectSuffixStates(const std::vector<ObservedPattern> &Patterns,
                                   const std::vector<SymbolString> &Forced,
                                   const SelectOptions &Opts);

/// The same search over \p Channels count channels per pattern: \p Counts
/// holds Patterns.size() x Channels entries, row-major. A state predicts
/// each channel's majority separately, so the score sums the per-channel
/// majorities of every state.
SuffixSelection selectSuffixStates(const std::vector<SymbolString> &Patterns,
                                   const std::vector<DirCounts> &Counts,
                                   unsigned Channels,
                                   const std::vector<SymbolString> &Forced,
                                   const SelectOptions &Opts);

/// Scores a fixed state set by longest-suffix assignment (used by tests and
/// by the ablation bench).
SuffixSelection scoreStateSet(const std::vector<ObservedPattern> &Patterns,
                              const std::vector<SymbolString> &States);

} // namespace bpcr

#endif // BPCR_CORE_SUFFIXSELECT_H
