//===- core/MachineSearch.cpp ---------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/MachineSearch.h"

#include "obs/Metrics.h"
#include "obs/TraceSpans.h"

#include <algorithm>
#include <unordered_map>

using namespace bpcr;

std::vector<ObservedPattern>
bpcr::patternsFromTable(const PatternTable &Table) {
  std::vector<ObservedPattern> Out;
  Out.reserve(Table.full().size());
  unsigned L = Table.maxBits();
  for (const auto &[Pattern, Counts] : Table.full()) {
    ObservedPattern P;
    P.Syms.reserve(L);
    // Oldest outcome first; bit 0 of the packed pattern is the newest.
    for (unsigned I = L; I-- > 0;)
      P.Syms.push_back((Pattern >> I) & 1U);
    P.Counts = Counts;
    Out.push_back(std::move(P));
  }
  // Deterministic order regardless of hash-map iteration.
  std::sort(Out.begin(), Out.end(),
            [](const ObservedPattern &A, const ObservedPattern &B) {
              return A.Syms < B.Syms;
            });
  return Out;
}

SuffixMachine bpcr::buildIntraLoopMachine(const PatternTable &Table,
                                          const MachineOptions &Opts,
                                          bool *AnyBudgetExhausted) {
  // Candidate machines are built once per (branch, state count) and sweeps
  // evaluate thousands of them — the tracer's per-category sampling cap
  // keeps the trace bounded and counts the overflow in
  // obs.trace.spans_dropped.
  Span S("search.intra_loop.candidate", "search");
  S.arg("max_states", static_cast<uint64_t>(Opts.MaxStates));

  std::vector<ObservedPattern> Patterns = patternsFromTable(Table);

  // Base {"0", "1"}: two catch-all states, chains grow from length 1.
  SelectOptions Sel;
  Sel.MaxSelected = Opts.MaxStates;
  Sel.MinLen = 1;
  Sel.MaxLen = std::min<unsigned>(
      Opts.MaxPatternLen, Opts.MaxStates >= 2 ? Opts.MaxStates - 1 : 1);
  Sel.Exhaustive = Opts.Exhaustive;
  Sel.NodeBudget = Opts.NodeBudget;
  // Substring closure makes the assignment score equal machine simulation
  // exactly (see SelectOptions::SubstringClosure).
  Sel.SubstringClosure = true;

  SuffixSelection Best =
      selectSuffixStates(Patterns, {{0}, {1}}, Sel);
  bool Exhausted = Best.BudgetExhausted;

  // Base {"00","01","10","11"} (paper figure 3): four catch-all states that
  // remember the last two outcomes, tried whenever the budget allows it.
  if (Opts.MaxStates >= 4 && Opts.MaxPatternLen >= 2) {
    SelectOptions Sel2 = Sel;
    Sel2.MinLen = 2;
    Sel2.MaxLen = std::min<unsigned>(Opts.MaxPatternLen,
                                     2 + (Opts.MaxStates - 4));
    SuffixSelection Two = selectSuffixStates(
        Patterns, {{0, 0}, {0, 1}, {1, 0}, {1, 1}}, Sel2);
    Exhausted = Exhausted || Two.BudgetExhausted;
    if (Two.Correct > Best.Correct)
      Best = std::move(Two);
  }
  if (AnyBudgetExhausted)
    *AnyBudgetExhausted = Exhausted;

  if (Registry::global().enabled()) {
    Registry &Obs = Registry::global();
    Obs.counter("search.intra_loop.machines").inc();
    Obs.counter("search.intra_loop.patterns").add(Patterns.size());
    if (Best.BudgetExhausted)
      Obs.counter("search.budget_exhausted").inc();
  }
  S.arg("patterns", static_cast<uint64_t>(Patterns.size()));
  S.arg("correct", Best.Correct);

  return SuffixMachine::fromSelection(Best);
}

ExitChainMachine bpcr::buildExitMachine(const PatternTable &Table,
                                        unsigned MaxStates,
                                        bool StayOnTaken) {
  assert(MaxStates >= 2 && "exit machine needs at least two states");
  Span S("search.exit.candidate", "search");
  S.arg("max_states", static_cast<uint64_t>(MaxStates));
  ExitChainMachine Best =
      ExitChainMachine::fit(Table, /*ChainLen=*/1, /*Parity=*/false,
                            StayOnTaken);
  for (unsigned Chain = 1; Chain + 1 <= MaxStates; ++Chain) {
    ExitChainMachine M =
        ExitChainMachine::fit(Table, Chain, /*Parity=*/false, StayOnTaken);
    if (M.Correct > Best.Correct)
      Best = std::move(M);
    if (Chain + 2 <= MaxStates) {
      ExitChainMachine P =
          ExitChainMachine::fit(Table, Chain, /*Parity=*/true, StayOnTaken);
      if (P.Correct > Best.Correct)
        Best = std::move(P);
    }
  }
  if (Registry::global().enabled())
    Registry::global().counter("search.exit.machines").inc();
  S.arg("correct", Best.Correct);
  return Best;
}

uint64_t bpcr::fullHistoryCorrect(const PatternTable &Table, unsigned Bits) {
  uint32_t Mask = (Bits >= 32) ? ~0U : ((1U << Bits) - 1U);
  std::unordered_map<uint32_t, DirCounts> Groups;
  for (const auto &[Pattern, Counts] : Table.full()) {
    DirCounts &G = Groups[Pattern & Mask];
    G.Taken += Counts.Taken;
    G.NotTaken += Counts.NotTaken;
  }
  uint64_t Correct = 0;
  for (const auto &[Pattern, C] : Groups)
    Correct += std::max(C.Taken, C.NotTaken);
  return Correct;
}
