//===- core/Machines.cpp --------------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Machines.h"

#include <algorithm>
#include <cassert>

using namespace bpcr;

BranchMachine::~BranchMachine() = default;

bool bpcr::denseEncode(const BranchMachine &M, DenseMachine &Out) {
  unsigned N = M.numStates();
  if (N == 0 || N > 16)
    return false;
  Out = DenseMachine();
  Out.NumStates = static_cast<uint8_t>(N);
  Out.Initial = static_cast<uint8_t>(M.initialState());
  for (unsigned S = 0; S < N; ++S) {
    for (unsigned B = 0; B < 2; ++B) {
      unsigned Next = M.next(S, B != 0);
      if (Next >= N)
        return false;
      Out.NextTab[B] |= static_cast<uint64_t>(Next) << (4 * S);
    }
    if (M.predictTaken(S))
      Out.PredMask |= static_cast<uint16_t>(1U << S);
  }
  return true;
}

namespace {

/// Packs a byte outcome stream for the kernels.
void packOutcomes(const std::vector<uint8_t> &Outcomes,
                  BitstreamBuilder &Bits) {
  Bits.reserveBits(Outcomes.size());
  for (uint8_t O : Outcomes)
    Bits.push(O != 0);
}

} // namespace

PredictionStats
BranchMachine::simulate(const std::vector<uint8_t> &Outcomes) const {
  PredictionStats Stats;
  DenseMachine DM;
  if (denseEncode(*this, DM)) {
    // Packed fast path: identical predictions, no virtual call per event.
    BitstreamBuilder Bits;
    packOutcomes(Outcomes, Bits);
    uint64_t Correct = scoreMachine(DM, Bits.view());
    Stats.Predictions = Outcomes.size();
    Stats.Mispredictions = Outcomes.size() - Correct;
    return Stats;
  }
  unsigned S = initialState();
  for (uint8_t O : Outcomes) {
    bool Taken = O != 0;
    Stats.record(predictTaken(S) == Taken);
    S = next(S, Taken);
  }
  return Stats;
}

PredictionStats
BranchMachine::simulateSegmented(const BranchProfile &P) const {
  PredictionStats Stats;
  DenseMachine DM;
  if (denseEncode(*this, DM)) {
    // Each reset restarts the walk from the initial state, so the stream
    // decomposes into independent segments scored over the packed words.
    const uint64_t N = P.DirBits.size();
    uint64_t Correct = 0;
    uint64_t Start = 0;
    for (size_t S = 0; S <= P.ResetPositions.size(); ++S) {
      uint64_t End = S < P.ResetPositions.size()
                         ? std::min<uint64_t>(P.ResetPositions[S], N)
                         : N;
      if (End > Start)
        Correct += scoreMachineRange(DM, P.DirBits.view().data(), Start,
                                     End - Start);
      Start = std::max(Start, End);
    }
    Stats.Predictions = N;
    Stats.Mispredictions = N - Correct;
    return Stats;
  }
  unsigned S = initialState();
  size_t NextReset = 0;
  for (uint64_t I = 0; I < P.DirBits.size(); ++I) {
    while (NextReset < P.ResetPositions.size() &&
           P.ResetPositions[NextReset] == I) {
      S = initialState();
      ++NextReset;
    }
    bool Taken = P.DirBits.bit(I);
    Stats.record(predictTaken(S) == Taken);
    S = next(S, Taken);
  }
  return Stats;
}

LoopMachine::~LoopMachine() = default;

std::vector<uint8_t> LoopMachine::reachableStates() const {
  std::vector<uint8_t> Seen(numStates(), 0);
  std::vector<unsigned> Work{initialState()};
  Seen[initialState()] = 1;
  while (!Work.empty()) {
    unsigned S = Work.back();
    Work.pop_back();
    for (unsigned J = 0; J < numMembers(); ++J)
      for (bool Taken : {false, true}) {
        unsigned N = next(S, static_cast<int>(J), Taken);
        if (!Seen[N]) {
          Seen[N] = 1;
          Work.push_back(N);
        }
      }
  }
  return Seen;
}

unsigned LoopMachine::reachableStateCount() const {
  unsigned N = 0;
  for (uint8_t Bit : reachableStates())
    N += Bit;
  return N;
}

// -- SuffixMachine -----------------------------------------------------------

namespace {

bool stringLess(const SymbolString &A, const SymbolString &B) {
  if (A.size() != B.size())
    return A.size() < B.size();
  return A < B;
}

} // namespace

SuffixMachine SuffixMachine::fromSelection(const SuffixSelection &Sel) {
  SuffixMachine M;
  M.States = Sel.States;
  M.Preds = Sel.StatePred;
  assert(!M.States.empty() && "machine needs at least one state");
  M.MaxLen = 1;
  for (const SymbolString &S : M.States)
    M.MaxLen = std::max<unsigned>(M.MaxLen, static_cast<unsigned>(S.size()));

  // Initial state: the longest all-zero state (the paper allows any state
  // as the initial one; a cold history reads as not-taken, consistent with
  // the zero-filled history registers elsewhere in the library).
  M.Initial = 0;
  size_t BestLen = 0;
  for (size_t I = 0; I < M.States.size(); ++I) {
    const SymbolString &S = M.States[I];
    if (std::all_of(S.begin(), S.end(), [](uint32_t B) { return B == 0; }) &&
        S.size() >= BestLen) {
      BestLen = S.size();
      M.Initial = static_cast<unsigned>(I);
    }
  }
  M.Correct = Sel.Correct;
  M.Total = Sel.Total;
  return M;
}

unsigned SuffixMachine::next(unsigned State, bool Taken) const {
  SymbolString S = States[State];
  S.push_back(Taken ? 1 : 0);
  if (S.size() > MaxLen)
    S.erase(S.begin(), S.end() - MaxLen);

  for (size_t L = S.size(); L >= 1; --L) {
    SymbolString Probe(S.end() - static_cast<long>(L), S.end());
    auto It =
        std::lower_bound(States.begin(), States.end(), Probe, stringLess);
    if (It != States.end() && *It == Probe)
      return static_cast<unsigned>(It - States.begin());
    if (L == 1)
      break;
  }
  // The forced catch-all states guarantee a match; stay put defensively.
  assert(false && "suffix machine has no catch-all for this outcome");
  return State;
}

std::string SuffixMachine::describe() const {
  std::string Out = "suffix{";
  for (size_t I = 0; I < States.size(); ++I) {
    if (I)
      Out += ',';
    for (uint32_t B : States[I])
      Out += B ? '1' : '0';
    Out += Preds[I] ? ":T" : ":N";
  }
  Out += '}';
  return Out;
}

// -- ExitChainMachine --------------------------------------------------------

ExitChainMachine ExitChainMachine::fit(const PatternTable &Table,
                                       unsigned ChainLen, bool Parity,
                                       bool StayOnTaken) {
  assert(ChainLen >= 1 && "chain needs at least one iteration state");
  ExitChainMachine M;
  M.ChainLen = ChainLen;
  M.Parity = Parity;
  M.StayOnTaken = StayOnTaken;

  unsigned NumStates = M.numStates();
  std::vector<DirCounts> StateCounts(NumStates);

  uint32_t StayBit = StayOnTaken ? 1U : 0U;
  unsigned L = Table.maxBits();
  for (const auto &[Pattern, Counts] : Table.full()) {
    // Trailing iterations since the last exit, capped at the history width.
    unsigned T = 0;
    while (T < L && (((Pattern >> T) & 1U) == StayBit))
      ++T;
    unsigned State;
    if (T < ChainLen)
      State = T;
    else if (!Parity)
      State = ChainLen;
    else
      State = ChainLen + ((T - ChainLen) & 1U);
    StateCounts[State].Taken += Counts.Taken;
    StateCounts[State].NotTaken += Counts.NotTaken;
  }

  M.Preds.resize(NumStates);
  M.Correct = 0;
  M.Total = 0;
  for (unsigned S = 0; S < NumStates; ++S) {
    M.Preds[S] = StateCounts[S].majorityTaken() ? 1 : 0;
    M.Correct += std::max(StateCounts[S].Taken, StateCounts[S].NotTaken);
    M.Total += StateCounts[S].total();
  }
  return M;
}

unsigned ExitChainMachine::next(unsigned State, bool Taken) const {
  bool Stay = (Taken == StayOnTaken);
  if (!Stay)
    return 0;
  if (!Parity)
    return State < ChainLen ? State + 1 : ChainLen;
  if (State < ChainLen)
    return State + 1;
  // The two longest states alternate (even/odd iteration counts).
  return State == ChainLen ? ChainLen + 1 : ChainLen;
}

std::string ExitChainMachine::describe() const {
  std::string Out = "exit{chain=" + std::to_string(ChainLen);
  if (Parity)
    Out += ",parity";
  Out += StayOnTaken ? ",stay=T" : ",stay=N";
  Out += ",pred=";
  for (uint8_t P : Preds)
    Out += P ? 'T' : 'N';
  Out += '}';
  return Out;
}
