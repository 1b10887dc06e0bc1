//===- core/Machines.h - Branch prediction state machines -------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's branch prediction state machines (sec. 4): small automata
/// whose states are compacted history information and whose transitions are
/// the branch outcomes. Code replication later materializes one loop copy
/// per state.
///
///  - SuffixMachine: states are binary history strings matched by longest
///    suffix (the intra-loop machines of figures 2-4).
///  - ExitChainMachine: states count iterations since the last loop exit,
///    saturating at the chain end or alternating between the two longest
///    states for even/odd trip counts (figure 5).
///
/// Loop replication reads a machine as a LoopMachine over the member
/// branches of one loop: a per-branch machine is the one-member case
/// (BranchLoopMachine), a joint machine (core/JointMachine.h) has several.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_CORE_MACHINES_H
#define BPCR_CORE_MACHINES_H

#include "core/BranchProfiles.h"
#include "core/ScoreKernels.h"
#include "core/SuffixSelect.h"
#include "support/Statistics.h"

#include <memory>
#include <string>
#include <vector>

namespace bpcr {

/// A per-branch prediction automaton. States are dense indexes; every state
/// carries one static prediction — the property that lets replication give
/// each loop copy a single predicted direction.
class BranchMachine {
public:
  virtual ~BranchMachine();

  virtual unsigned numStates() const = 0;
  virtual unsigned initialState() const = 0;
  virtual unsigned next(unsigned State, bool Taken) const = 0;
  virtual bool predictTaken(unsigned State) const = 0;
  virtual std::string describe() const = 0;
  virtual std::unique_ptr<BranchMachine> clone() const = 0;

  /// Replays an outcome stream through the machine and counts
  /// mispredictions — the realized accuracy, as opposed to the assignment
  /// score used during construction.
  PredictionStats simulate(const std::vector<uint8_t> &Outcomes) const;

  /// Like simulate(), but returns to the initial state at every recorded
  /// loop re-entry — exactly the behaviour of the replicated program.
  PredictionStats simulateSegmented(const BranchProfile &P) const;

  /// Construction-time assignment score.
  uint64_t Correct = 0;
  uint64_t Total = 0;
};

/// A prediction automaton over the member branches of one loop, as loop
/// replication (core/Replication.h) materializes it: one loop copy per
/// reachable state, in which every member branch carries the state's
/// prediction for it and moves control to the copy of its next state.
class LoopMachine {
public:
  virtual ~LoopMachine();

  virtual unsigned numStates() const = 0;
  virtual unsigned initialState() const = 0;
  virtual unsigned numMembers() const = 0;
  /// Member index of the branch with original id \p OrigId, or -1.
  virtual int memberIndex(int32_t OrigId) const = 0;
  virtual unsigned next(unsigned State, int Member, bool Taken) const = 0;
  virtual bool predictTaken(unsigned State, int Member) const = 0;
  /// Letter after the '@' in the names of the loop copies.
  virtual char copyTag() const = 0;

  /// States reachable from the initial state under every member's
  /// transitions (replication prunes the rest, like the paper discards
  /// blocks "2b" and "3a" in figure 1).
  std::vector<uint8_t> reachableStates() const;

  /// Number of reachableStates(): the loop copies replication builds.
  unsigned reachableStateCount() const;
};

/// A per-branch machine as the loop machine of its one member, the branch
/// with original id \p OrigId. Copies are tagged "@s".
class BranchLoopMachine final : public LoopMachine {
public:
  BranchLoopMachine(const BranchMachine &M, int32_t OrigId)
      : M(M), OrigId(OrigId) {}

  unsigned numStates() const override { return M.numStates(); }
  unsigned initialState() const override { return M.initialState(); }
  unsigned numMembers() const override { return 1; }
  int memberIndex(int32_t Id) const override { return Id == OrigId ? 0 : -1; }
  unsigned next(unsigned State, int, bool Taken) const override {
    return M.next(State, Taken);
  }
  bool predictTaken(unsigned State, int) const override {
    return M.predictTaken(State);
  }
  char copyTag() const override { return 's'; }

private:
  const BranchMachine &M;
  int32_t OrigId;
};

/// Densifies \p M into the kernel representation (core/ScoreKernels.h):
/// nibble transition tables and a prediction bitmask. \returns false when
/// the machine does not fit 16 states, in which case callers fall back to
/// the virtual-dispatch walk. The encoding queries next()/predictTaken()
/// once per (state, outcome) — 2*numStates virtual calls total instead of
/// one per trace event.
bool denseEncode(const BranchMachine &M, DenseMachine &Out);

/// Intra-loop machine: states are history strings over {0,1} (oldest symbol
/// first, most recent last), transition appends the outcome and rematches by
/// longest suffix. Suffix closure (enforced by the search) makes this
/// equivalent to tracking the longest state-suffix of the true history.
class SuffixMachine : public BranchMachine {
public:
  /// Builds from a selection over bit symbols (each symbol 0 or 1).
  static SuffixMachine fromSelection(const SuffixSelection &Sel);

  unsigned numStates() const override {
    return static_cast<unsigned>(States.size());
  }
  unsigned initialState() const override { return Initial; }
  unsigned next(unsigned State, bool Taken) const override;
  bool predictTaken(unsigned State) const override {
    return Preds[State] != 0;
  }
  std::string describe() const override;
  std::unique_ptr<BranchMachine> clone() const override {
    return std::make_unique<SuffixMachine>(*this);
  }

  const std::vector<SymbolString> &states() const { return States; }

private:
  /// Sorted by (length, content); symbols are 0/1.
  std::vector<SymbolString> States;
  std::vector<uint8_t> Preds;
  unsigned Initial = 0;
  unsigned MaxLen = 1;
};

/// Loop-exit machine (paper figure 5): state k means "k loop iterations
/// since the last exit", saturating at the chain end; the parity variant
/// alternates between the two longest states to capture loops with a
/// characteristic even/odd trip count.
class ExitChainMachine : public BranchMachine {
public:
  /// Fits predictions for a chain of the given shape against a pattern
  /// table. \p StayOnTaken gives the outcome polarity that continues the
  /// loop (false when the taken edge exits).
  static ExitChainMachine fit(const PatternTable &Table, unsigned ChainLen,
                              bool Parity, bool StayOnTaken);

  unsigned numStates() const override {
    return ChainLen + 1 + (Parity ? 1 : 0);
  }

  /// The state matching a zero-filled (reset) history: state 0 when taken
  /// continues the loop (zero trailing stays), the saturated chain end
  /// otherwise (a zero history reads as all-stays). Keeping this aligned
  /// with the zero-reset convention of the loop-aware profiles makes the
  /// fit score match what replication realizes.
  unsigned initialState() const override { return StayOnTaken ? 0 : ChainLen; }
  unsigned next(unsigned State, bool Taken) const override;
  bool predictTaken(unsigned State) const override {
    return Preds[State] != 0;
  }
  std::string describe() const override;
  std::unique_ptr<BranchMachine> clone() const override {
    return std::make_unique<ExitChainMachine>(*this);
  }

  unsigned chainLen() const { return ChainLen; }
  bool hasParity() const { return Parity; }

private:
  unsigned ChainLen = 1;
  bool Parity = false;
  bool StayOnTaken = true;
  std::vector<uint8_t> Preds;
};

} // namespace bpcr

#endif // BPCR_CORE_MACHINES_H
