//===- core/JointMachine.h - Joint machines for whole loops -----*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's first "Further Work" item, implemented: "A problem of our
/// code replication scheme is that the [code size] is multiplied if more
/// than one branch in a loop should be improved. A possible solution treats
/// all branches of that loop at the same time and constructs a single state
/// machine for all branches using a higher number of states. In that case
/// the search for the optimal state machine must be replaced by a
/// branch-and-bound search since the search time grows exponentially with
/// the number of states."
///
/// A joint machine's states are strings over the loop's *decision alphabet*
/// — symbols (member-branch index, direction) — matched by longest suffix,
/// with per-(state, branch) predictions. Replicating a loop once for a
/// joint machine with S states costs S copies, where separate per-branch
/// machines with s1..sk states cost s1*...*sk copies. Replication itself is
/// the one loop transform, applyLoopReplication (core/Replication.h): a
/// per-branch machine is the one-member case of a joint machine.
///
/// The branch-and-bound is core/SuffixSelect's engine, the one the
/// per-branch machines use: one count channel per member, the empty string
/// forced as the initial state, and substring closure so the assignment
/// score equals the machine's realized accuracy.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_CORE_JOINTMACHINE_H
#define BPCR_CORE_JOINTMACHINE_H

#include "core/Machines.h"
#include "core/ProgramAnalysis.h"
#include "core/SuffixSelect.h"
#include "support/Statistics.h"

#include <cstdint>
#include <map>
#include <vector>

namespace bpcr {

class ColumnarTrace;

/// A fitted joint machine for one loop. Copies are tagged "@j".
class JointLoopMachine final : public LoopMachine {
public:
  /// Member branches (original ids), sorted; their index is the tag used
  /// in state symbols.
  std::vector<int32_t> Members;
  /// States: strings over symbols (memberIdx << 1 | taken), sorted by
  /// (length, content). Always contains the empty string (initial /
  /// catch-all state) at index 0.
  std::vector<SymbolString> States;
  /// Predictions[State][MemberIdx] = 1 to predict taken.
  std::vector<std::vector<uint8_t>> Predictions;
  /// Construction-time assignment score over all member executions.
  uint64_t Correct = 0;
  uint64_t Total = 0;

  unsigned numStates() const override {
    return static_cast<unsigned>(States.size());
  }
  unsigned initialState() const override { return 0; }
  unsigned numMembers() const override {
    return static_cast<unsigned>(Members.size());
  }

  /// Tag of \p OrigId within this machine, or -1.
  int memberIndex(int32_t OrigId) const override;

  /// Transition on member \p MemberIdx going \p Taken: append the symbol
  /// and rematch by longest suffix.
  unsigned next(unsigned State, int MemberIdx, bool Taken) const override;

  bool predictTaken(unsigned State, int MemberIdx) const override {
    return Predictions[State][static_cast<size_t>(MemberIdx)] != 0;
  }

  char copyTag() const override { return 'j'; }

  std::string describe() const;
};

/// Joint-machine construction parameters.
struct JointOptions {
  /// Total state budget (loop copies).
  unsigned MaxStates = 6;
  /// Longest joint-decision suffix considered as a state.
  unsigned MaxLen = 4;
  bool Exhaustive = true;
  uint64_t NodeBudget = 200'000;
};

/// Joint per-pattern observation: counts per member branch.
struct JointProfile {
  /// Pattern (joint decision string) -> per-member counts. The empty
  /// pattern collects executions right after loop entry.
  std::map<SymbolString, std::vector<DirCounts>> PerPattern;
  uint64_t Executions = 0;
};

/// Profiles the joint decision history of the loop containing the member
/// branches. The history resets when control leaves the loop (same
/// convention as buildLoopAwareProfiles; an event whose id has no branch
/// is outside it). All members must share one innermost loop. One table
/// probe per member event: histories are interned and their transitions
/// cached, so the pass does no map lookup per event.
JointProfile profileJointLoop(const ProgramAnalysis &PA,
                              const std::vector<int32_t> &Members,
                              const ColumnarTrace &CT, unsigned MaxLen);

/// Selects the best joint machine with selectSuffixStates over the
/// profile's decision strings, one count channel per member (each state
/// predicts every member's majority separately). Counts the search in
/// search.joint.machines, search.nodes and search.budget_exhausted.
JointLoopMachine buildJointLoopMachine(const std::vector<int32_t> &Members,
                                       const JointProfile &Profile,
                                       const JointOptions &Opts);

/// Replays \p CT and measures the joint machine's realized accuracy over
/// its member branches (resetting at loop exits, like the profile).
PredictionStats evaluateJointMachine(const JointLoopMachine &M,
                                     const ProgramAnalysis &PA,
                                     const ColumnarTrace &CT);

} // namespace bpcr

#endif // BPCR_CORE_JOINTMACHINE_H
