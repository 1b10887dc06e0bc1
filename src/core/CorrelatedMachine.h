//===- core/CorrelatedMachine.h - Path-state machines -----------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Correlated-branch machines (paper sec. 4.3): "A state in a correlated
/// branch state machine represents a path from correlated branches to the
/// branch to be predicted. The correlated branch state machine is the set of
/// those paths which give the lowest [misprediction rate]. One state covers
/// the case where the control flow matches none of the paths."
///
/// Unlike the loop machines, the states do not depend on each other: each
/// execution independently matches the longest selected path against the
/// decisions that led to the branch.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_CORE_CORRELATEDMACHINE_H
#define BPCR_CORE_CORRELATEDMACHINE_H

#include "analysis/PathEnum.h"
#include "core/SuffixSelect.h"
#include "support/Statistics.h"
#include "trace/ColumnarTrace.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace bpcr {

/// A fitted correlated-branch machine for one branch.
struct CorrelatedMachine {
  int32_t BranchId = -1;
  unsigned MaxPathLen = 1;
  /// Selected path states (steps oldest first), sorted by (length, content).
  std::vector<BranchPath> Paths;
  /// Prediction per path, aligned with Paths.
  std::vector<uint8_t> PathPred;
  /// Prediction of the catch-all state.
  uint8_t DefaultPred = 1;
  /// Construction-time assignment score.
  uint64_t Correct = 0;
  uint64_t Total = 0;

  /// Total states: the selected paths plus the catch-all.
  unsigned numStates() const {
    return static_cast<unsigned>(Paths.size()) + 1;
  }

  /// Index of the longest selected path that is a suffix of the recent
  /// decisions (newest last), or -1 for the catch-all state.
  int match(const std::vector<PathStep> &Recent) const;

  /// Prediction for an execution preceded by \p Recent decisions.
  bool predictFor(const std::vector<PathStep> &Recent) const {
    int Idx = match(Recent);
    return Idx < 0 ? DefaultPred != 0
                   : PathPred[static_cast<size_t>(Idx)] != 0;
  }
};

/// Options for correlated machine construction.
struct CorrelatedOptions {
  /// Total state budget including the catch-all state.
  unsigned MaxStates = 4;
  /// Longest considered path; the paper uses "a maximum path length of n
  /// for an n state machine to keep the size of the replicated code small".
  unsigned MaxPathLen = 4;
  bool Exhaustive = true;
  uint64_t NodeBudget = 200'000;
};

/// Per-branch path observation counts: for every execution, the longest
/// matching candidate path (or the unmatched bucket).
struct PathProfile {
  /// Keyed by the encoded path (see encodePathSteps); values are outcome
  /// counts of the predicted branch when reached over that path.
  std::vector<std::pair<SymbolString, DirCounts>> PerPath;
  DirCounts Unmatched;
};

/// Packs decision steps into selection symbols (one per step).
SymbolString encodePathSteps(const BranchPath &P);

/// Profiles candidate paths for many branches in a single trace pass.
///
/// \param CandidatesByBranch candidate paths per branch id (empty entries
///        are skipped).
/// \param MaxPathLen window length (must cover the longest candidate).
/// \param Jobs threads the pass walks the trace's chunks on (PathWalk);
///        the profiles are the same for every value and chunk size (\p
///        ChunkEvents is for tests).
std::vector<PathProfile>
profilePaths(const std::vector<std::vector<BranchPath>> &CandidatesByBranch,
             const ColumnarTrace &CT, unsigned MaxPathLen, unsigned Jobs = 1,
             size_t ChunkEvents = TraceChunkEvents);

/// The pass behind profilePaths, one trace chunk at a time. A branch's
/// counts depend only on its own candidates, never on which other
/// branches have candidates.
class PathWalk {
public:
  /// Walks run on worker indices [0, \p Workers).
  PathWalk(const std::vector<std::vector<BranchPath>> &CandidatesByBranch,
           unsigned MaxPathLen, unsigned Workers);
  ~PathWalk();
  PathWalk(const PathWalk &) = delete;
  PathWalk &operator=(const PathWalk &) = delete;

  /// Counts the paths into one chunk's events (a ChunkWalk,
  /// trace/TraceStream.h). Reads up to MaxPathLen events before the chunk.
  void walkChunk(size_t Chunk, EventRange R, TraceColumns Cols,
                 unsigned Worker);

  /// Once every chunk of the trace is walked: the profile of every branch.
  std::vector<PathProfile> profiles() const;

private:
  struct State;
  std::unique_ptr<State> S;
};

/// Fits a correlated machine from a precomputed profile.
CorrelatedMachine buildCorrelatedMachineFromProfile(
    int32_t BranchId, const PathProfile &Profile,
    const CorrelatedOptions &Opts);

/// Replays \p CT and measures the machine's realized accuracy on its branch.
PredictionStats evaluateCorrelatedMachine(const CorrelatedMachine &M,
                                          const ColumnarTrace &CT);

} // namespace bpcr

#endif // BPCR_CORE_CORRELATEDMACHINE_H
