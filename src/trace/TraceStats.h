//===- trace/TraceStats.h - Per-branch trace statistics ---------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-branch execution and taken counts derived from a trace: the "static
/// branches / executed branches" rows of the paper's Table 1 and the
/// training data for the profile predictor.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_TRACE_TRACESTATS_H
#define BPCR_TRACE_TRACESTATS_H

#include "support/Statistics.h"
#include "trace/ColumnarTrace.h"

#include <cstdint>
#include <vector>

namespace bpcr {

/// Execution statistics for one static branch.
struct BranchStats {
  uint64_t Executions = 0;
  uint64_t TakenCount = 0;

  uint64_t notTakenCount() const { return Executions - TakenCount; }

  /// The majority direction; ties predict taken.
  bool majorityTaken() const { return 2 * TakenCount >= Executions; }

  /// Mispredictions when always predicting the majority direction.
  uint64_t profileMispredictions() const {
    return majorityTaken() ? notTakenCount() : TakenCount;
  }
};

/// Aggregated per-branch statistics over a whole trace.
class TraceStats {
public:
  /// \param NumBranches number of static branch ids (upper bound on ids
  ///        appearing in traces fed to addTrace).
  explicit TraceStats(uint32_t NumBranches) : PerBranch(NumBranches) {}

  /// Accumulates every event of the finalized trace \p CT. Counts come
  /// straight from the per-branch index, with no per-event work; ids at or
  /// above numBranches() are ignored.
  void addTrace(const ColumnarTrace &CT) {
    uint32_t N = CT.numBranches() < numBranches() ? CT.numBranches()
                                                  : numBranches();
    for (uint32_t Id = 0; Id < N; ++Id) {
      BranchColumn Col = CT.branch(Id);
      PerBranch[Id].Executions += Col.Executions;
      PerBranch[Id].TakenCount += Col.TakenCount;
    }
  }

  void record(int32_t BranchId, bool Taken) {
    BranchStats &S = PerBranch[static_cast<uint32_t>(BranchId)];
    ++S.Executions;
    if (Taken)
      ++S.TakenCount;
  }

  const BranchStats &branch(int32_t Id) const {
    return PerBranch[static_cast<uint32_t>(Id)];
  }

  uint32_t numBranches() const {
    return static_cast<uint32_t>(PerBranch.size());
  }

  /// Number of static branches that executed at least once.
  uint32_t executedBranches() const {
    uint32_t N = 0;
    for (const BranchStats &S : PerBranch)
      if (S.Executions > 0)
        ++N;
    return N;
  }

  /// Total dynamic branch executions.
  uint64_t totalExecutions() const {
    uint64_t N = 0;
    for (const BranchStats &S : PerBranch)
      N += S.Executions;
    return N;
  }

  /// The realized score of the profile-annotated original over this trace,
  /// computed without executing it: every branch predicts its majority
  /// direction, ties taken, as annotateProfilePredictions annotates it.
  PredictionStats profilePredictions() const {
    PredictionStats S;
    for (const BranchStats &B : PerBranch) {
      S.Predictions += B.Executions;
      S.Mispredictions += B.profileMispredictions();
    }
    return S;
  }

private:
  std::vector<BranchStats> PerBranch;
};

} // namespace bpcr

#endif // BPCR_TRACE_TRACESTATS_H
