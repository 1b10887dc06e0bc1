//===- core/SizeSweep.h - Misprediction vs code size curves -----*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the paper's figures 6-13 (misprediction rate versus code
/// size): "states were added in such an order that the state that predicted
/// the largest number of branches and that increased the code size by the
/// smallest amount was chosen first." Like the paper (which reports size
/// blowups beyond 1000x that were clearly never built), the curve uses an
/// analytic size model: loop replication multiplies the states of all
/// improved branches sharing a loop; correlated replication adds the
/// duplicated path blocks. The per-branch ladders come from the search that
/// strategy selection reads (searchBranchLadders), so the curve charts only
/// machines the replication pipeline would build.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_CORE_SIZESWEEP_H
#define BPCR_CORE_SIZESWEEP_H

#include "core/ProgramAnalysis.h"
#include "core/StrategySelection.h"

#include <vector>

namespace bpcr {

class ColumnarTrace;

/// One point of the misprediction/size curve.
struct SweepPoint {
  /// Estimated code size relative to the original program.
  double SizeFactor = 1.0;
  /// Overall semi-static misprediction in percent at this point.
  double MispredictPercent = 0.0;
  /// The branch whose machine grew at this step (-1 for the initial
  /// all-profile point).
  int32_t BranchId = -1;
  /// That branch's state count after the step.
  unsigned NewStates = 1;
};

/// Sweep parameters.
struct SweepOptions {
  /// Deepest per-branch machine considered.
  unsigned MaxStates = 8;
  /// Stop when the estimated size factor exceeds this (or after 500
  /// growth steps).
  double MaxSizeFactor = 32.0;
  uint64_t NodeBudget = 100'000;
  /// Branches executed fewer times are never grown.
  uint64_t MinExecutions = 64;
  /// Worker threads for the per-branch ladder construction: 0 = one per
  /// hardware core, 1 = serial (no pool). The sweep result is identical
  /// for every value.
  unsigned Jobs = 0;
  /// Branch-direction proofs from sa const-prop (sa/Dataflow.h). Proven
  /// branches get a flat ladder (their profile rung is already perfect),
  /// so the sweep never grows them and the machine search skips them,
  /// counted in `search.pruned_by_proof`.
  const sa::BranchProofs *Proofs = nullptr;
};

/// Computes the greedy misprediction-vs-size curve. The first point is the
/// all-profile program at size factor 1.0.
std::vector<SweepPoint> computeSizeSweep(const ProgramAnalysis &PA,
                                         const ProfileSet &Profiles,
                                         const ColumnarTrace &CT,
                                         const SweepOptions &Opts);

/// The same curve, with the search reading the path profiles from \p
/// Paths (searchBranchLadders).
std::vector<SweepPoint> computeSizeSweep(const ProgramAnalysis &PA,
                                         const ProfileSet &Profiles,
                                         const ColumnarTrace &CT,
                                         const SweepOptions &Opts,
                                         const BranchPathProfiles &Paths);

} // namespace bpcr

#endif // BPCR_CORE_SIZESWEEP_H
