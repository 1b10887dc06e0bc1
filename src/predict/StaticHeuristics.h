//===- predict/StaticHeuristics.h - Compile-time-only prediction *- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static branch prediction baselines (paper sec. 2.1): Smith's simple
/// heuristics and the Ball-Larus program-based heuristic chain. Loop
/// branches are decided by the loop heuristic first (as in BL93); the
/// remaining branches go through the lexicographic order the paper reports
/// as most successful (Point, Call, Opcode, Return, Store, Guard).
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_PREDICT_STATICHEURISTICS_H
#define BPCR_PREDICT_STATICHEURISTICS_H

#include "ir/Module.h"
#include "support/Statistics.h"

#include <vector>

namespace bpcr {

class ColumnarTrace;

/// Per-branch static predictions, indexed by BranchId (ids must be
/// assigned). Unknown entries are evaluated as predict-taken.
using StaticPredictions = std::vector<Prediction>;

/// Smith: predict that every branch is taken.
StaticPredictions predictAlwaysTaken(const Module &M);

/// Smith: predict that backward branches (to a lower block index within the
/// function, the IR's layout order) are taken, forward branches not taken.
StaticPredictions predictBackwardTaken(const Module &M);

/// Smith: decide the direction from the comparison opcode feeding the
/// branch (tests against zero / equality predict not taken).
StaticPredictions predictOpcode(const Module &M);

/// Ball-Larus 1993 heuristic chain in the paper's order.
StaticPredictions predictBallLarus(const Module &M);

/// Evaluates fixed per-branch predictions over a trace.
PredictionStats evaluateStaticPredictions(const StaticPredictions &P,
                                          const ColumnarTrace &CT);

} // namespace bpcr

#endif // BPCR_PREDICT_STATICHEURISTICS_H
