//===- predict/Evaluator.h - Prediction evaluation driver -------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives predictors over traces and aggregates misprediction statistics,
/// total and per branch. Semi-static predictors are trained and evaluated
/// on the same trace by default, matching the paper's methodology; the
/// dataset-sensitivity ablation trains on one input and evaluates on
/// another (Fisher/Freudenberger style).
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_PREDICT_EVALUATOR_H
#define BPCR_PREDICT_EVALUATOR_H

#include "predict/Predictor.h"
#include "support/Statistics.h"

#include <vector>

namespace bpcr {

class ColumnarTrace;

/// Streams \p CT through \p P (predict, compare, update per event).
PredictionStats evaluatePredictor(Predictor &P, const ColumnarTrace &CT);

/// Like evaluatePredictor but also splits the statistics per branch.
/// \param NumBranches upper bound on branch ids in \p CT.
std::vector<PredictionStats>
evaluatePredictorPerBranch(Predictor &P, const ColumnarTrace &CT,
                           uint32_t NumBranches);

/// Per-branch outcome detail of one predictor run: executions, taken
/// outcomes and mispredictions. `bpcr explain` shows this as the dynamic
/// comparison column next to the semi-static strategies.
struct BranchEvalStats {
  uint64_t Executions = 0;
  uint64_t Taken = 0;
  uint64_t Mispredictions = 0;

  double missRatePercent() const {
    return Executions ? 100.0 * static_cast<double>(Mispredictions) /
                            static_cast<double>(Executions)
                      : 0.0;
  }
  double takenPercent() const {
    return Executions ? 100.0 * static_cast<double>(Taken) /
                            static_cast<double>(Executions)
                      : 0.0;
  }
};

/// Like evaluatePredictorPerBranch but also records taken bias per branch.
std::vector<BranchEvalStats>
evaluatePredictorPerBranchDetailed(Predictor &P, const ColumnarTrace &CT,
                                   uint32_t NumBranches);

/// Trains a semi-static predictor on \p TrainTrace, resets its history
/// registers, then evaluates on \p TestTrace.
PredictionStats evaluateTrained(TrainablePredictor &P,
                                const ColumnarTrace &TrainTrace,
                                const ColumnarTrace &TestTrace);

/// Self-prediction: train and evaluate on the same trace (the paper's
/// default methodology).
inline PredictionStats evaluateSelfTrained(TrainablePredictor &P,
                                           const ColumnarTrace &CT) {
  return evaluateTrained(P, CT, CT);
}

} // namespace bpcr

#endif // BPCR_PREDICT_EVALUATOR_H
