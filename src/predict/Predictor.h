//===- predict/Predictor.h - Branch predictor interface ---------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common predictor interface. A predictor answers predict() before
/// each branch and observes the outcome via update(). Dynamic predictors
/// adapt during evaluation; semi-static predictors additionally implement
/// TrainablePredictor and fix their decision tables from a training trace —
/// at evaluation time only their history registers move, which is exactly
/// the information code replication later encodes into the program counter.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_PREDICT_PREDICTOR_H
#define BPCR_PREDICT_PREDICTOR_H

#include "support/Statistics.h"

#include <cstdint>
#include <string>

namespace bpcr {

class ColumnarTrace;

/// Streaming branch predictor.
class Predictor {
public:
  virtual ~Predictor();

  /// Forgets all adaptive state (not trained tables).
  virtual void reset() = 0;

  /// Predicted direction for the next execution of \p BranchId.
  virtual bool predict(int32_t BranchId) = 0;

  /// Informs the predictor of the actual outcome.
  virtual void update(int32_t BranchId, bool Taken) = 0;

  /// Display name used in the result tables.
  virtual std::string name() const = 0;
};

/// A predictor whose tables are fixed from a profiling run.
class TrainablePredictor : public Predictor {
public:
  /// Builds the prediction tables from \p CT. May be called once.
  virtual void train(const ColumnarTrace &CT) = 0;
};

} // namespace bpcr

#endif // BPCR_PREDICT_PREDICTOR_H
