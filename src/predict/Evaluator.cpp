//===- predict/Evaluator.cpp ----------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "predict/Evaluator.h"

#include "trace/ColumnarTrace.h"

using namespace bpcr;

PredictionStats bpcr::evaluatePredictor(Predictor &P,
                                        const ColumnarTrace &CT) {
  PredictionStats S;
  const int32_t *Ids = CT.ids().data();
  const BitstreamView Dirs = CT.directions();
  for (size_t I = 0, N = CT.size(); I < N; ++I) {
    const bool Taken = Dirs.bit(I);
    S.record(P.predict(Ids[I]) == Taken);
    P.update(Ids[I], Taken);
  }
  return S;
}

std::vector<PredictionStats>
bpcr::evaluatePredictorPerBranch(Predictor &P, const ColumnarTrace &CT,
                                 uint32_t NumBranches) {
  std::vector<PredictionStats> Per(NumBranches);
  const int32_t *Ids = CT.ids().data();
  const BitstreamView Dirs = CT.directions();
  for (size_t I = 0, N = CT.size(); I < N; ++I) {
    const bool Taken = Dirs.bit(I);
    const bool Correct = P.predict(Ids[I]) == Taken;
    P.update(Ids[I], Taken);
    if (static_cast<uint32_t>(Ids[I]) < NumBranches)
      Per[Ids[I]].record(Correct);
  }
  return Per;
}

std::vector<BranchEvalStats>
bpcr::evaluatePredictorPerBranchDetailed(Predictor &P, const ColumnarTrace &CT,
                                         uint32_t NumBranches) {
  std::vector<BranchEvalStats> Per(NumBranches);
  const int32_t *Ids = CT.ids().data();
  const BitstreamView Dirs = CT.directions();
  for (size_t I = 0, N = CT.size(); I < N; ++I) {
    const bool Taken = Dirs.bit(I);
    const bool Correct = P.predict(Ids[I]) == Taken;
    P.update(Ids[I], Taken);
    if (static_cast<uint32_t>(Ids[I]) >= NumBranches)
      continue;
    BranchEvalStats &S = Per[Ids[I]];
    ++S.Executions;
    S.Taken += Taken;
    S.Mispredictions += !Correct;
  }
  return Per;
}

PredictionStats bpcr::evaluateTrained(TrainablePredictor &P,
                                      const ColumnarTrace &TrainTrace,
                                      const ColumnarTrace &TestTrace) {
  P.train(TrainTrace);
  P.reset();
  return evaluatePredictor(P, TestTrace);
}
