//===- predict/SemiStaticPredictors.cpp -----------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "predict/SemiStaticPredictors.h"

#include "trace/ColumnarTrace.h"

using namespace bpcr;

// -- ProfilePredictor --------------------------------------------------------

void ProfilePredictor::train(const ColumnarTrace &CT) {
  for (size_t I = 0, N = CT.size(); I < N; ++I)
    Counts[CT.branchId(I)].record(CT.taken(I));
}

bool ProfilePredictor::predict(int32_t BranchId) {
  auto It = Counts.find(BranchId);
  return It == Counts.end() ? true : It->second.majorityTaken();
}

void ProfilePredictor::update(int32_t, bool) {}

// -- CorrelationPredictor ----------------------------------------------------

void CorrelationPredictor::train(const ColumnarTrace &CT) {
  BitHistory H(HistoryBits);
  for (size_t I = 0, N = CT.size(); I < N; ++I) {
    const int32_t Id = CT.branchId(I);
    const bool Taken = CT.taken(I);
    Table[key(Id, H.value())].record(Taken);
    Fallback[Id].record(Taken);
    H.push(Taken);
  }
}

bool CorrelationPredictor::predict(int32_t BranchId) {
  auto It = Table.find(key(BranchId, History.value()));
  if (It != Table.end() && It->second.total() > 0)
    return It->second.majorityTaken();
  auto FIt = Fallback.find(BranchId);
  return FIt == Fallback.end() ? true : FIt->second.majorityTaken();
}

void CorrelationPredictor::update(int32_t, bool Taken) {
  History.push(Taken);
}

// -- LoopHistoryPredictor ----------------------------------------------------

uint32_t &LoopHistoryPredictor::history(int32_t BranchId) {
  return Histories[BranchId];
}

void LoopHistoryPredictor::train(const ColumnarTrace &CT) {
  std::unordered_map<int32_t, uint32_t> H;
  uint32_t Mask = (HistoryBits >= 32) ? ~0U : ((1U << HistoryBits) - 1U);
  for (size_t I = 0, N = CT.size(); I < N; ++I) {
    const int32_t Id = CT.branchId(I);
    const bool Taken = CT.taken(I);
    uint32_t &Pattern = H[Id];
    Table[key(Id, Pattern)].record(Taken);
    Fallback[Id].record(Taken);
    Pattern = ((Pattern << 1) | (Taken ? 1U : 0U)) & Mask;
  }
}

bool LoopHistoryPredictor::predict(int32_t BranchId) {
  auto It = Table.find(key(BranchId, history(BranchId)));
  if (It != Table.end() && It->second.total() > 0)
    return It->second.majorityTaken();
  auto FIt = Fallback.find(BranchId);
  return FIt == Fallback.end() ? true : FIt->second.majorityTaken();
}

void LoopHistoryPredictor::update(int32_t BranchId, bool Taken) {
  uint32_t Mask = (HistoryBits >= 32) ? ~0U : ((1U << HistoryBits) - 1U);
  uint32_t &Pattern = history(BranchId);
  Pattern = ((Pattern << 1) | (Taken ? 1U : 0U)) & Mask;
}

// -- LoopCorrelationPredictor ------------------------------------------------

LoopCorrelationPredictor::LoopCorrelationPredictor(unsigned CorrelationBits,
                                                   unsigned LoopBits)
    : Corr(CorrelationBits), Loop(LoopBits) {}

void LoopCorrelationPredictor::train(const ColumnarTrace &CT) {
  Corr.train(CT);
  Loop.train(CT);

  // Second pass: count per-branch mispredictions of each trained scheme and
  // of profile, then pick per branch.
  std::unordered_map<int32_t, uint64_t> CorrMiss, LoopMiss, ProfMiss;
  std::unordered_map<int32_t, DirCounts> Counts;
  for (size_t I = 0, N = CT.size(); I < N; ++I)
    Counts[CT.branchId(I)].record(CT.taken(I));

  Corr.reset();
  Loop.reset();
  for (size_t I = 0, N = CT.size(); I < N; ++I) {
    const int32_t Id = CT.branchId(I);
    const bool Taken = CT.taken(I);
    if (Corr.predict(Id) != Taken)
      ++CorrMiss[Id];
    if (Loop.predict(Id) != Taken)
      ++LoopMiss[Id];
    Corr.update(Id, Taken);
    Loop.update(Id, Taken);
  }

  ImprovedBranches = 0;
  for (const auto &[Id, C] : Counts) {
    uint64_t CM = CorrMiss.count(Id) ? CorrMiss[Id] : 0;
    uint64_t LM = LoopMiss.count(Id) ? LoopMiss[Id] : 0;
    UseLoop[Id] = LM <= CM;
    uint64_t Best = LM <= CM ? LM : CM;
    if (Best < C.minority())
      ++ImprovedBranches;
  }

  Corr.reset();
  Loop.reset();
}

void LoopCorrelationPredictor::reset() {
  Corr.reset();
  Loop.reset();
}

bool LoopCorrelationPredictor::usesLoopScheme(int32_t BranchId) const {
  auto It = UseLoop.find(BranchId);
  return It == UseLoop.end() ? true : It->second;
}

bool LoopCorrelationPredictor::predict(int32_t BranchId) {
  return usesLoopScheme(BranchId) ? Loop.predict(BranchId)
                                  : Corr.predict(BranchId);
}

void LoopCorrelationPredictor::update(int32_t BranchId, bool Taken) {
  // Both history registers advance; only the chosen one's prediction is
  // consulted for this branch.
  Corr.update(BranchId, Taken);
  Loop.update(BranchId, Taken);
}
