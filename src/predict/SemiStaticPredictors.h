//===- predict/SemiStaticPredictors.h - Profile-based predictors *- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's semi-static strategies (sec. 3): per-branch profile majority;
/// the "correlated branch strategy" (a global history register, meaning a
/// branch depends on other branches); the "loop branch strategy" (a local
/// history register per branch, meaning a branch depends on its own previous
/// executions); and their per-branch combination "loop-correlation".
///
/// All decision tables are fixed by train(); evaluation only advances the
/// history registers. That is precisely the information code replication
/// later materializes in the program counter.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_PREDICT_SEMISTATICPREDICTORS_H
#define BPCR_PREDICT_SEMISTATICPREDICTORS_H

#include "predict/Predictor.h"
#include "support/BitHistory.h"

#include <memory>
#include <unordered_map>
#include <vector>

namespace bpcr {

/// Taken/not-taken counts for one table entry.
struct DirCounts {
  uint64_t Taken = 0;
  uint64_t NotTaken = 0;

  void record(bool T) { (T ? Taken : NotTaken) += 1; }
  uint64_t total() const { return Taken + NotTaken; }
  bool majorityTaken() const { return Taken >= NotTaken; }
  /// Executions mispredicted when predicting the majority direction.
  uint64_t minority() const { return Taken < NotTaken ? Taken : NotTaken; }
};

/// "Predict the most frequent direction" per branch.
class ProfilePredictor : public TrainablePredictor {
public:
  void train(const ColumnarTrace &CT) override;
  void reset() override {}
  bool predict(int32_t BranchId) override;
  void update(int32_t BranchId, bool Taken) override;
  std::string name() const override { return "profile"; }

  /// Training-time counts (used by strategy selection and Table 1 extras).
  const std::unordered_map<int32_t, DirCounts> &counts() const {
    return Counts;
  }

private:
  std::unordered_map<int32_t, DirCounts> Counts;
};

/// "bit correlation": one global k-bit history register shared by all
/// branches, with an unbounded per-branch pattern table (the paper: "we are
/// not restricted by the size of the history tables. So we used a pattern
/// table for each branch").
class CorrelationPredictor : public TrainablePredictor {
public:
  explicit CorrelationPredictor(unsigned HistoryBits = 1)
      : HistoryBits(HistoryBits), History(HistoryBits) {}

  void train(const ColumnarTrace &CT) override;
  void reset() override { History.clear(); }
  bool predict(int32_t BranchId) override;
  void update(int32_t BranchId, bool Taken) override;
  std::string name() const override {
    return std::to_string(HistoryBits) + " bit correlation";
  }

  unsigned historyBits() const { return HistoryBits; }

private:
  /// Key: (BranchId << HistoryBits) | pattern.
  uint64_t key(int32_t BranchId, uint32_t Pattern) const {
    return (static_cast<uint64_t>(static_cast<uint32_t>(BranchId))
            << HistoryBits) |
           Pattern;
  }

  unsigned HistoryBits;
  BitHistory History;
  std::unordered_map<uint64_t, DirCounts> Table;
  std::unordered_map<int32_t, DirCounts> Fallback;
};

/// "bit loop": a k-bit history register per branch, per-branch pattern
/// table. Branches using this scheme are the paper's "loop branches".
class LoopHistoryPredictor : public TrainablePredictor {
public:
  explicit LoopHistoryPredictor(unsigned HistoryBits = 9)
      : HistoryBits(HistoryBits) {}

  void train(const ColumnarTrace &CT) override;
  void reset() override { Histories.clear(); }
  bool predict(int32_t BranchId) override;
  void update(int32_t BranchId, bool Taken) override;
  std::string name() const override {
    return std::to_string(HistoryBits) + " bit loop";
  }

  unsigned historyBits() const { return HistoryBits; }

private:
  uint64_t key(int32_t BranchId, uint32_t Pattern) const {
    return (static_cast<uint64_t>(static_cast<uint32_t>(BranchId))
            << HistoryBits) |
           Pattern;
  }
  uint32_t &history(int32_t BranchId);

  unsigned HistoryBits;
  std::unordered_map<int32_t, uint32_t> Histories;
  std::unordered_map<uint64_t, DirCounts> Table;
  std::unordered_map<int32_t, DirCounts> Fallback;
};

/// "loop-correlation": per branch, whichever of 1-bit correlation and 9-bit
/// loop mispredicts less on the training trace (paper Table 1, last
/// strategy row).
class LoopCorrelationPredictor : public TrainablePredictor {
public:
  LoopCorrelationPredictor(unsigned CorrelationBits = 1,
                           unsigned LoopBits = 9);

  void train(const ColumnarTrace &CT) override;
  void reset() override;
  bool predict(int32_t BranchId) override;
  void update(int32_t BranchId, bool Taken) override;
  std::string name() const override { return "loop-correlation"; }

  /// True when \p BranchId was assigned the loop (local-history) scheme.
  bool usesLoopScheme(int32_t BranchId) const;

  /// Number of branches whose training mispredictions under this strategy
  /// are strictly lower than under profile prediction: the paper's
  /// "improved branches" row.
  uint32_t improvedBranchCount() const { return ImprovedBranches; }

private:
  CorrelationPredictor Corr;
  LoopHistoryPredictor Loop;
  /// BranchId -> true when the loop scheme was selected.
  std::unordered_map<int32_t, bool> UseLoop;
  uint32_t ImprovedBranches = 0;
};

} // namespace bpcr

#endif // BPCR_PREDICT_SEMISTATICPREDICTORS_H
