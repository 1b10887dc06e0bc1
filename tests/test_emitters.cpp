//===- tests/test_emitters.cpp - Compiled-in branch-event consumers -------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The interpreter's two compiled-in consumers, checked differentially
// against test-local TraceSinks that see the same run one virtual onBranch
// call per event: the columnar emitter (executeColumnar) against a per-event
// collector, and the scoring emitter (executeScored, under
// measureAnnotatedPerReplica / measureAnnotatedPredictions) against a
// per-event scorer. Every workload runs on two seeds, as traced and as
// replicated by the pipeline, where BranchId and OrigBranchId differ.
//
//===----------------------------------------------------------------------===//

#include "TraceTestUtil.h"

#include "core/Pipeline.h"
#include "core/Replication.h"
#include "interp/Interpreter.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

using namespace bpcr;

namespace {

constexpr uint64_t MaxEvents = 50'000;
constexpr uint64_t Seeds[] = {1, 13};

/// A workload's traced module and its replicated, prediction-annotated
/// transform.
struct Programs {
  Module Original;
  Module Transformed;
};

Programs programsFor(const Workload &W, uint64_t Seed) {
  Programs P;
  ColumnarTrace T = traceWorkloadColumnar(W, Seed, P.Original, MaxEvents);
  PipelineOptions Opts;
  Opts.Strategy.MaxStates = 6;
  Opts.MaxSizeFactor = 2.0;
  P.Transformed = replicateModule(P.Original, T, Opts).Transformed;
  return P;
}

ExecOptions capped() {
  ExecOptions EO;
  EO.MaxBranchEvents = MaxEvents;
  return EO;
}

void expectSameResult(const ExecResult &A, const ExecResult &B) {
  EXPECT_EQ(A.Ok, B.Ok);
  EXPECT_EQ(A.Error, B.Error);
  EXPECT_EQ(A.ReturnValue, B.ReturnValue);
  EXPECT_EQ(A.InstructionsExecuted, B.InstructionsExecuted);
  EXPECT_EQ(A.BranchEvents, B.BranchEvents);
  EXPECT_EQ(A.HitBranchLimit, B.HitBranchLimit);
  EXPECT_EQ(A.Memory, B.Memory);
}

/// Per-copy scoring one event at a time: what the scoring emitter must
/// produce, folded by BranchId like measureAnnotatedPerReplica.
class PerEventScoreSink : public TraceSink {
public:
  void onBranch(const Instruction &Br, bool Taken) override {
    bool Miss = (Br.Predicted != Prediction::NotTaken) != Taken;
    Total.record(!Miss);
    if (Br.BranchId < 0)
      return;
    size_t Idx = static_cast<size_t>(Br.BranchId);
    if (Idx >= Copies.size())
      Copies.resize(Idx + 1);
    ReplicaMeasurement &C = Copies[Idx];
    C.OrigBranchId = Br.OrigBranchId;
    C.ReplicaId = Br.BranchId;
    ++C.Executions;
    C.Mispredictions += Miss ? 1 : 0;
  }

  /// Executed copies, sorted by (OrigBranchId, ReplicaId).
  std::vector<ReplicaMeasurement> executed() const {
    std::vector<ReplicaMeasurement> Out;
    for (const ReplicaMeasurement &C : Copies)
      if (C.Executions > 0)
        Out.push_back(C);
    std::sort(Out.begin(), Out.end(), [](const auto &A, const auto &B) {
      return std::tie(A.OrigBranchId, A.ReplicaId) <
             std::tie(B.OrigBranchId, B.ReplicaId);
    });
    return Out;
  }

  PredictionStats Total;

private:
  std::vector<ReplicaMeasurement> Copies;
};

using CopyRow = std::tuple<int32_t, int32_t, uint64_t, uint64_t>;

std::vector<CopyRow> rows(const std::vector<ReplicaMeasurement> &Copies) {
  std::vector<CopyRow> Out;
  for (const ReplicaMeasurement &C : Copies)
    Out.emplace_back(C.OrigBranchId, C.ReplicaId, C.Executions,
                     C.Mispredictions);
  return Out;
}

} // namespace

TEST(ColumnarEmitter, MatchesPerEventSinkOnAllWorkloads) {
  unsigned OrigIdsDiffer = 0;
  for (const Workload &W : allWorkloads())
    for (uint64_t Seed : Seeds) {
      SCOPED_TRACE(std::string(W.Name) + " seed " + std::to_string(Seed));
      Programs P = programsFor(W, Seed);
      for (const Module *M : {&P.Original, &P.Transformed}) {
        std::vector<test::Event> ByKind[2];
        for (bool UseOrigIds : {false, true}) {
          SCOPED_TRACE(UseOrigIds ? "original ids" : "branch ids");
          ColumnarTrace CT;
          ExecResult Got = executeColumnar(*M, CT, UseOrigIds, capped());
          test::PerEventSink Ref(UseOrigIds);
          ExecResult Want = execute(*M, &Ref, capped());
          expectSameResult(Got, Want);
          EXPECT_EQ(test::eventsOf(CT), Ref.Events);
          EXPECT_EQ(CT.size(), Got.BranchEvents);
          ByKind[UseOrigIds] = std::move(Ref.Events);
        }
        OrigIdsDiffer += ByKind[0] != ByKind[1];
      }
    }
  // Replication renumbers copies, so the id choice is really exercised.
  EXPECT_GT(OrigIdsDiffer, 0u);
}

TEST(ScoreEmitter, PerCopyCountsMatchPerEventSinkOnReplicatedPrograms) {
  for (const Workload &W : allWorkloads())
    for (uint64_t Seed : Seeds) {
      SCOPED_TRACE(std::string(W.Name) + " seed " + std::to_string(Seed));
      Programs P = programsFor(W, Seed);
      PerEventScoreSink Ref;
      ExecResult Want = execute(P.Transformed, &Ref, capped());
      ASSERT_TRUE(Want.Ok) << Want.Error;

      EXPECT_EQ(rows(measureAnnotatedPerReplica(P.Transformed, capped())),
                rows(Ref.executed()));
      PredictionStats Agg =
          measureAnnotatedPredictions(P.Transformed, capped());
      EXPECT_EQ(Agg.Predictions, Ref.Total.Predictions);
      EXPECT_EQ(Agg.Mispredictions, Ref.Total.Mispredictions);

      // One score per branch instruction, and a sink riding along on the
      // scoring run sees the same stream as a run of its own.
      std::vector<BranchScore> Scores;
      PerEventScoreSink Extra;
      ExecResult Got = executeScored(P.Transformed, Scores, capped(), &Extra);
      expectSameResult(Got, Want);
      EXPECT_EQ(Scores.size(), P.Transformed.conditionalBranchCount());
      EXPECT_EQ(rows(Extra.executed()), rows(Ref.executed()));
      uint64_t Executions = 0;
      for (const BranchScore &S : Scores)
        Executions += S.Executions;
      EXPECT_EQ(Executions, Got.BranchEvents);
    }
}
