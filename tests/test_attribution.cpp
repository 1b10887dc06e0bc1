//===- tests/test_attribution.cpp - Misprediction attribution ledger ------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "obs/Attribution.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <map>

using namespace bpcr;

namespace {

const Workload &workloadNamed(const char *Name) {
  for (const Workload &W : allWorkloads())
    if (std::string(W.Name) == Name)
      return W;
  ADD_FAILURE() << "no workload named " << Name;
  return allWorkloads()[0];
}

/// Runs the compress pipeline with the global registry enabled and returns
/// the result; the caller owns restoring the registry.
PipelineResult runObservedPipeline(Module &M, ColumnarTrace &T) {
  Registry &G = Registry::global();
  G.clear();
  G.setEnabled(true);
  T = traceWorkloadColumnar(workloadNamed("compress"), 1, M, 20'000);
  PipelineOptions Opts;
  Opts.Strategy.MaxStates = 6;
  Opts.Strategy.NodeBudget = 30'000;
  return replicateModule(M, T, Opts);
}

void restoreRegistry() {
  Registry &G = Registry::global();
  G.clear();
  G.setEnabled(false);
}

} // namespace

// -- Ledger filled by the pipeline -------------------------------------------

TEST(Attribution, LedgerMatchesTrainingTrace) {
  Module M;
  ColumnarTrace T;
  PipelineResult PR = runObservedPipeline(M, T);

  ASSERT_FALSE(PR.Attribution.empty());
  EXPECT_EQ(PR.Attribution.size(), PR.Strategies.size());

  // Training-side executions/taken counts are the trace's, per branch.
  std::map<int32_t, std::pair<uint64_t, uint64_t>> FromTrace;
  for (size_t I = 0; I < T.size(); ++I) {
    FromTrace[T.branchId(I)].first++;
    if (T.taken(I))
      FromTrace[T.branchId(I)].second++;
  }
  for (const BranchAttribution &B : PR.Attribution.all()) {
    auto It = FromTrace.find(B.BranchId);
    uint64_t Exec = It == FromTrace.end() ? 0 : It->second.first;
    uint64_t Taken = It == FromTrace.end() ? 0 : It->second.second;
    EXPECT_EQ(B.Executions, Exec) << "branch " << B.BranchId;
    EXPECT_EQ(B.TakenCount, Taken) << "branch " << B.BranchId;
  }

  restoreRegistry();
}

TEST(Attribution, ExactlyOneChosenCandidateReconstructsSelection) {
  Module M;
  ColumnarTrace T;
  PipelineResult PR = runObservedPipeline(M, T);

  for (const BranchAttribution &B : PR.Attribution.all()) {
    ASSERT_FALSE(B.Candidates.empty()) << "branch " << B.BranchId;
    unsigned ChosenCount = 0;
    const CandidateScore *Chosen = nullptr;
    for (const CandidateScore &C : B.Candidates)
      if (C.Chosen) {
        ++ChosenCount;
        Chosen = &C;
      }
    ASSERT_EQ(ChosenCount, 1u) << "branch " << B.BranchId;
    // The chosen candidate is the strategy the pipeline settled on, with
    // the same training score — `bpcr explain --branch` relies on this.
    EXPECT_EQ(Chosen->Strategy, B.Strategy) << "branch " << B.BranchId;
    EXPECT_EQ(Chosen->Correct, B.TrainCorrect) << "branch " << B.BranchId;
    EXPECT_EQ(Chosen->Total, B.TrainTotal) << "branch " << B.BranchId;
    // The runner-up delta is the winner's margin over the best loser.
    if (!B.RunnerUp.empty()) {
      const CandidateScore *BestLoser = nullptr;
      for (const CandidateScore &C : B.Candidates)
        if (!C.Chosen && (!BestLoser || C.Correct > BestLoser->Correct))
          BestLoser = &C;
      ASSERT_NE(BestLoser, nullptr);
      EXPECT_EQ(B.RunnerUp, BestLoser->Strategy);
      EXPECT_EQ(B.RunnerUpDelta, Chosen->Correct > BestLoser->Correct
                                     ? Chosen->Correct - BestLoser->Correct
                                     : 0u);
    }
    // Every executed branch got a verdict from the decision log.
    if (B.Executions > 0) {
      EXPECT_FALSE(B.Action.empty()) << "branch " << B.BranchId;
    }
  }

  restoreRegistry();
}

// -- Replicated copies fold back onto the original branch --------------------

TEST(Attribution, ReplicasAttributeToOriginalBranchId) {
  Module M;
  ColumnarTrace T;
  PipelineResult PR = runObservedPipeline(M, T);
  ASSERT_GT(PR.LoopReplications + PR.JointReplications +
                PR.CorrelatedReplications,
            0u)
      << "workload must replicate for this test to exercise replicas";

  // Map every branch copy in the transformed module to its original id.
  std::map<int32_t, int32_t> CopyToOrig;
  for (const Function &F : PR.Transformed.Functions)
    for (const BasicBlock &BB : F.Blocks)
      for (const Instruction &I : BB.Insts)
        if (I.Op == Opcode::Br && I.BranchId != NoBranchId)
          CopyToOrig[I.BranchId] = I.OrigBranchId;

  bool SawReplicated = false;
  for (const BranchAttribution &B : PR.Attribution.all()) {
    uint64_t ExecSum = 0, MissSum = 0;
    for (const ReplicaStat &R : B.Replicas) {
      // Each recorded copy exists in the transformed module and descends
      // from this original branch.
      auto It = CopyToOrig.find(R.ReplicaId);
      ASSERT_NE(It, CopyToOrig.end()) << "replica " << R.ReplicaId;
      EXPECT_EQ(It->second, B.BranchId) << "replica " << R.ReplicaId;
      ExecSum += R.Executions;
      MissSum += R.Mispredictions;
    }
    // Per-copy counts sum to the original branch's measured totals.
    EXPECT_EQ(ExecSum, B.MeasuredExecutions) << "branch " << B.BranchId;
    EXPECT_EQ(MissSum, B.Mispredictions) << "branch " << B.BranchId;
    if (B.Replicas.size() > 1)
      SawReplicated = true;
  }
  EXPECT_TRUE(SawReplicated)
      << "expected at least one branch with multiple replica copies";

  restoreRegistry();
}

TEST(Attribution, PerReplicaMeasurementMatchesAggregate) {
  // The pipeline's one measurement run against re-execution as the oracle:
  // Measured is the transformed module's aggregate score, Baseline the
  // profile-annotated original's, both capped at the trace length, and
  // neither depends on whether the registry (and with it the per-replica
  // attribution riding on the same run) is on.
  auto Score = [](const PredictionStats &S) {
    return std::make_pair(S.Predictions, S.Mispredictions);
  };
  Registry &G = Registry::global();
  for (const Workload &W : allWorkloads()) {
    SCOPED_TRACE(W.Name);
    Module M;
    ColumnarTrace T = traceWorkloadColumnar(W, 1, M, 20'000);
    ExecOptions EO;
    EO.MaxBranchEvents = T.size();
    TraceStats Stats(static_cast<uint32_t>(M.conditionalBranchCount()));
    Stats.addTrace(T);
    Module Annotated = M;
    annotateProfilePredictions(Annotated, Stats);
    const PredictionStats Profile =
        measureAnnotatedPredictions(Annotated, EO);

    PipelineOptions Opts;
    Opts.Strategy.MaxStates = 6;
    Opts.Strategy.NodeBudget = 30'000;
    std::vector<std::pair<uint64_t, uint64_t>> MeasuredByMode;
    for (bool ObsOn : {false, true}) {
      G.clear();
      G.setEnabled(ObsOn);
      PipelineResult PR = replicateModule(M, T, Opts);
      EXPECT_EQ(Score(PR.Baseline), Score(Profile));
      PredictionStats Agg = measureAnnotatedPredictions(PR.Transformed, EO);
      EXPECT_EQ(Score(PR.Measured), Score(Agg));
      EXPECT_EQ(PR.Measured.Predictions, T.size());
      MeasuredByMode.push_back(Score(PR.Measured));
      if (!ObsOn)
        continue;

      uint64_t Exec = 0, Miss = 0;
      int32_t PrevOrig = -1, PrevReplica = -1;
      for (const ReplicaMeasurement &C :
           measureAnnotatedPerReplica(PR.Transformed, EO)) {
        EXPECT_GT(C.Executions, 0u); // zero-execution copies are omitted
        // Sorted by (OrigBranchId, ReplicaId).
        EXPECT_TRUE(C.OrigBranchId > PrevOrig ||
                    (C.OrigBranchId == PrevOrig && C.ReplicaId > PrevReplica));
        PrevOrig = C.OrigBranchId;
        PrevReplica = C.ReplicaId;
        Exec += C.Executions;
        Miss += C.Mispredictions;
      }
      EXPECT_EQ(Exec, Agg.Predictions);
      EXPECT_EQ(Miss, Agg.Mispredictions);
      EXPECT_EQ(Exec, PR.Attribution.totalMeasuredExecutions());
      EXPECT_EQ(Miss, PR.Attribution.totalMispredictions());
    }
    EXPECT_EQ(MeasuredByMode[0], MeasuredByMode[1]);
  }

  restoreRegistry();
}

TEST(Attribution, DisabledRegistryLeavesLedgerEmpty) {
  Registry &G = Registry::global();
  G.clear();
  G.setEnabled(false);

  Module M;
  ColumnarTrace T =
      traceWorkloadColumnar(workloadNamed("compress"), 1, M, 5'000);
  PipelineOptions Opts;
  Opts.Strategy.MaxStates = 4;
  Opts.Strategy.NodeBudget = 10'000;
  PipelineResult PR = replicateModule(M, T, Opts);
  EXPECT_TRUE(PR.Attribution.empty());
}

// -- Ledger queries -----------------------------------------------------------

TEST(Attribution, TopByMispredictionsOrdersAndCaps) {
  AttributionLedger L;
  L.resize(5);
  // Branch 4 never executed; 1 and 3 tie on mispredictions.
  L.branch(0).MeasuredExecutions = 100;
  L.branch(0).Mispredictions = 7;
  L.branch(1).MeasuredExecutions = 50;
  L.branch(1).Mispredictions = 20;
  L.branch(2).MeasuredExecutions = 10;
  L.branch(2).Mispredictions = 1;
  L.branch(3).MeasuredExecutions = 80;
  L.branch(3).Mispredictions = 20;

  auto Top = L.topByMispredictions(10);
  ASSERT_EQ(Top.size(), 4u); // the unexecuted branch is excluded
  EXPECT_EQ(Top[0]->BranchId, 1); // ties break toward the lower id
  EXPECT_EQ(Top[1]->BranchId, 3);
  EXPECT_EQ(Top[2]->BranchId, 0);
  EXPECT_EQ(Top[3]->BranchId, 2);

  auto Top2 = L.topByMispredictions(2);
  ASSERT_EQ(Top2.size(), 2u);
  EXPECT_EQ(Top2[0]->BranchId, 1);
  EXPECT_EQ(Top2[1]->BranchId, 3);
}

TEST(Attribution, MaybeBranchBoundsChecks) {
  AttributionLedger L;
  L.resize(3);
  EXPECT_NE(L.maybeBranch(0), nullptr);
  EXPECT_NE(L.maybeBranch(2), nullptr);
  EXPECT_EQ(L.maybeBranch(3), nullptr);
  EXPECT_EQ(L.maybeBranch(-1), nullptr);
}

// -- JSON section -------------------------------------------------------------

TEST(Attribution, JsonCoverageIsConsistent) {
  AttributionLedger L;
  L.resize(4);
  for (int32_t Id = 0; Id < 4; ++Id) {
    BranchAttribution &B = L.branch(Id);
    B.Strategy = "profile";
    B.Action = "kept-profile";
    B.MeasuredExecutions = 100;
    B.Mispredictions = static_cast<uint64_t>(10 * (Id + 1));
    B.Replicas.push_back({Id, B.MeasuredExecutions, B.Mispredictions});
  }

  JsonValue J = attributionJson(L, /*TopK=*/2);
  EXPECT_EQ(J.find("top_k")->asInt(), 2);
  EXPECT_EQ(J.find("branches_total")->asInt(), 4);
  EXPECT_EQ(J.find("total_mispredictions")->asInt(), 10 + 20 + 30 + 40);

  // The top-K misprediction sum IS the covered figure, so the Pareto table
  // can never under-report against the coverage line.
  const JsonValue *Top = J.find("top");
  ASSERT_NE(Top, nullptr);
  ASSERT_EQ(Top->size(), 2u);
  int64_t TopSum = 0;
  for (const JsonValue &E : Top->items())
    TopSum += E.find("mispredictions")->asInt();
  EXPECT_EQ(TopSum, J.find("covered_mispredictions")->asInt());
  EXPECT_GE(TopSum, 40 + 30); // the two worst branches
  EXPECT_NEAR(J.find("coverage_percent")->asDouble(),
              100.0 * static_cast<double>(TopSum) / (10 + 20 + 30 + 40),
              1e-9);

  // Every executed branch appears under by_id with flattenable leaves.
  const JsonValue *ById = J.find("by_id");
  ASSERT_NE(ById, nullptr);
  EXPECT_EQ(ById->size(), 4u);
  const JsonValue *B2 = ById->find("2");
  ASSERT_NE(B2, nullptr);
  EXPECT_EQ(B2->find("executions")->asInt(), 100);
  EXPECT_EQ(B2->find("mispredictions")->asInt(), 30);
  EXPECT_NEAR(B2->find("miss_rate_percent")->asDouble(), 30.0, 1e-9);
}

TEST(Attribution, JsonOfEmptyLedgerHasZeroTotals) {
  AttributionLedger L;
  JsonValue J = attributionJson(L, 5);
  EXPECT_EQ(J.find("branches_total")->asInt(), 0);
  EXPECT_EQ(J.find("total_mispredictions")->asInt(), 0);
  EXPECT_EQ(J.find("top")->size(), 0u);
  EXPECT_DOUBLE_EQ(J.find("coverage_percent")->asDouble(), 0.0);
}
