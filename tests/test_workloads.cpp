//===- tests/test_workloads.cpp - Synthetic benchmark suite tests ---------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "TraceTestUtil.h"

#include "interp/Interpreter.h"
#include "ir/Verifier.h"
#include "trace/TraceStats.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace bpcr;

TEST(WorkloadSuite, HasTheEightPaperBenchmarks) {
  const auto &Suite = allWorkloads();
  ASSERT_EQ(Suite.size(), 8u);
  EXPECT_STREQ(Suite[0].Name, "abalone");
  EXPECT_STREQ(Suite[1].Name, "c-compiler");
  EXPECT_STREQ(Suite[2].Name, "compress");
  EXPECT_STREQ(Suite[3].Name, "ghostview");
  EXPECT_STREQ(Suite[4].Name, "predict");
  EXPECT_STREQ(Suite[5].Name, "prolog");
  EXPECT_STREQ(Suite[6].Name, "scheduler");
  EXPECT_STREQ(Suite[7].Name, "doduc");
}

TEST(WorkloadSuite, BuildByName) {
  Module M = buildWorkload("compress", 3);
  EXPECT_EQ(M.Name, "compress");
  EXPECT_TRUE(verifyModule(M).empty());
}

class WorkloadTest : public ::testing::TestWithParam<size_t> {};

TEST_P(WorkloadTest, VerifiesAndExecutes) {
  const Workload &W = allWorkloads()[GetParam()];
  Module M = W.Build(1);
  ASSERT_TRUE(verifyModule(M).empty()) << W.Name;
  ExecOptions Opts;
  Opts.MaxBranchEvents = 50'000;
  ExecResult R = execute(M, nullptr, Opts);
  EXPECT_TRUE(R.Ok) << W.Name << ": " << R.Error;
}

TEST_P(WorkloadTest, ProducesSubstantialTraces) {
  const Workload &W = allWorkloads()[GetParam()];
  Module M;
  ColumnarTrace T = traceWorkloadColumnar(W, 1, M, 1'000'000);
  // Every benchmark must exercise prediction meaningfully.
  EXPECT_GE(T.size(), 50'000u) << W.Name;
  TraceStats S(static_cast<uint32_t>(M.conditionalBranchCount()));
  S.addTrace(T);
  EXPECT_GE(S.executedBranches(), 5u) << W.Name;
}

TEST_P(WorkloadTest, DeterministicPerSeed) {
  const Workload &W = allWorkloads()[GetParam()];
  Module M1, M2;
  ColumnarTrace T1 = traceWorkloadColumnar(W, 7, M1, 20'000);
  ColumnarTrace T2 = traceWorkloadColumnar(W, 7, M2, 20'000);
  EXPECT_EQ(test::eventsOf(T1), test::eventsOf(T2)) << W.Name;
  EXPECT_EQ(M1.InitialMemory, M2.InitialMemory);
}

TEST_P(WorkloadTest, DifferentSeedsGiveDifferentBehaviour) {
  const Workload &W = allWorkloads()[GetParam()];
  Module M1, M2;
  ColumnarTrace T1 = traceWorkloadColumnar(W, 1, M1, 20'000);
  ColumnarTrace T2 = traceWorkloadColumnar(W, 2, M2, 20'000);
  EXPECT_NE(test::eventsOf(T1), test::eventsOf(T2)) << W.Name;
}

TEST_P(WorkloadTest, NoBranchIsCompletelyDead) {
  const Workload &W = allWorkloads()[GetParam()];
  Module M;
  ColumnarTrace T = traceWorkloadColumnar(W, 1, M, 500'000);
  TraceStats S(static_cast<uint32_t>(M.conditionalBranchCount()));
  S.addTrace(T);
  // The suite is hand-built: every static branch should execute (no dead
  // scaffolding inflating the static counts).
  EXPECT_EQ(S.executedBranches(), M.conditionalBranchCount()) << W.Name;
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadTest, ::testing::Range<size_t>(0, 8));

TEST(WorkloadCharacter, DoducIsHighlyPredictable) {
  // The paper's lone FP benchmark has the lowest misprediction rates.
  Module M;
  ColumnarTrace T = traceWorkloadColumnar(allWorkloads()[7], 1, M, 1'000'000);
  TraceStats S(static_cast<uint32_t>(M.conditionalBranchCount()));
  S.addTrace(T);
  uint64_t Miss = 0;
  for (uint32_t I = 0; I < S.numBranches(); ++I)
    Miss += S.branch(static_cast<int32_t>(I)).profileMispredictions();
  double Rate = 100.0 * static_cast<double>(Miss) /
                static_cast<double>(S.totalExecutions());
  EXPECT_LT(Rate, 3.0);
}

TEST(WorkloadCharacter, SearchWorkloadsAreHarderThanDoduc) {
  auto ProfileRate = [](size_t Idx) {
    Module M;
    ColumnarTrace T = traceWorkloadColumnar(allWorkloads()[Idx], 1, M, 400'000);
    TraceStats S(static_cast<uint32_t>(M.conditionalBranchCount()));
    S.addTrace(T);
    uint64_t Miss = 0;
    for (uint32_t I = 0; I < S.numBranches(); ++I)
      Miss += S.branch(static_cast<int32_t>(I)).profileMispredictions();
    return 100.0 * static_cast<double>(Miss) /
           static_cast<double>(S.totalExecutions());
  };
  double Abalone = ProfileRate(0);
  double Prolog = ProfileRate(5);
  double Doduc = ProfileRate(7);
  EXPECT_GT(Abalone, Doduc);
  EXPECT_GT(Prolog, Doduc);
  EXPECT_GT(Abalone, 5.0); // integer search codes are genuinely hard
}
