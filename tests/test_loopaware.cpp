//===- tests/test_loopaware.cpp - Loop-aware profiling tests --------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
// Loop-aware profiles are what keep machine construction honest about the
// accuracy replication can realize: a replicated loop re-enters through its
// initial-state copy, so the per-branch history resets when control leaves
// the loop.
//
//===----------------------------------------------------------------------===//

#include "TraceTestUtil.h"

#include "core/LoopAwareProfiles.h"
#include "core/MachineSearch.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace bpcr;

namespace {

Operand R(Reg X) { return Operand::reg(X); }
Operand K(int64_t V) { return Operand::imm(V); }

/// Nested loop: outer runs Outer times; inner always Inner iterations.
/// Branch 0 = inner header (loop exit kind), branch 1 = outer latch.
Module nested(int64_t Outer, int64_t Inner) {
  Module M;
  M.MemWords = 4;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  Reg I = B.newReg(), J = B.newReg(), C = B.newReg(), S = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t OuterB = B.newBlock("outer");
  uint32_t InnerH = B.newBlock("inner");
  uint32_t InnerBody = B.newBlock("inner_body");
  uint32_t Latch = B.newBlock("latch");
  uint32_t Exit = B.newBlock("exit");
  B.setInsertPoint(Entry);
  B.movImm(I, 0);
  B.movImm(S, 0);
  B.jmp(OuterB);
  B.setInsertPoint(OuterB);
  B.movImm(J, 0);
  B.jmp(InnerH);
  B.setInsertPoint(InnerH);
  B.cmpLt(C, R(J), K(Inner));
  B.br(R(C), InnerBody, Latch);
  B.setInsertPoint(InnerBody);
  B.add(S, R(S), R(J));
  B.add(J, R(J), K(1));
  B.jmp(InnerH);
  B.setInsertPoint(Latch);
  B.add(I, R(I), K(1));
  B.cmpLt(C, R(I), K(Outer));
  B.br(R(C), OuterB, Exit);
  B.setInsertPoint(Exit);
  B.store(K(0), K(0), R(S));
  B.ret(R(S));
  M.assignBranchIds();
  return M;
}

} // namespace

TEST(LoopAware, ResetsAtEveryInnerLoopReentry) {
  Module M = nested(50, 4);
  test::TracedRun Run = test::traceModule(M);
  ASSERT_TRUE(Run.Result.Ok);
  ProgramAnalysis PA(M);
  ProfileSet P = buildLoopAwareProfiles(PA, Run.Trace);
  // The inner header branch executes 5 times per invocation over 50
  // invocations; each outer iteration interposes the latch branch, so
  // every invocation after the first starts with a reset.
  const BranchProfile &BP = P.branch(0);
  EXPECT_EQ(BP.executions(), 250u);
  EXPECT_EQ(BP.ResetPositions.size(), 49u);
  // The outer latch never resets: nothing executes outside its loop.
  EXPECT_TRUE(P.branch(1).ResetPositions.empty());
}

TEST(LoopAware, PlainProfilesNeverReset) {
  Module M = nested(50, 4);
  test::TracedRun Run = test::traceModule(M);
  ASSERT_TRUE(Run.Result.Ok);
  ProfileSet P(2);
  P.addTrace(Run.Trace);
  EXPECT_TRUE(P.branch(0).ResetPositions.empty());
}

TEST(LoopAware, SegmentedSimulationMatchesFitScore) {
  // With resets, the exit-chain fit score must equal segment-aware
  // simulation exactly: this is the invariant that makes construction-time
  // scores trustworthy for replication.
  Module M = nested(80, 5);
  test::TracedRun Run = test::traceModule(M);
  ASSERT_TRUE(Run.Result.Ok);
  ProgramAnalysis PA(M);
  ProfileSet P = buildLoopAwareProfiles(PA, Run.Trace);

  const BranchClass &C = PA.classOf(0);
  ASSERT_EQ(C.Kind, BranchKind::LoopExit);
  ExitChainMachine Mach =
      buildExitMachine(P.branch(0).Table, 7, !C.TakenExits);
  PredictionStats Sim = Mach.simulateSegmented(P.branch(0));
  EXPECT_EQ(Sim.Predictions, Mach.Total);
  EXPECT_EQ(Sim.Mispredictions, Mach.Total - Mach.Correct);
  // A 7-state chain captures the constant trip count perfectly.
  EXPECT_EQ(Sim.Mispredictions, 0u);
}

TEST(LoopAware, WholeTraceHistoryOverestimatesWithoutResets) {
  // A branch whose outcome alternates ACROSS invocations but is constant
  // within one: whole-trace history looks predictable, loop-aware resets
  // reveal that a replicated machine cannot carry that information.
  Module M;
  M.MemWords = 4;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  Reg I = B.newReg(), J = B.newReg(), C = B.newReg(), Par = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Outer = B.newBlock("outer");
  uint32_t Inner = B.newBlock("inner");
  uint32_t Arm = B.newBlock("arm");
  uint32_t ArmB = B.newBlock("arm_b");
  uint32_t InnerNext = B.newBlock("inner_next");
  uint32_t Latch = B.newBlock("latch");
  uint32_t Exit = B.newBlock("exit");
  B.setInsertPoint(Entry);
  B.movImm(I, 0);
  B.jmp(Outer);
  B.setInsertPoint(Outer);
  B.movImm(J, 0);
  B.band(Par, R(I), K(1));
  B.jmp(Inner);
  B.setInsertPoint(Inner);
  B.cmpLt(C, R(J), K(3));
  B.br(R(C), Arm, Latch);
  B.setInsertPoint(Arm);
  // The interesting branch: direction = outer parity (constant within an
  // invocation, alternating across invocations).
  B.br(R(Par), ArmB, InnerNext);
  B.setInsertPoint(ArmB);
  B.jmp(InnerNext);
  B.setInsertPoint(InnerNext);
  B.add(J, R(J), K(1));
  B.jmp(Inner);
  B.setInsertPoint(Latch);
  B.add(I, R(I), K(1));
  B.cmpLt(C, R(I), K(200));
  B.br(R(C), Outer, Exit);
  B.setInsertPoint(Exit);
  B.ret(R(I));
  M.assignBranchIds();

  test::TracedRun Run = test::traceModule(M);
  ASSERT_TRUE(Run.Result.Ok);
  ProgramAnalysis PA(M);

  ProfileSet Plain(PA.numBranches());
  Plain.addTrace(Run.Trace);
  ProfileSet Aware = buildLoopAwareProfiles(PA, Run.Trace);

  MachineOptions MO;
  MO.MaxStates = 6; // enough for the period-6 whole-trace pattern
  // The parity branch is id 1 (block order: inner header 0, arm 1, latch 2).
  SuffixMachine PlainM = buildIntraLoopMachine(Plain.branch(1).Table, MO);
  SuffixMachine AwareM = buildIntraLoopMachine(Aware.branch(1).Table, MO);

  double PlainRate = 100.0 *
                     static_cast<double>(PlainM.Total - PlainM.Correct) /
                     static_cast<double>(PlainM.Total);
  double AwareRate = 100.0 *
                     static_cast<double>(AwareM.Total - AwareM.Correct) /
                     static_cast<double>(AwareM.Total);
  // Whole-trace history claims near-perfect prediction; the loop-aware
  // profile admits the cross-invocation information is lost. After a reset
  // the first execution is a coin flip (1 of 3 per invocation).
  EXPECT_LT(PlainRate, 5.0);
  EXPECT_GT(AwareRate, 15.0);
}

TEST(LoopAware, NonLoopBranchesUnaffected) {
  for (size_t WI : {1u, 3u}) {
    Module M;
    ColumnarTrace T =
        traceWorkloadColumnar(allWorkloads()[WI], 1, M, 100'000);
    ProgramAnalysis PA(M);
    ProfileSet Plain(PA.numBranches());
    Plain.addTrace(T);
    ProfileSet Aware = buildLoopAwareProfiles(PA, T);
    for (uint32_t Id = 0; Id < PA.numBranches(); ++Id) {
      EXPECT_EQ(Plain.branch(static_cast<int32_t>(Id)).executions(),
                Aware.branch(static_cast<int32_t>(Id)).executions());
      if (PA.classOf(static_cast<int32_t>(Id)).Kind == BranchKind::NonLoop) {
        EXPECT_TRUE(
            Aware.branch(static_cast<int32_t>(Id)).ResetPositions.empty());
      }
    }
  }
}

TEST(Recursion, DetectedInAbalone) {
  Module M;
  traceWorkloadColumnar(allWorkloads()[0], 1, M, 1'000);
  ProgramAnalysis PA(M);
  // negamax calls itself; eval_leaf and main do not.
  bool AnyRecursive = false, AnyPlain = false;
  for (uint32_t FI = 0; FI < M.Functions.size(); ++FI) {
    if (PA.isRecursive(FI))
      AnyRecursive = true;
    else
      AnyPlain = true;
  }
  EXPECT_TRUE(AnyRecursive);
  EXPECT_TRUE(AnyPlain);
}

TEST(Recursion, SingleFunctionWorkloadsAreNotRecursive) {
  Module M;
  traceWorkloadColumnar(allWorkloads()[5], 1, M, 1'000); // prolog
  ProgramAnalysis PA(M);
  for (uint32_t FI = 0; FI < M.Functions.size(); ++FI)
    EXPECT_FALSE(PA.isRecursive(FI));
}
