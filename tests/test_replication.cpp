//===- tests/test_replication.cpp - Code replication tests ----------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
// The key properties: replication NEVER changes program behaviour (same
// return value, memory image and original-branch outcome stream), and the
// replicated program's per-copy static predictions realize the machine's
// accuracy.
//
//===----------------------------------------------------------------------===//

#include "TraceTestUtil.h"

#include "core/MachineSearch.h"
#include "core/Pipeline.h"
#include "core/ProgramAnalysis.h"
#include "core/Replication.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace bpcr;

namespace {

Operand R(Reg X) { return Operand::reg(X); }
Operand K(int64_t V) { return Operand::imm(V); }

/// The paper's figure-1 situation: a loop with an alternating intra-loop
/// branch. Branch 0: loop exit (header). Branch 1: alternating (i & 1).
Module alternatingLoop(int64_t Iters) {
  Module M;
  M.MemWords = 8;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  Reg I = B.newReg(), C = B.newReg(), A = B.newReg(), Bc = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Header = B.newBlock("header");
  uint32_t Body = B.newBlock("body");
  uint32_t Odd = B.newBlock("odd");
  uint32_t Even = B.newBlock("even");
  uint32_t Latch = B.newBlock("latch");
  uint32_t Exit = B.newBlock("exit");
  B.setInsertPoint(Entry);
  B.movImm(I, 0);
  B.movImm(A, 0);
  B.movImm(Bc, 0);
  B.jmp(Header);
  B.setInsertPoint(Header);
  B.cmpLt(C, R(I), K(Iters));
  B.br(R(C), Body, Exit);
  B.setInsertPoint(Body);
  B.band(C, R(I), K(1));
  B.br(R(C), Odd, Even);
  B.setInsertPoint(Odd);
  B.add(A, R(A), K(3));
  B.jmp(Latch);
  B.setInsertPoint(Even);
  B.add(Bc, R(Bc), K(5));
  B.jmp(Latch);
  B.setInsertPoint(Latch);
  B.add(I, R(I), K(1));
  B.jmp(Header);
  B.setInsertPoint(Exit);
  B.store(K(0), K(0), R(A));
  B.store(K(0), K(1), R(Bc));
  B.ret(R(A));
  M.assignBranchIds();
  return M;
}

/// Asserts behavioural equivalence of an original and transformed module:
/// same result, same memory, same original-id trace.
void expectEquivalent(const Module &Orig, const Module &Xform) {
  test::TracedRun A = test::traceModule(Orig, ExecOptions(), true);
  test::TracedRun B = test::traceModule(Xform, ExecOptions(), true);
  ASSERT_TRUE(A.Result.Ok) << A.Result.Error;
  ASSERT_TRUE(B.Result.Ok) << B.Result.Error;
  EXPECT_EQ(A.Result.ReturnValue, B.Result.ReturnValue);
  EXPECT_EQ(A.Result.Memory, B.Result.Memory);
  EXPECT_EQ(test::eventsOf(A.Trace), test::eventsOf(B.Trace));
}

} // namespace

// -- Loop replication -----------------------------------------------------------

TEST(LoopReplication, Figure1TwoStateMachine) {
  Module M = alternatingLoop(200);
  test::TracedRun Run = test::traceModule(M);
  ASSERT_TRUE(Run.Result.Ok);
  const ColumnarTrace &T = Run.Trace;

  // Build a 2-state machine for the alternating branch (id 1).
  ProfileSet Profiles(2);
  Profiles.addTrace(T);
  MachineOptions MO;
  MO.MaxStates = 2;
  SuffixMachine Machine = buildIntraLoopMachine(Profiles.branch(1).Table, MO);

  Module X = M;
  ProgramAnalysis PA(X);
  const BranchClass &C = PA.classOf(1);
  ASSERT_EQ(C.Kind, BranchKind::IntraLoop);
  const Loop &L = PA.loopInfoFor(1).loops()[static_cast<size_t>(C.LoopIdx)];
  ReplicationStats RS = applyLoopReplication(X.Functions[0], L.Blocks,
                                             BranchLoopMachine(Machine, 1));
  ASSERT_TRUE(RS.Applied);
  X.assignBranchIds();

  EXPECT_TRUE(verifyModule(X).empty());
  expectEquivalent(M, X);

  // The paper discards the unreachable copies ("2b" and "3a"): the
  // replicated function must be smaller than a full 2x duplication.
  EXPECT_LT(X.Functions[0].Blocks.size(), M.Functions[0].Blocks.size() * 2);

  // Measured predictions: annotate the rest with profile and execute.
  TraceStats Stats(2);
  Stats.addTrace(T);
  annotateProfilePredictions(X, Stats);
  PredictionStats Measured = measureAnnotatedPredictions(X, ExecOptions());
  // The alternating branch is now perfectly predicted; the loop branch
  // mispredicts once (the exit). Allow a little warmup slack.
  EXPECT_LE(Measured.Mispredictions, 3u);

  // Baseline: profile-only annotation mispredicts half the alternating
  // branch's executions.
  Module P = M;
  annotateProfilePredictions(P, Stats);
  PredictionStats Profile = measureAnnotatedPredictions(P, ExecOptions());
  EXPECT_GT(Profile.Mispredictions, 90u);
}

TEST(LoopReplication, ExitChainOnConstantTripLoop) {
  // Outer loop runs 100 times; inner loop always 4 iterations.
  Module M;
  M.MemWords = 4;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  Reg I = B.newReg(), J = B.newReg(), C = B.newReg(), S = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Outer = B.newBlock("outer");
  uint32_t Inner = B.newBlock("inner");
  uint32_t InnerBody = B.newBlock("inner_body");
  uint32_t Latch = B.newBlock("latch");
  uint32_t Exit = B.newBlock("exit");
  B.setInsertPoint(Entry);
  B.movImm(I, 0);
  B.movImm(S, 0);
  B.jmp(Outer);
  B.setInsertPoint(Outer);
  B.movImm(J, 0);
  B.jmp(Inner);
  B.setInsertPoint(Inner);
  B.cmpLt(C, R(J), K(4));
  B.br(R(C), InnerBody, Latch);
  B.setInsertPoint(InnerBody);
  B.add(S, R(S), R(J));
  B.add(J, R(J), K(1));
  B.jmp(Inner);
  B.setInsertPoint(Latch);
  B.add(I, R(I), K(1));
  B.cmpLt(C, R(I), K(100));
  B.br(R(C), Outer, Exit);
  B.setInsertPoint(Exit);
  B.store(K(0), K(0), R(S));
  B.ret(R(S));
  M.assignBranchIds();

  test::TracedRun Run = test::traceModule(M);
  ASSERT_TRUE(Run.Result.Ok);
  const ColumnarTrace &T = Run.Trace;
  ProfileSet Profiles(2);
  Profiles.addTrace(T);

  ProgramAnalysis PA(M);
  const BranchClass &C0 = PA.classOf(0); // inner header branch
  ASSERT_EQ(C0.Kind, BranchKind::LoopExit);
  ExitChainMachine Machine =
      buildExitMachine(Profiles.branch(0).Table, 6, !C0.TakenExits);

  Module X = M;
  const Loop &L =
      PA.loopInfoFor(0).loops()[static_cast<size_t>(C0.LoopIdx)];
  ReplicationStats RS = applyLoopReplication(X.Functions[0], L.Blocks,
                                             BranchLoopMachine(Machine, 0));
  ASSERT_TRUE(RS.Applied);
  X.assignBranchIds();
  EXPECT_TRUE(verifyModule(X).empty());
  expectEquivalent(M, X);

  TraceStats Stats(2);
  Stats.addTrace(T);
  annotateProfilePredictions(X, Stats);
  PredictionStats Measured = measureAnnotatedPredictions(X, ExecOptions());
  // 500 executions of the inner branch: profile gets 100 wrong (the
  // exits); the chain machine gets nearly all right.
  EXPECT_LE(Measured.Mispredictions, 10u);
}

TEST(LoopReplication, HandlesAllMachineSizes) {
  for (unsigned States = 2; States <= 6; ++States) {
    Module M = alternatingLoop(64);
    test::TracedRun Run = test::traceModule(M);
    ASSERT_TRUE(Run.Result.Ok);
    const ColumnarTrace &T = Run.Trace;
    ProfileSet Profiles(2);
    Profiles.addTrace(T);
    MachineOptions MO;
    MO.MaxStates = States;
    SuffixMachine Machine =
        buildIntraLoopMachine(Profiles.branch(1).Table, MO);
    Module X = M;
    ProgramAnalysis PA(X);
    const BranchClass &C = PA.classOf(1);
    const Loop &L =
        PA.loopInfoFor(1).loops()[static_cast<size_t>(C.LoopIdx)];
    ReplicationStats RS = applyLoopReplication(
        X.Functions[0], L.Blocks, BranchLoopMachine(Machine, 1));
    ASSERT_TRUE(RS.Applied);
    X.assignBranchIds();
    ASSERT_TRUE(verifyModule(X).empty()) << "states=" << States;
    expectEquivalent(M, X);
  }
}

// -- Correlated replication -------------------------------------------------------

namespace {

/// b0 branches into X directly on both edges; the branch in X repeats b0's
/// decision. One-step correlated paths predict it perfectly.
Module copyBranchModule(int64_t Iters) {
  Module M;
  M.MemWords = 8;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  Reg I = B.newReg(), C = B.newReg(), A = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Header = B.newBlock("header");
  uint32_t Decide = B.newBlock("decide"); // b1 (id 1)
  uint32_t X = B.newBlock("x");           // b2 (id 2): copies b1
  uint32_t Yes = B.newBlock("yes");
  uint32_t No = B.newBlock("no");
  uint32_t Latch = B.newBlock("latch");
  uint32_t Exit = B.newBlock("exit");
  B.setInsertPoint(Entry);
  B.movImm(I, 0);
  B.movImm(A, 0);
  B.jmp(Header);
  B.setInsertPoint(Header);
  B.cmpLt(C, R(I), K(Iters)); // id 0
  B.br(R(C), Decide, Exit);
  B.setInsertPoint(Decide);
  B.band(C, R(I), K(2));
  B.br(R(C), X, X); // id 1: both edges into X (decision is recorded)
  B.setInsertPoint(X);
  B.band(C, R(I), K(2));
  B.br(R(C), Yes, No); // id 2: same decision as id 1
  B.setInsertPoint(Yes);
  B.add(A, R(A), K(7));
  B.jmp(Latch);
  B.setInsertPoint(No);
  B.add(A, R(A), K(1));
  B.jmp(Latch);
  B.setInsertPoint(Latch);
  B.add(I, R(I), K(1));
  B.jmp(Header);
  B.setInsertPoint(Exit);
  B.store(K(0), K(0), R(A));
  B.ret(R(A));
  M.assignBranchIds();
  return M;
}

} // namespace

TEST(CorrelatedReplication, OneStepPathsSplitTheCopyBranch) {
  Module M = copyBranchModule(200);
  test::TracedRun Run = test::traceModule(M);
  ASSERT_TRUE(Run.Result.Ok);
  const ColumnarTrace &T = Run.Trace;

  ProgramAnalysis PA(M);
  std::vector<BranchPath> Cands =
      PA.backwardPaths(2, 1, /*ThroughJumps=*/false);
  ASSERT_EQ(Cands.size(), 2u); // (1,T) and (1,F)

  CorrelatedOptions CO;
  CO.MaxStates = 3;
  CO.MaxPathLen = 1;
  CorrelatedMachine CM = test::fitCorrelatedMachine(2, Cands, T, CO);
  EXPECT_EQ(CM.Total - CM.Correct, 0u);

  Module X = M;
  ReplicationStats RS = applyCorrelatedReplication(X.Functions[0], 2, CM);
  ASSERT_TRUE(RS.Applied);
  X.assignBranchIds();
  EXPECT_TRUE(verifyModule(X).empty());
  expectEquivalent(M, X);

  TraceStats Stats(3);
  Stats.addTrace(T);
  annotateProfilePredictions(X, Stats);
  PredictionStats Measured = measureAnnotatedPredictions(X, ExecOptions());
  // Branches 1 and 2 alternate in phase (i & 2): local machines would also
  // work, but here branch 2's copies must be perfect thanks to the paths.
  // Remaining mispredictions: loop exit (1) and branch 1's profile errors.
  Module P = M;
  annotateProfilePredictions(P, Stats);
  PredictionStats Profile = measureAnnotatedPredictions(P, ExecOptions());
  EXPECT_LE(Measured.Mispredictions + 95, Profile.Mispredictions);
}

TEST(CorrelatedReplication, SkipsWhenTargetAmbiguous) {
  Module M = copyBranchModule(50);
  Module X = M;
  // Duplicate the target block so the transform cannot identify a unique
  // instance; it must refuse rather than corrupt the function.
  Function &F = X.Functions[0];
  F.Blocks.push_back(F.Blocks[3]);
  CorrelatedMachine CM;
  CM.BranchId = 2;
  CM.MaxPathLen = 1;
  CM.Paths.push_back(BranchPath{{PathStep{1, true}}});
  CM.PathPred = {1};
  ReplicationStats RS = applyCorrelatedReplication(F, 2, CM);
  EXPECT_FALSE(RS.Applied);
}

// -- Utilities ----------------------------------------------------------------------

TEST(PruneUnreachable, RemovesAndRemaps) {
  Module M = alternatingLoop(10);
  Function &F = M.Functions[0];
  // Add two unreachable blocks referencing each other.
  IRBuilder B(M, 0);
  uint32_t Dead1 = B.newBlock("dead1");
  uint32_t Dead2 = B.newBlock("dead2");
  B.setInsertPoint(Dead1);
  B.jmp(Dead2);
  B.setInsertPoint(Dead2);
  B.jmp(Dead1);
  ASSERT_TRUE(verifyModule(M).empty());
  uint32_t Removed = pruneUnreachableBlocks(F);
  EXPECT_EQ(Removed, 2u);
  EXPECT_TRUE(verifyModule(M).empty());
  ASSERT_TRUE(execute(M).Ok);
}

TEST(PruneUnreachable, NoOpOnCleanFunction) {
  Module M = alternatingLoop(10);
  EXPECT_EQ(pruneUnreachableBlocks(M.Functions[0]), 0u);
}

TEST(Annotation, ProfileAnnotationMatchesTraceStats) {
  Module M = alternatingLoop(100);
  test::TracedRun Run = test::traceModule(M);
  ASSERT_TRUE(Run.Result.Ok);
  const ColumnarTrace &T = Run.Trace;
  TraceStats Stats(2);
  Stats.addTrace(T);
  annotateProfilePredictions(M, Stats);
  PredictionStats Measured = measureAnnotatedPredictions(M, ExecOptions());
  uint64_t ExpectedMiss = Stats.branch(0).profileMispredictions() +
                          Stats.branch(1).profileMispredictions();
  EXPECT_EQ(Measured.Mispredictions, ExpectedMiss);
}

// -- End-to-end pipeline over the whole suite ---------------------------------------

class PipelineOnWorkload : public ::testing::TestWithParam<size_t> {};

TEST_P(PipelineOnWorkload, PreservesBehaviourAndImprovesPrediction) {
  const Workload &W = allWorkloads()[GetParam()];
  Module M;
  ColumnarTrace T = traceWorkloadColumnar(W, 1, M, 300'000);

  PipelineOptions Opts;
  Opts.Strategy.MaxStates = 4;
  Opts.Strategy.NodeBudget = 20'000;
  Opts.MaxSizeFactor = 8.0;
  PipelineResult PR = replicateModule(M, T, Opts);

  ASSERT_TRUE(verifyModule(PR.Transformed).empty()) << W.Name;

  // Behavioural equivalence under the same branch-event budget.
  ExecOptions EO;
  EO.MaxBranchEvents = 300'000;
  ColumnarTrace TA, TB;
  ExecResult RA = executeColumnar(M, TA, /*UseOrigIds=*/true, EO);
  ExecResult RB = executeColumnar(PR.Transformed, TB, /*UseOrigIds=*/true, EO);
  ASSERT_TRUE(RA.Ok) << RA.Error;
  ASSERT_TRUE(RB.Ok) << RB.Error;
  EXPECT_EQ(RA.ReturnValue, RB.ReturnValue) << W.Name;
  EXPECT_EQ(RA.Memory, RB.Memory) << W.Name;
  EXPECT_EQ(test::eventsOf(TA), test::eventsOf(TB))
      << W.Name;

  // Prediction quality: the replicated program must not be worse than the
  // profile-annotated original.
  Module P = M;
  TraceStats Stats(static_cast<uint32_t>(M.conditionalBranchCount()));
  Stats.addTrace(T);
  annotateProfilePredictions(P, Stats);
  PredictionStats ProfileStats = measureAnnotatedPredictions(P, EO);
  PredictionStats ReplStats =
      measureAnnotatedPredictions(PR.Transformed, EO);
  EXPECT_LE(ReplStats.Mispredictions,
            ProfileStats.Mispredictions + ProfileStats.Predictions / 100)
      << W.Name;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, PipelineOnWorkload,
                         ::testing::Range<size_t>(0, 8));

namespace {

/// Two-step correlated chain: b0 decides, then b1's block (reached directly
/// from b0 on both edges) decides, then X repeats b0's decision — only the
/// 2-step path (b0, b1) disambiguates X.
Module twoStepPathModule(int64_t Iters) {
  Module M;
  M.MemWords = 8;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  Reg I = B.newReg(), C = B.newReg(), A = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Header = B.newBlock("header");    // id 0
  uint32_t First = B.newBlock("first");      // id 1: i & 2
  uint32_t Second = B.newBlock("second");    // id 2: i & 1 (noise)
  uint32_t X = B.newBlock("x");              // id 3: repeats id 1
  uint32_t Yes = B.newBlock("yes");
  uint32_t No = B.newBlock("no");
  uint32_t Latch = B.newBlock("latch");
  uint32_t Exit = B.newBlock("exit");
  B.setInsertPoint(Entry);
  B.movImm(I, 0);
  B.movImm(A, 0);
  B.jmp(Header);
  B.setInsertPoint(Header);
  B.cmpLt(C, R(I), K(Iters));
  B.br(R(C), First, Exit);
  B.setInsertPoint(First);
  B.band(C, R(I), K(2));
  B.br(R(C), Second, Second); // decision recorded, both edges to Second
  B.setInsertPoint(Second);
  B.band(C, R(I), K(1));
  B.br(R(C), X, X); // interleaved noise decision
  B.setInsertPoint(X);
  B.band(C, R(I), K(2));
  B.br(R(C), Yes, No); // equals branch 1's decision
  B.setInsertPoint(Yes);
  B.add(A, R(A), K(3));
  B.jmp(Latch);
  B.setInsertPoint(No);
  B.add(A, R(A), K(5));
  B.jmp(Latch);
  B.setInsertPoint(Latch);
  B.add(I, R(I), K(1));
  B.jmp(Header);
  B.setInsertPoint(Exit);
  B.store(K(0), K(0), R(A));
  B.ret(R(A));
  M.assignBranchIds();
  return M;
}

} // namespace

TEST(CorrelatedReplication, TwoStepPathsChainThroughMiddleBlock) {
  Module M = twoStepPathModule(240);
  test::TracedRun Run = test::traceModule(M);
  ASSERT_TRUE(Run.Result.Ok);
  const ColumnarTrace &T = Run.Trace;

  ProgramAnalysis PA(M);
  std::vector<BranchPath> Cands = PA.backwardPaths(3, 2);
  CorrelatedOptions CO;
  CO.MaxStates = 6;
  CO.MaxPathLen = 2;
  CorrelatedMachine CM = test::fitCorrelatedMachine(3, Cands, T, CO);
  // The 1-step path (branch 2) is noise; the 2-step paths through branch 1
  // predict branch 3 perfectly.
  EXPECT_EQ(CM.Total - CM.Correct, 0u);
  bool HasTwoStep = false;
  for (const BranchPath &P : CM.Paths)
    HasTwoStep |= (P.Steps.size() == 2);
  EXPECT_TRUE(HasTwoStep);

  Module X = M;
  ReplicationStats RS = applyCorrelatedReplication(X.Functions[0], 3, CM);
  ASSERT_TRUE(RS.Applied);
  X.assignBranchIds();
  ASSERT_TRUE(verifyModule(X).empty());
  expectEquivalent(M, X);

  TraceStats Stats(4);
  Stats.addTrace(T);
  annotateProfilePredictions(X, Stats);
  PredictionStats Measured = measureAnnotatedPredictions(X, ExecOptions());
  Module P = M;
  annotateProfilePredictions(P, Stats);
  PredictionStats Profile = measureAnnotatedPredictions(P, ExecOptions());
  // Branch 3 executes 240 times at ~50% profile misprediction; the chained
  // replication should recover nearly all of it.
  EXPECT_LE(Measured.Mispredictions + 100, Profile.Mispredictions);
}
