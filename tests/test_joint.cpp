//===- tests/test_joint.cpp - Joint loop machine tests --------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
// The paper's "Further Work" sec. 6: one machine for all branches of a
// loop, avoiding the multiplicative size blowup of per-branch replication.
//
//===----------------------------------------------------------------------===//

#include "TraceTestUtil.h"

#include "core/JointMachine.h"
#include "core/LoopAwareProfiles.h"
#include "core/MachineSearch.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "core/Pipeline.h"
#include "support/Rng.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

using namespace bpcr;

namespace {

Operand R(Reg X) { return Operand::reg(X); }
Operand K(int64_t V) { return Operand::imm(V); }

/// A loop with TWO alternating branches: branch 1 alternates with i, branch
/// 2 with i+1 (anti-phase). Separate 2-state machines multiply to 2*2 = 4
/// loop copies; one joint machine over the shared alternation solves both
/// with epsilon plus the four one-symbol states, of which only 4 survive
/// reachability pruning.
Module twoAlternating(int64_t Iters) {
  Module M;
  M.MemWords = 8;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  Reg I = B.newReg(), C = B.newReg(), A = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Header = B.newBlock("header");
  uint32_t Body = B.newBlock("body");
  uint32_t P = B.newBlock("p");
  uint32_t Q = B.newBlock("q");
  uint32_t Mid = B.newBlock("mid");
  uint32_t X = B.newBlock("x");
  uint32_t Y = B.newBlock("y");
  uint32_t Latch = B.newBlock("latch");
  uint32_t Exit = B.newBlock("exit");
  B.setInsertPoint(Entry);
  B.movImm(I, 0);
  B.movImm(A, 0);
  B.jmp(Header);
  B.setInsertPoint(Header);
  B.cmpLt(C, R(I), K(Iters)); // id 0
  B.br(R(C), Body, Exit);
  B.setInsertPoint(Body);
  B.band(C, R(I), K(1));
  B.br(R(C), P, Q); // id 1: alternating
  B.setInsertPoint(P);
  B.add(A, R(A), K(1));
  B.jmp(Mid);
  B.setInsertPoint(Q);
  B.add(A, R(A), K(2));
  B.jmp(Mid);
  B.setInsertPoint(Mid);
  Reg C2 = B.newReg();
  B.add(C2, R(I), K(1));
  B.band(C2, R(C2), K(1));
  B.br(R(C2), X, Y); // id 2: anti-phase alternating
  B.setInsertPoint(X);
  B.add(A, R(A), K(4));
  B.jmp(Latch);
  B.setInsertPoint(Y);
  B.add(A, R(A), K(8));
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

/// Map-based reference of profileJointLoop: the history is a symbol
/// string, every member event looks it up in the pattern map, and every
/// event's loop membership is tested on its block. An event whose id has
/// no branch is outside the loop.
JointProfile referenceJointProfile(const ProgramAnalysis &PA,
                                   std::vector<int32_t> Members,
                                   const ColumnarTrace &CT, unsigned MaxLen) {
  JointProfile Out;
  const BranchClass &C0 = PA.classOf(Members[0]);
  const uint32_t FuncIdx = PA.ref(Members[0]).FuncIdx;
  const Loop &L =
      PA.loopInfoFor(Members[0]).loops()[static_cast<size_t>(C0.LoopIdx)];
  std::sort(Members.begin(), Members.end());
  SymbolString History;
  for (size_t I = 0; I < CT.size(); ++I) {
    const int32_t Id = CT.branchId(I);
    if (Id < 0 || static_cast<uint32_t>(Id) >= PA.numBranches() ||
        PA.ref(Id).FuncIdx != FuncIdx || !L.contains(PA.ref(Id).BlockIdx)) {
      History.clear();
      continue;
    }
    auto It = std::lower_bound(Members.begin(), Members.end(), Id);
    if (It == Members.end() || *It != Id)
      continue;
    const uint32_t MI = static_cast<uint32_t>(It - Members.begin());
    auto &PerMember = Out.PerPattern[History];
    PerMember.resize(Members.size());
    PerMember[MI].record(CT.taken(I));
    ++Out.Executions;
    History.push_back((MI << 1) | (CT.taken(I) ? 1U : 0U));
    if (History.size() > MaxLen)
      History.erase(History.begin());
  }
  return Out;
}

void expectSameJointProfile(const JointProfile &Got,
                            const JointProfile &Want) {
  EXPECT_EQ(Got.Executions, Want.Executions);
  ASSERT_EQ(Got.PerPattern.size(), Want.PerPattern.size());
  for (auto G = Got.PerPattern.begin(), W = Want.PerPattern.begin();
       W != Want.PerPattern.end(); ++G, ++W) {
    ASSERT_EQ(G->first, W->first);
    ASSERT_EQ(G->second.size(), W->second.size());
    for (size_t M = 0; M < W->second.size(); ++M) {
      EXPECT_EQ(G->second[M].Taken, W->second[M].Taken);
      EXPECT_EQ(G->second[M].NotTaken, W->second[M].NotTaken);
    }
  }
}

/// Loop branches grouped by their innermost loop, groups of two or more.
std::vector<std::vector<int32_t>> loopGroups(const ProgramAnalysis &PA) {
  std::map<std::pair<uint32_t, int32_t>, std::vector<int32_t>> Groups;
  for (uint32_t Id = 0; Id < PA.numBranches(); ++Id) {
    const BranchClass &C = PA.classOf(static_cast<int32_t>(Id));
    if (C.Kind != BranchKind::NonLoop)
      Groups[{PA.ref(static_cast<int32_t>(Id)).FuncIdx, C.LoopIdx}].push_back(
          static_cast<int32_t>(Id));
  }
  std::vector<std::vector<int32_t>> Out;
  for (auto &[Key, Members] : Groups)
    if (Members.size() >= 2)
      Out.push_back(Members);
  return Out;
}

} // namespace

TEST(JointProfile, CollectsPerMemberCounts) {
  Module M = twoAlternating(100);
  ColumnarTrace T;
  ASSERT_TRUE(executeColumnar(M, T).Ok);
  ProgramAnalysis PA(M);
  JointProfile P = profileJointLoop(PA, {1, 2}, T, 3);
  EXPECT_EQ(P.Executions, 200u);
  uint64_t Sum = 0;
  for (const auto &[Syms, PerMember] : P.PerPattern)
    for (const DirCounts &C : PerMember)
      Sum += C.total();
  EXPECT_EQ(Sum, 200u);
}

TEST(JointMachine, TwoStatesSolveBothAlternations) {
  Module M = twoAlternating(400);
  ColumnarTrace T;
  ASSERT_TRUE(executeColumnar(M, T).Ok);
  ProgramAnalysis PA(M);
  JointProfile P = profileJointLoop(PA, {1, 2}, T, 2);

  JointOptions Opts;
  // The joint alphabet has four symbols (two members x two directions);
  // epsilon plus the four one-symbol states capture the anti-phase pair.
  Opts.MaxStates = 5;
  Opts.MaxLen = 1;
  JointLoopMachine JM = buildJointLoopMachine({1, 2}, P, Opts);
  EXPECT_LE(JM.numStates(), 5u);

  PredictionStats S = evaluateJointMachine(JM, PA, T);
  EXPECT_EQ(S.Predictions, 800u);
  // The last joint decision determines the next outcome of either member;
  // only the first execution after loop entry is uncertain.
  EXPECT_LE(S.Mispredictions, 2u);
}

TEST(JointMachine, AssignmentScoreMatchesEvaluation) {
  Module M = twoAlternating(300);
  ColumnarTrace T;
  ASSERT_TRUE(executeColumnar(M, T).Ok);
  ProgramAnalysis PA(M);
  JointProfile P = profileJointLoop(PA, {1, 2}, T, 3);
  JointOptions Opts;
  Opts.MaxStates = 4;
  Opts.MaxLen = 3;
  JointLoopMachine JM = buildJointLoopMachine({1, 2}, P, Opts);
  PredictionStats S = evaluateJointMachine(JM, PA, T);
  EXPECT_EQ(S.Predictions, JM.Total);
  EXPECT_EQ(S.Mispredictions, JM.Total - JM.Correct);
}

TEST(JointMachine, TransitionsFollowLongestSuffix) {
  JointLoopMachine M;
  M.Members = {10, 20};
  // eps, "0T", "1N" (member 0 taken; member 1 not taken).
  M.States = {SymbolString{}, SymbolString{(0u << 1) | 1u},
              SymbolString{(1u << 1) | 0u}};
  M.Predictions = {{1, 1}, {1, 0}, {0, 1}};
  EXPECT_EQ(M.memberIndex(10), 0);
  EXPECT_EQ(M.memberIndex(20), 1);
  EXPECT_EQ(M.memberIndex(15), -1);
  unsigned S = M.initialState();
  S = M.next(S, 0, true); // "0T" is a state
  EXPECT_EQ(S, 1u);
  S = M.next(S, 1, true); // "1T" not a state -> eps
  EXPECT_EQ(S, 0u);
  S = M.next(S, 1, false); // "1N"
  EXPECT_EQ(S, 2u);
}

TEST(JointMachine, ReachableStatesSkipUnreachedSuffixes) {
  JointLoopMachine M;
  M.Members = {10, 20};
  // eps, "0T", "1T0T": after "1T" the machine falls back to eps (no state
  // "1T"), so the history "1T0T" is never a state's string.
  M.States = {SymbolString{}, SymbolString{(0u << 1) | 1u},
              SymbolString{(1u << 1) | 1u, (0u << 1) | 1u}};
  M.Predictions = {{1, 1}, {1, 1}, {1, 1}};
  EXPECT_EQ(M.reachableStates(), (std::vector<uint8_t>{1, 1, 0}));
  EXPECT_EQ(M.reachableStateCount(), 2u);
}

TEST(JointReplication, TwoStatesInsteadOfFour) {
  Module M = twoAlternating(400);
  ColumnarTrace T;
  ASSERT_TRUE(executeColumnar(M, T).Ok);
  T.finalize(static_cast<uint32_t>(M.conditionalBranchCount()));
  ProgramAnalysis PA(M);

  JointProfile P = profileJointLoop(PA, {1, 2}, T, 2);
  JointOptions Opts;
  Opts.MaxStates = 5;
  Opts.MaxLen = 1;
  JointLoopMachine JM = buildJointLoopMachine({1, 2}, P, Opts);

  Module X = M;
  const BranchClass &C = PA.classOf(1);
  const Loop &L = PA.loopInfoFor(1).loops()[static_cast<size_t>(C.LoopIdx)];
  uint64_t LoopSize = 0;
  for (uint32_t Bl : L.Blocks)
    LoopSize += M.Functions[0].Blocks[Bl].Insts.size();

  ReplicationStats RS = applyLoopReplication(X.Functions[0], L.Blocks, JM);
  ASSERT_TRUE(RS.Applied);
  X.assignBranchIds();
  ASSERT_TRUE(verifyModule(X).empty());

  // Joint replication: at most 5 loop copies reachable (4 extra loop
  // sizes); after pruning the steady-state cycle is 4 copies.
  EXPECT_LE(X.Functions[0].instructionCount(),
            M.Functions[0].instructionCount() + 4 * LoopSize);

  // Behaviour preserved.
  ColumnarTrace TA, TB;
  ExecResult RA = executeColumnar(M, TA, /*UseOrigIds=*/true);
  ExecResult RB = executeColumnar(X, TB, /*UseOrigIds=*/true);
  ASSERT_TRUE(RA.Ok);
  ASSERT_TRUE(RB.Ok);
  EXPECT_EQ(RA.ReturnValue, RB.ReturnValue);
  EXPECT_EQ(test::eventsOf(TA), test::eventsOf(TB));

  // Realized predictions: both alternating branches near-perfect.
  TraceStats Stats(3);
  Stats.addTrace(T);
  annotateProfilePredictions(X, Stats);
  PredictionStats Measured = measureAnnotatedPredictions(X, ExecOptions());
  // 1200 events total; the loop-exit branch mispredicts once; joint
  // members mispredict at most on the first iteration.
  EXPECT_LE(Measured.Mispredictions, 5u);

  // Per-branch sequential replication of the same two branches needs the
  // product of the machine sizes: replicate branch 1 (2 states), then
  // branch 2 on the transformed function (2 states each copy).
  Module Y = M;
  {
    ProfileSet Profiles = buildLoopAwareProfiles(PA, T);
    MachineOptions MO;
    MO.MaxStates = 2;
    SuffixMachine M1 = buildIntraLoopMachine(Profiles.branch(1).Table, MO);
    SuffixMachine M2 = buildIntraLoopMachine(Profiles.branch(2).Table, MO);
    applyLoopReplication(Y.Functions[0], L.Blocks, BranchLoopMachine(M1, 1));
    // Recompute the merged loop for the second transform.
    CFG G(Y.Functions[0]);
    Dominators D(G);
    LoopInfo LI(G, D);
    // Find an instance of branch 2.
    uint32_t B2Block = UINT32_MAX;
    for (uint32_t BI = 0; BI < Y.Functions[0].Blocks.size(); ++BI) {
      const BasicBlock &BB = Y.Functions[0].Blocks[BI];
      if (BB.isComplete() && BB.terminator().isConditionalBranch() &&
          BB.terminator().OrigBranchId == 2)
        B2Block = BI;
    }
    ASSERT_NE(B2Block, UINT32_MAX);
    int32_t LI2 = LI.innermostLoop(B2Block);
    ASSERT_GE(LI2, 0);
    const Loop &L2 = LI.loops()[static_cast<size_t>(LI2)];
    applyLoopReplication(Y.Functions[0], L2.Blocks,
                         BranchLoopMachine(M2, 2));
  }
  Y.assignBranchIds();
  ASSERT_TRUE(verifyModule(Y).empty());

  // The joint version must be at most as large (here: strictly smaller,
  // since the sequential one pays ~2x2 copies before pruning).
  EXPECT_LE(X.instructionCount(), Y.instructionCount());
}

TEST(JointPipeline, FiresWhenLoopBranchesShareAMachine) {
  // The ghostview dispatch branches that pick loop machines share the
  // interpreter loop, so the pipeline should fuse them into one joint
  // machine rather than pay the product.
  Module M;
  ColumnarTrace T = traceWorkloadColumnar(allWorkloads()[3], 1, M, 200'000);
  PipelineOptions Opts;
  Opts.Strategy.MaxStates = 4;
  Opts.Strategy.NodeBudget = 20'000;
  Opts.MaxSizeFactor = 4.0;
  Opts.JointMaxStates = 8;
  PipelineResult PR = replicateModule(M, T, Opts);
  ASSERT_TRUE(verifyModule(PR.Transformed).empty());
  EXPECT_GE(PR.JointReplications, 1u);

  // Behaviour preserved.
  ExecOptions EO;
  EO.MaxBranchEvents = 200'000;
  ColumnarTrace TA, TB;
  ExecResult RA = executeColumnar(M, TA, /*UseOrigIds=*/true, EO);
  ExecResult RB = executeColumnar(PR.Transformed, TB, /*UseOrigIds=*/true, EO);
  ASSERT_TRUE(RA.Ok);
  ASSERT_TRUE(RB.Ok);
  EXPECT_EQ(RA.Memory, RB.Memory);
  EXPECT_EQ(test::eventsOf(TA), test::eventsOf(TB));

  // And the joint machine must not be worse than profile.
  TraceStats Stats(static_cast<uint32_t>(M.conditionalBranchCount()));
  Stats.addTrace(T);
  Module P = M;
  annotateProfilePredictions(P, Stats);
  PredictionStats Prof = measureAnnotatedPredictions(P, EO);
  PredictionStats Repl = measureAnnotatedPredictions(PR.Transformed, EO);
  EXPECT_LE(Repl.Mispredictions,
            Prof.Mispredictions + Prof.Predictions / 100);
}

TEST(JointProfile, MatchesMapReferenceOnWorkloads) {
  size_t Groups = 0;
  for (const Workload &W : allWorkloads()) {
    Module M;
    ColumnarTrace T = traceWorkloadColumnar(W, 1, M, 100'000);
    ProgramAnalysis PA(M);
    for (std::vector<int32_t> Members : loopGroups(PA)) {
      std::reverse(Members.begin(), Members.end()); // any order is accepted
      for (unsigned MaxLen : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::string(W.Name) + " max len " +
                     std::to_string(MaxLen));
        expectSameJointProfile(profileJointLoop(PA, Members, T, MaxLen),
                               referenceJointProfile(PA, Members, T, MaxLen));
      }
      ++Groups;
    }
  }
  EXPECT_GT(Groups, 0u);
}

TEST(JointProfile, MatchesMapReferenceOnRandomTraces) {
  // Random events over the loop's members, its other branches, the branch
  // outside it and ids with no branch at all (-1 and NumBranches + 5),
  // which end the loop's stay like an outside event.
  Module M = twoAlternating(10);
  ProgramAnalysis PA(M);
  const int32_t Far = static_cast<int32_t>(PA.numBranches()) + 5;
  const std::vector<int32_t> Alphabet = {0, 1, 2, -1, Far};
  Rng G(99);
  for (size_t N : {0u, 1u, 7u, 100u, 5000u})
    for (unsigned MaxLen : {1u, 3u, 6u}) {
      std::vector<test::Event> Events;
      for (size_t I = 0; I < N; ++I) {
        const size_t Pick = G.chance(1, 10) ? 3 + G.below(2) : G.below(3);
        Events.emplace_back(Alphabet[Pick], G.chance(1, 2));
      }
      const ColumnarTrace T = test::makeTrace(Events);
      SCOPED_TRACE("events " + std::to_string(N) + " max len " +
                   std::to_string(MaxLen));
      const JointProfile P = profileJointLoop(PA, {1, 2}, T, MaxLen);
      expectSameJointProfile(P, referenceJointProfile(PA, {1, 2}, T, MaxLen));
      // Replaying the fitted machine resets at the same events.
      JointOptions Opts;
      Opts.MaxLen = MaxLen;
      const JointLoopMachine JM = buildJointLoopMachine({1, 2}, P, Opts);
      EXPECT_EQ(evaluateJointMachine(JM, PA, T).Predictions, P.Executions);
      expectSameJointProfile(profileJointLoop(PA, {2}, T, MaxLen),
                             referenceJointProfile(PA, {2}, T, MaxLen));
    }
}
