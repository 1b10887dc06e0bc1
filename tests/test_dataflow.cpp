//===- tests/test_dataflow.cpp - Dataflow proof engine tests --------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
// The monotone-framework solver and the proof passes built on it, pinned
// against hand-computed fixpoints: forward interval propagation (the
// const-prop proofs the pipeline prunes the machine search with), backward
// liveness cross-checked against the dead-code pass's own fixpoint, profile
// realizability over hand-built flows, and the proof-pruning quality
// identity — replication with pruning on and off must choose byte-identical
// strategies, because a proven branch can never win the search it skips.
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "core/LoopAwareProfiles.h"
#include "core/Pipeline.h"
#include "ir/IRBuilder.h"
#include "ir/Serializer.h"
#include "obs/Metrics.h"
#include "sa/Baseline.h"
#include "sa/Dataflow.h"
#include "sa/Passes.h"
#include "sa/ProfileVerify.h"
#include "trace/ColumnarTrace.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

using namespace bpcr;
using sa::BranchProofs;
using sa::Diagnostic;
using sa::Interval;
using sa::Severity;

namespace {

Operand R(Reg X) { return Operand::reg(X); }
Operand K(int64_t V) { return Operand::imm(V); }

bool hasRule(const std::vector<Diagnostic> &Diags, const std::string &Id) {
  for (const Diagnostic &D : Diags)
    if (D.fullRuleId() == Id)
      return true;
  return false;
}

std::string renderAll(const std::vector<Diagnostic> &Diags) {
  std::string S;
  for (const Diagnostic &D : Diags)
    S += D.render() + "\n";
  return S;
}

// -- Interval lattice algebra -------------------------------------------------

TEST(Interval, HullAndPredicates) {
  EXPECT_TRUE(Interval::bottom().isBottom());
  EXPECT_TRUE(Interval::top().isTop());
  EXPECT_TRUE(Interval::constant(7).isConstant());
  EXPECT_TRUE(Interval::range(0, 9).nonNegative());
  EXPECT_FALSE(Interval::range(-1, 9).nonNegative());

  EXPECT_EQ(sa::hull(Interval::constant(2), Interval::constant(5)),
            Interval::range(2, 5));
  EXPECT_EQ(sa::hull(Interval::bottom(), Interval::constant(3)),
            Interval::constant(3));
  EXPECT_TRUE(sa::hull(Interval::top(), Interval::constant(3)).isTop());
}

TEST(Interval, TransferMirrorsInterpreter) {
  // Constant folding through exact arithmetic.
  EXPECT_EQ(sa::evalBinop(Opcode::Add, Interval::constant(4),
                          Interval::constant(5)),
            Interval::constant(9));
  // Mul only folds constants (or annihilates on a constant zero): a range
  // times a constant can wrap, so it conservatively collapses to top.
  EXPECT_EQ(sa::evalBinop(Opcode::Mul, Interval::constant(0),
                          Interval::range(2, 3)),
            Interval::constant(0));
  EXPECT_TRUE(sa::evalBinop(Opcode::Mul, Interval::range(2, 3),
                            Interval::constant(10))
                  .isTop());
  // Wrap-around risk collapses to top instead of producing a wrong range.
  EXPECT_TRUE(sa::evalBinop(Opcode::Add, Interval::top(),
                            Interval::constant(1))
                  .isTop());

  // The two rules the workload hash-table guards depend on:
  // x & mask is [0, mask] even when x is unbounded...
  EXPECT_EQ(sa::evalBinop(Opcode::And, Interval::top(),
                          Interval::constant(4095)),
            Interval::range(0, 4095));
  // ...and nonneg % m is [0, m-1].
  EXPECT_EQ(sa::evalBinop(Opcode::Rem, Interval::range(0, 1 << 30),
                          Interval::constant(211)),
            Interval::range(0, 210));

  // Compares decide when the ranges are disjoint and stay [0,1] otherwise.
  EXPECT_EQ(sa::evalBinop(Opcode::CmpGe, Interval::range(0, 4095),
                          Interval::constant(4096)),
            Interval::constant(0));
  EXPECT_EQ(sa::evalBinop(Opcode::CmpLt, Interval::range(0, 4095),
                          Interval::constant(4096)),
            Interval::constant(1));
  EXPECT_EQ(sa::evalBinop(Opcode::CmpEq, Interval::range(0, 10),
                          Interval::range(5, 6)),
            Interval::range(0, 1));
}

// -- Forward const-prop: hand-computed fixpoints ------------------------------

TEST(ConstProp, StraightLineConstantsReachTheirUses) {
  Module M;
  M.Name = "straight";
  M.MemWords = 8;
  M.addFunction("main", 0);
  IRBuilder B(M, 0);
  Reg A = B.newReg(), C = B.newReg(), D = B.newReg();
  B.newBlock("entry");
  B.setInsertPoint(0);
  B.movImm(A, 5);
  B.add(C, R(A), K(3));
  B.mul(D, R(C), R(C));
  B.ret(R(D));

  sa::IntervalAnalysis IA(M.Functions[0]);
  EXPECT_TRUE(IA.stats().Converged);
  EXPECT_EQ(IA.valueBefore(0, 1, A), Interval::constant(5));
  EXPECT_EQ(IA.valueBefore(0, 2, C), Interval::constant(8));
  EXPECT_EQ(IA.valueBefore(0, 3, D), Interval::constant(64));
}

TEST(ConstProp, DiamondJoinIsTheHull) {
  // entry: br c -> then | else;  then: r1 = 2;  else: r1 = 9;  join: use r1.
  Module M;
  M.Name = "diamond";
  M.MemWords = 8;
  M.addFunction("main", 0);
  IRBuilder B(M, 0);
  Reg C = B.newReg(), V = B.newReg(), I = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Then = B.newBlock("then");
  uint32_t Else = B.newBlock("else");
  uint32_t Join = B.newBlock("join");
  B.setInsertPoint(Entry);
  B.movImm(I, 0);
  B.load(C, K(0), R(I)); // unknown condition
  B.br(R(C), Then, Else);
  B.setInsertPoint(Then);
  B.movImm(V, 2);
  B.jmp(Join);
  B.setInsertPoint(Else);
  B.movImm(V, 9);
  B.jmp(Join);
  B.setInsertPoint(Join);
  B.ret(R(V));

  sa::IntervalAnalysis IA(M.Functions[0]);
  EXPECT_TRUE(IA.stats().Converged);
  // After each arm's movImm the register holds that arm's constant.
  EXPECT_EQ(IA.valueBefore(Then, 1, V), Interval::constant(2));
  EXPECT_EQ(IA.valueBefore(Else, 1, V), Interval::constant(9));
  // At the join the two constants hull to [2, 9].
  EXPECT_EQ(IA.valueBefore(Join, 0, V), Interval::range(2, 9));
  // The condition came from memory: top, no proof.
  EXPECT_TRUE(IA.valueBefore(Entry, 2, C).isTop());
}

TEST(ConstProp, LoopCounterWidensAndConverges) {
  // i = (i + 1) & 255 around a loop — the growing upper bound forces
  // widening, the masked re-entry then restores a non-negative bound, and
  // the solver must converge there instead of oscillating.
  Module M;
  M.Name = "loop";
  M.MemWords = 8;
  M.addFunction("main", 0);
  IRBuilder B(M, 0);
  Reg I = B.newReg(), C = B.newReg(), T = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Head = B.newBlock("head");
  uint32_t Body = B.newBlock("body");
  uint32_t Exit = B.newBlock("exit");
  B.setInsertPoint(Entry);
  B.movImm(I, 0);
  B.jmp(Head);
  B.setInsertPoint(Head);
  B.cmpGe(C, R(I), K(200));
  B.br(R(C), Exit, Body);
  B.setInsertPoint(Body);
  B.add(T, R(I), K(1));
  B.band(I, R(T), K(255));
  B.jmp(Head);
  B.setInsertPoint(Exit);
  B.ret(R(I));

  sa::IntervalAnalysis IA(M.Functions[0]);
  EXPECT_TRUE(IA.stats().Converged);
  // Unwidened the head would see [0,0], [0,1], [0,2], ... forever.
  EXPECT_GT(IA.stats().Widenings, 0u);
  // Widening shoots the upper bound to the sentinel, but the mask keeps
  // the counter provably non-negative at the backedge join.
  Interval AtHead = IA.valueBefore(Head, 0, I);
  EXPECT_TRUE(AtHead.nonNegative());
  EXPECT_FALSE(AtHead.isTop());
  // The comparison itself stays undecided: both directions execute.
  EXPECT_EQ(sa::evalBinop(Opcode::CmpGe, AtHead, Interval::constant(200)),
            Interval::range(0, 1));
}

TEST(BranchProofs, MaskedGuardIsProvenNeverTaken) {
  // The Compress idiom: slot = h & (TS-1); if (slot >= TS) clamp — the
  // guard can never fire and the proof engine must see that.
  Module M;
  M.Name = "guard";
  M.MemWords = 8;
  M.addFunction("main", 0);
  IRBuilder B(M, 0);
  Reg H = B.newReg(), S = B.newReg(), C = B.newReg(), I = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Oob = B.newBlock("oob");
  uint32_t Ok = B.newBlock("ok");
  B.setInsertPoint(Entry);
  B.movImm(I, 0);
  B.load(H, K(0), R(I)); // unbounded hash value
  B.band(S, R(H), K(4095));
  B.cmpGe(C, R(S), K(4096));
  B.br(R(C), Oob, Ok);
  B.setInsertPoint(Oob);
  B.ret(K(1));
  B.setInsertPoint(Ok);
  B.ret(K(0));
  M.assignBranchIds();

  BranchProofs P = sa::computeBranchProofs(M);
  EXPECT_EQ(P.provenCount(), 1u);
  EXPECT_EQ(P.dirOf(0), Prediction::NotTaken);
  // Out-of-range ids answer Unknown instead of reading out of bounds.
  EXPECT_EQ(P.dirOf(-1), Prediction::Unknown);
  EXPECT_EQ(P.dirOf(999), Prediction::Unknown);

  std::vector<Diagnostic> Diags;
  sa::PassManager PM;
  sa::addStandardPasses(PM);
  Diags = PM.run(M);
  EXPECT_TRUE(hasRule(Diags, "const-prop.never-taken")) << renderAll(Diags);
}

TEST(BranchProofs, ConstantConditionIsProvenAlwaysTaken) {
  Module M;
  M.Name = "taken";
  M.MemWords = 8;
  M.addFunction("main", 0);
  IRBuilder B(M, 0);
  Reg C = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Then = B.newBlock("then");
  uint32_t Else = B.newBlock("else");
  B.setInsertPoint(Entry);
  B.movImm(C, 3);
  B.br(R(C), Then, Else);
  B.setInsertPoint(Then);
  B.ret(K(0));
  B.setInsertPoint(Else);
  B.ret(K(1));
  M.assignBranchIds();

  BranchProofs P = sa::computeBranchProofs(M);
  EXPECT_EQ(P.dirOf(0), Prediction::Taken);

  sa::PassManager PM;
  sa::addStandardPasses(PM);
  std::vector<Diagnostic> Diags = PM.run(M);
  EXPECT_TRUE(hasRule(Diags, "const-prop.always-taken")) << renderAll(Diags);
}

TEST(BranchProofs, DataDependentBranchesStayUnproven) {
  // Sanity bound against over-proving: on every workload a proof means the
  // training trace is unidirectional for that branch — checked exactly by
  // the pipeline soundness test below; here just assert proofs exist only
  // on the two workloads that carry provable guards.
  for (const Workload &W : allWorkloads()) {
    Module M = W.Build(1);
    M.assignBranchIds();
    BranchProofs P = sa::computeBranchProofs(M);
    std::string Name(W.Name);
    if (Name == "compress" || Name == "c-compiler") {
      EXPECT_GT(P.provenCount(), 0u) << Name;
    }
    Module Traced;
    ColumnarTrace T = traceWorkloadColumnar(W, 1, Traced, 20'000);
    ASSERT_EQ(T.numBranches(), M.conditionalBranchCount()) << Name;
    for (uint32_t Id = 0; Id < T.numBranches(); ++Id) {
      Prediction Dir = P.dirOf(static_cast<int32_t>(Id));
      BranchColumn Col = T.branch(Id);
      if (Dir == Prediction::Unknown || Col.Executions == 0)
        continue;
      uint64_t Agree = Dir == Prediction::Taken
                           ? Col.TakenCount
                           : Col.Executions - Col.TakenCount;
      EXPECT_EQ(Agree, Col.Executions)
          << Name << " branch " << Id << ": proof contradicts the trace";
    }
  }
}

// -- Backward liveness vs the dead-code pass ----------------------------------

/// Solves LivenessClient over \p F and returns per-block live-in sets.
std::vector<std::vector<uint8_t>> solveLiveness(const Function &F) {
  CFG G(F);
  sa::LivenessClient C(F);
  sa::DataflowSolver<sa::LivenessClient> S(G, C);
  EXPECT_TRUE(S.solve().Converged);
  std::vector<std::vector<uint8_t>> In;
  In.reserve(G.numBlocks());
  for (uint32_t B = 0; B < G.numBlocks(); ++B)
    In.push_back(S.before(B));
  return In;
}

TEST(Liveness, HandComputedDiamond) {
  // entry(def a, def b) -> then(use a) | else(use b) -> join(use c?): c is
  // never written, so it is live-in everywhere it is read and dead where
  // not.
  Module M;
  M.Name = "live";
  M.MemWords = 8;
  M.addFunction("main", 0);
  IRBuilder B(M, 0);
  Reg A = B.newReg(), Bb = B.newReg(), C = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Then = B.newBlock("then");
  uint32_t Else = B.newBlock("else");
  B.setInsertPoint(Entry);
  B.movImm(A, 1);
  B.movImm(Bb, 2);
  B.br(R(C), Then, Else); // C read by the branch
  B.setInsertPoint(Then);
  B.ret(R(A));
  B.setInsertPoint(Else);
  B.ret(R(Bb));

  std::vector<std::vector<uint8_t>> In = solveLiveness(M.Functions[0]);
  // Entry: only C is live-in (A and B are written before their reads).
  EXPECT_FALSE(In[Entry][A]);
  EXPECT_FALSE(In[Entry][Bb]);
  EXPECT_TRUE(In[Entry][C]);
  // Each arm needs exactly its returned register.
  EXPECT_TRUE(In[Then][A]);
  EXPECT_FALSE(In[Then][Bb]);
  EXPECT_TRUE(In[Else][Bb]);
  EXPECT_FALSE(In[Else][A]);
}

TEST(Liveness, LoopCarriedRegisterStaysLive) {
  Module M;
  M.Name = "liveloop";
  M.MemWords = 8;
  M.addFunction("main", 0);
  IRBuilder B(M, 0);
  Reg I = B.newReg(), C = B.newReg(), Dead = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Head = B.newBlock("head");
  uint32_t Body = B.newBlock("body");
  uint32_t Exit = B.newBlock("exit");
  B.setInsertPoint(Entry);
  B.movImm(I, 0);
  B.jmp(Head);
  B.setInsertPoint(Head);
  B.cmpGe(C, R(I), K(10));
  B.br(R(C), Exit, Body);
  B.setInsertPoint(Body);
  B.movImm(Dead, 42); // never read anywhere
  B.add(I, R(I), K(1));
  B.jmp(Head);
  B.setInsertPoint(Exit);
  B.ret(K(0));

  std::vector<std::vector<uint8_t>> In = solveLiveness(M.Functions[0]);
  // The counter is live around the whole loop, the dead def never is.
  EXPECT_TRUE(In[Head][I]);
  EXPECT_TRUE(In[Body][I]);
  EXPECT_FALSE(In[Head][Dead]);
  EXPECT_FALSE(In[Body][Dead]);

  // Cross-check: the dead-code pass's own fixpoint flags exactly that def.
  sa::PassManager PM;
  PM.add(sa::createDeadCodePass());
  std::vector<Diagnostic> Diags = PM.run(M);
  EXPECT_TRUE(hasRule(Diags, "dead-code.dead-store")) << renderAll(Diags);
}

TEST(Liveness, AgreesWithDeadCodePassOnWorkloads) {
  // Engine cross-check at scale: wherever the dead-code pass reports a
  // dead store, replaying the solver's block-exit state backward to that
  // instruction must show the destination register dead — two independent
  // fixpoints, one answer.
  for (const Workload &W : allWorkloads()) {
    Module M = W.Build(1);
    M.assignBranchIds();
    sa::PassManager PM;
    PM.add(sa::createDeadCodePass());
    std::vector<Diagnostic> Diags = PM.run(M);
    for (const Diagnostic &D : Diags) {
      if (D.fullRuleId() != "dead-code.dead-store")
        continue;
      ASSERT_GE(D.Loc.FuncIdx, 0);
      const Function &F = M.Functions[static_cast<size_t>(D.Loc.FuncIdx)];
      CFG G(F);
      sa::LivenessClient C(F);
      sa::DataflowSolver<sa::LivenessClient> S(G, C);
      ASSERT_TRUE(S.solve().Converged);
      uint32_t BI = static_cast<uint32_t>(D.Loc.BlockIdx);
      // after(B) is the backward solver's state at the block bottom; walk
      // the instructions below the finding to get liveness at its def.
      std::vector<uint8_t> Live = S.after(BI);
      const std::vector<Instruction> &Insts = F.Blocks[BI].Insts;
      for (size_t II = Insts.size(); II-- > 0;) {
        if (II == static_cast<size_t>(D.Loc.InstIdx)) {
          EXPECT_FALSE(Live[Insts[II].Dst])
              << W.Name << ": " << D.render();
          break;
        }
        const Instruction &I = Insts[II];
        if (writesRegister(I.Op) && I.Dst < Live.size())
          Live[I.Dst] = 0;
        sa::forEachReadRegister(I, [&](Reg Rd) {
          if (Rd < Live.size())
            Live[Rd] = 1;
        });
      }
    }
  }
}

// -- Profile realizability ----------------------------------------------------

/// entry -> loop { body -> (left|right) -> loop } -> exit, conditions from
/// memory; branch 0 is the loop header, branch 1 the body split.
Module buildFlowModule() {
  Module M;
  M.Name = "flow";
  M.MemWords = 16;
  M.addFunction("main", 0);
  M.EntryFunction = 0;
  IRBuilder B(M, 0);
  Reg C = B.newReg(), D = B.newReg(), I = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Loop = B.newBlock("loop");
  uint32_t Body = B.newBlock("body");
  uint32_t Left = B.newBlock("left");
  uint32_t Right = B.newBlock("right");
  uint32_t Exit = B.newBlock("exit");
  B.setInsertPoint(Entry);
  B.movImm(I, 0);
  B.jmp(Loop);
  B.setInsertPoint(Loop);
  B.load(C, K(0), R(I));
  B.br(R(C), Body, Exit);
  B.setInsertPoint(Body);
  B.load(D, K(1), R(I));
  B.br(R(D), Left, Right);
  B.setInsertPoint(Left);
  B.jmp(Loop);
  B.setInsertPoint(Right);
  B.jmp(Loop);
  B.setInsertPoint(Exit);
  B.ret(K(0));
  M.assignBranchIds();
  return M;
}

sa::BranchProfileCounts counts(uint64_t T0, uint64_t N0, uint64_t T1,
                               uint64_t N1) {
  sa::BranchProfileCounts P;
  P.Counts = {{T0, N0}, {T1, N1}};
  return P;
}

TEST(ProfileVerify, RealizableProfilePassesClean) {
  Module M = buildFlowModule();
  // 10 iterations: header 10 taken + 1 exit; body splits 6/4.
  std::vector<Diagnostic> D =
      verifyProfileRealizability(M, counts(10, 1, 6, 4));
  EXPECT_TRUE(D.empty()) << renderAll(D);
}

TEST(ProfileVerify, CountShapeMismatchIsRejected) {
  Module M = buildFlowModule();
  sa::BranchProfileCounts P;
  P.Counts = {{5, 5}}; // one slot, two branches
  std::vector<Diagnostic> D = verifyProfileRealizability(M, P);
  ASSERT_EQ(D.size(), 1u) << renderAll(D);
  EXPECT_EQ(D[0].fullRuleId(), "profile-verify.count-shape");
  EXPECT_EQ(D[0].Sev, Severity::Error);
}

TEST(ProfileVerify, UnknownBranchEventsAreRejected) {
  Module M = buildFlowModule();
  ColumnarTrace T;
  T.appendRun(0, true, 4);
  T.append(9, true); // no branch 9
  sa::BranchProfileCounts P =
      sa::BranchProfileCounts::fromColumnar(M.conditionalBranchCount(), T);
  EXPECT_EQ(P.OutOfRange, 1u);
  std::vector<Diagnostic> D = verifyProfileRealizability(M, P);
  EXPECT_TRUE(hasRule(D, "profile-verify.unknown-branch")) << renderAll(D);
}

TEST(ProfileVerify, OverfullBlockIsAFlowMismatch) {
  Module M = buildFlowModule();
  // Body is entered 10 times but its branch claims 15 executions.
  std::vector<Diagnostic> D =
      verifyProfileRealizability(M, counts(10, 1, 8, 7));
  EXPECT_TRUE(hasRule(D, "profile-verify.flow-mismatch")) << renderAll(D);
}

TEST(ProfileVerify, TruncatedTailIsANoteUnlessStrict) {
  Module M = buildFlowModule();
  // The trace was cut mid-run: the body fed 10 executions back to the
  // header but the header's own branch only recorded 10 (never the final
  // exit), so in-flow 11 > 10 recorded — legal for a capped trace.
  sa::BranchProfileCounts P = counts(10, 0, 6, 4);
  std::vector<Diagnostic> Lax = verifyProfileRealizability(M, P);
  EXPECT_FALSE(sa::anyAtOrAbove(Lax, Severity::Warning)) << renderAll(Lax);
  EXPECT_TRUE(hasRule(Lax, "profile-verify.truncated-tail"));

  sa::ProfileVerifyOptions Strict;
  Strict.Strict = true;
  std::vector<Diagnostic> Hard = verifyProfileRealizability(M, P, Strict);
  EXPECT_TRUE(hasRule(Hard, "profile-verify.flow-mismatch"))
      << renderAll(Hard);
}

TEST(ProfileVerify, ExitFlowMismatchWhenModuleReturnsTooOften) {
  Module M = buildFlowModule();
  // 21 header executions with 2 exits: the entry function would have to
  // return twice for one recorded run.
  std::vector<Diagnostic> D =
      verifyProfileRealizability(M, counts(20, 2, 12, 8));
  EXPECT_TRUE(hasRule(D, "profile-verify.exit-flow-mismatch"))
      << renderAll(D);
}

TEST(ProfileVerify, UnreachableExecutionIsRejected) {
  Module M;
  M.Name = "unreach";
  M.MemWords = 8;
  M.addFunction("main", 0);
  M.EntryFunction = 0;
  IRBuilder B(M, 0);
  Reg C = B.newReg(), I = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Dead = B.newBlock("dead");
  uint32_t T1 = B.newBlock("t1");
  uint32_t T2 = B.newBlock("t2");
  B.setInsertPoint(Entry);
  B.ret(K(0));
  B.setInsertPoint(Dead); // no edge reaches this block
  B.movImm(I, 0);
  B.load(C, K(0), R(I));
  B.br(R(C), T1, T2);
  B.setInsertPoint(T1);
  B.ret(K(1));
  B.setInsertPoint(T2);
  B.ret(K(2));
  M.assignBranchIds();

  sa::BranchProfileCounts P;
  P.Counts = {{3, 2}};
  std::vector<Diagnostic> D = verifyProfileRealizability(M, P);
  EXPECT_TRUE(hasRule(D, "profile-verify.unreachable-execution"))
      << renderAll(D);
}

TEST(ProfileVerify, RecordedWorkloadTracesAreAdmitted) {
  // The admission gate of the acceptance criteria: a genuinely recorded
  // trace of every workload verifies with nothing at warning or above
  // (truncated-tail notes are expected — the traces are event-capped).
  for (const Workload &W : allWorkloads()) {
    Module M;
    ColumnarTrace T = traceWorkloadColumnar(W, 1, M, 20'000);
    sa::BranchProfileCounts P =
        sa::BranchProfileCounts::fromColumnar(M.conditionalBranchCount(), T);
    std::vector<Diagnostic> D = verifyProfileRealizability(M, P);
    EXPECT_FALSE(sa::anyAtOrAbove(D, Severity::Warning))
        << W.Name << ":\n"
        << renderAll(D);
  }
}

TEST(ProfileVerify, FlippedWorkloadProfileIsRejected) {
  // Swapping taken/not-taken of the busiest branch of a real trace breaks
  // conservation somewhere downstream — the gate must notice, strict mode
  // makes it an error.
  Module M;
  ColumnarTrace T =
      traceWorkloadColumnar(allWorkloads()[2] /* compress */, 1, M, 20'000);
  sa::BranchProfileCounts P =
      sa::BranchProfileCounts::fromColumnar(M.conditionalBranchCount(), T);
  size_t Busiest = 0;
  for (size_t Id = 1; Id < P.Counts.size(); ++Id)
    if (P.Counts[Id].total() > P.Counts[Busiest].total())
      Busiest = Id;
  std::swap(P.Counts[Busiest].Taken, P.Counts[Busiest].NotTaken);
  sa::ProfileVerifyOptions Strict;
  Strict.Strict = true;
  std::vector<Diagnostic> D = verifyProfileRealizability(M, P, Strict);
  EXPECT_TRUE(sa::anyAtOrAbove(D, Severity::Error)) << renderAll(D);
}

// -- Solver robustness: fuzzed modules ----------------------------------------

TEST(SolverFuzz, RandomModulesTerminateAndRoundTripStably) {
  std::mt19937_64 Rng(0xDF01);
  for (int Iter = 0; Iter < 60; ++Iter) {
    Module M;
    M.Name = "fuzz";
    M.MemWords = 8;
    M.addFunction("main", 0);
    IRBuilder B(M, 0);
    B.func().NumRegs = 4;
    std::uniform_int_distribution<uint32_t> BlockCount(2, 7);
    uint32_t NB = BlockCount(Rng);
    for (uint32_t I = 0; I < NB; ++I) {
      std::string BlockName = "b";
      BlockName += std::to_string(I);
      B.newBlock(BlockName);
    }
    std::uniform_int_distribution<uint32_t> Target(0, NB - 1);
    std::uniform_int_distribution<int> RegPick(0, 3);
    std::uniform_int_distribution<int> Kind(0, 3);
    std::uniform_int_distribution<int64_t> Imm(-4, 100);
    for (uint32_t I = 0; I < NB; ++I) {
      B.setInsertPoint(I);
      Reg D = static_cast<Reg>(RegPick(Rng));
      Reg S = static_cast<Reg>(RegPick(Rng));
      switch (Kind(Rng)) {
      case 0:
        B.movImm(D, Imm(Rng));
        break;
      case 1:
        B.add(D, R(S), K(Imm(Rng)));
        break;
      case 2:
        B.band(D, R(S), K(255));
        break;
      default:
        B.cmpGe(D, R(S), K(Imm(Rng)));
        break;
      }
      switch (Kind(Rng)) {
      case 0:
        B.ret(R(static_cast<Reg>(RegPick(Rng))));
        break;
      case 1:
        B.jmp(Target(Rng));
        break;
      default:
        B.br(R(static_cast<Reg>(RegPick(Rng))), Target(Rng), Target(Rng));
        break;
      }
    }
    M.assignBranchIds();

    // Termination: whatever the CFG shape (cycles through every block,
    // unreachable tails, self-loops), both solvers converge within their
    // visit bounds — forced-top is allowed, divergence is not.
    sa::IntervalAnalysis IA(M.Functions[0]);
    EXPECT_TRUE(IA.stats().Converged) << writeModuleText(M);
    CFG G(M.Functions[0]);
    sa::LivenessClient LC(M.Functions[0]);
    sa::DataflowSolver<sa::LivenessClient> LS(G, LC);
    EXPECT_TRUE(LS.solve().Converged) << writeModuleText(M);

    // Monotonicity check at the fixpoint: every block's entry state must
    // be exactly the join of its predecessors' exits — re-running transfer
    // and join cannot change anything.
    BranchProofs P1 = sa::computeBranchProofs(M);

    // Proof stability across a serializer round-trip.
    std::string Text = writeModuleText(M);
    Module M2;
    std::string Err;
    ASSERT_TRUE(parseModuleText(Text, M2, Err)) << Err << "\n" << Text;
    BranchProofs P2 = sa::computeBranchProofs(M2);
    ASSERT_EQ(P1.Dir.size(), P2.Dir.size()) << Text;
    for (size_t I = 0; I < P1.Dir.size(); ++I)
      EXPECT_EQ(P1.Dir[I], P2.Dir[I]) << Text;
  }
}

// -- PassManager parallelism --------------------------------------------------

TEST(PassManagerJobs, DiagnosticsAreIdenticalAcrossWorkerCounts) {
  for (const Workload &W : allWorkloads()) {
    Module M = W.Build(1);
    M.assignBranchIds();
    sa::PassManager PM;
    sa::addStandardPasses(PM);
    std::vector<Diagnostic> One = PM.run(M, 1);
    std::vector<Diagnostic> Four = PM.run(M, 4);
    ASSERT_EQ(One.size(), Four.size()) << W.Name;
    for (size_t I = 0; I < One.size(); ++I) {
      EXPECT_EQ(One[I].render(), Four[I].render()) << W.Name;
      EXPECT_EQ(One[I].Sev, Four[I].Sev) << W.Name;
    }
  }
}

// -- Proof pruning: quality identity and counters -----------------------------

TEST(ProofPruning, PrunedSearchChoosesIdenticalStrategies) {
  // The soundness argument made executable: a proven branch's profile
  // prediction is already perfect, so no machine can beat it and skipping
  // its pattern-table fill and its search must change nothing about the
  // chosen strategies or their scores.
  for (const char *Name : {"compress", "c-compiler"}) {
    const Workload *W = nullptr;
    for (const Workload &Cand : allWorkloads())
      if (std::string(Cand.Name) == Name)
        W = &Cand;
    ASSERT_NE(W, nullptr);
    Module M;
    ColumnarTrace T = traceWorkloadColumnar(*W, 1, M, 20'000);
    ProgramAnalysis PA(M);
    sa::BranchProofs Proofs = sa::computeBranchProofs(M);
    ASSERT_GT(Proofs.provenCount(), 0u) << Name;

    StrategyOptions Off;
    Off.MaxStates = 4;
    Off.NodeBudget = 50'000;
    StrategyOptions On = Off;
    On.Proofs = &Proofs;

    std::vector<BranchStrategy> SOn = selectStrategies(
        PA, buildLoopAwareProfiles(PA, T, 9, &Proofs), T, On);
    std::vector<BranchStrategy> SOff =
        selectStrategies(PA, buildLoopAwareProfiles(PA, T), T, Off);

    ASSERT_EQ(SOn.size(), SOff.size());
    for (size_t I = 0; I < SOn.size(); ++I) {
      const BranchStrategy &A = SOn[I];
      const BranchStrategy &B = SOff[I];
      EXPECT_EQ(A.Kind, B.Kind) << Name << " branch " << I;
      EXPECT_EQ(A.Correct, B.Correct) << Name << " branch " << I;
      EXPECT_EQ(A.Total, B.Total) << Name << " branch " << I;
      EXPECT_EQ(A.States, B.States) << Name << " branch " << I;
    }
  }
}

TEST(ProofPruning, SearchCounterRecordsPrunedBranches) {
  Registry &Reg = Registry::global();
  Reg.clear();
  Reg.setEnabled(true);
  for (const char *Name : {"compress", "c-compiler"}) {
    uint64_t Before = Reg.counter("search.pruned_by_proof").value();
    const Workload *W = nullptr;
    for (const Workload &Cand : allWorkloads())
      if (std::string(Cand.Name) == Name)
        W = &Cand;
    ASSERT_NE(W, nullptr);
    Module M;
    ColumnarTrace T = traceWorkloadColumnar(*W, 1, M, 20'000);
    PipelineOptions Opts;
    Opts.Strategy.MaxStates = 4;
    Opts.Strategy.NodeBudget = 50'000;
    PipelineResult PR = replicateModule(M, T, Opts);
    EXPECT_GT(Reg.counter("search.pruned_by_proof").value(), Before)
        << Name << ": the workload's proven guard was not pruned";
    EXPECT_GT(Reg.gauge("sa.proofs.pruned_branches").value(), 0.0) << Name;
  }
  Reg.setEnabled(false);
  Reg.clear();
}

// -- Lint baselines -----------------------------------------------------------

TEST(Baseline, SerializeParseRoundTrip) {
  sa::LintBaseline BL;
  BL.Keys = {"loop-shape.scattered-exits main.block6",
             "use-before-def.read-before-def lex.block2.inst4"};
  std::string Text = BL.serialize();
  sa::LintBaseline Back;
  std::string Error;
  ASSERT_TRUE(sa::LintBaseline::parse(Text, Back, Error)) << Error;
  EXPECT_EQ(Back.Keys, BL.Keys);
}

TEST(Baseline, ParseRejectsMalformedInput) {
  sa::LintBaseline Out;
  std::string Error;
  EXPECT_FALSE(sa::LintBaseline::parse("no header\n", Out, Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(sa::LintBaseline::parse(
      "# bpcr lint baseline v1\nonly-one-token\n", Out, Error));
  EXPECT_TRUE(sa::LintBaseline::parse(
      "# bpcr lint baseline v1\n\n# comment\nrule.id main.b0\n", Out,
      Error))
      << Error;
  EXPECT_EQ(Out.Keys.size(), 1u);
}

TEST(Baseline, ApplySuppressesAndFlagsStaleEntries) {
  Module M;
  M.Name = "base";
  M.MemWords = 8;
  M.addFunction("main", 0);
  IRBuilder B(M, 0);
  Reg C = B.newReg(), V = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Then = B.newBlock("then");
  uint32_t Else = B.newBlock("else");
  B.setInsertPoint(Entry);
  B.br(R(C), Then, Else); // use-before-def warning on C
  B.setInsertPoint(Then);
  B.movImm(V, 5); // dead store warning
  B.ret(K(0));
  B.setInsertPoint(Else);
  B.ret(K(1));
  M.assignBranchIds();

  sa::PassManager PM;
  sa::addStandardPasses(PM);
  std::vector<Diagnostic> Diags = PM.run(M);
  size_t Warnings = 0;
  for (const Diagnostic &D : Diags)
    Warnings += D.Sev == Severity::Warning ? 1 : 0;
  ASSERT_GE(Warnings, 2u) << renderAll(Diags);

  // Record everything, apply: nothing but notes may survive.
  sa::LintBaseline All = sa::LintBaseline::fromDiagnostics(Diags);
  std::vector<Diagnostic> Left = All.apply(Diags);
  EXPECT_FALSE(sa::anyAtOrAbove(Left, Severity::Warning))
      << renderAll(Left);

  // A stale key surfaces as exactly one lint-baseline.stale-entry warning.
  sa::LintBaseline Stale;
  Stale.Keys = {"dead-code.dead-store gone.block9.inst9"};
  std::vector<Diagnostic> WithStale = Stale.apply(Diags);
  EXPECT_TRUE(hasRule(WithStale, "lint-baseline.stale-entry"))
      << renderAll(WithStale);
  EXPECT_EQ(WithStale.size(), Diags.size() + 1);
}

} // namespace
