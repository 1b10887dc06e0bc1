//===- tests/test_sa.cpp - Static analysis framework tests ----------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
// Each pass is fed a hand-built module seeded with exactly the defect it
// hunts, and the test asserts the stable fully-qualified rule id — the lint
// output contract that CI SARIF uploads and docs/STATIC_ANALYSIS.md depend
// on. The replication soundness checker is additionally exercised against
// the real pipeline: clean on every workload across a budget/state sweep,
// loud on a corrupted copy->original fold.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "ir/IRBuilder.h"
#include "ir/Serializer.h"
#include "ir/Verifier.h"
#include "sa/Baseline.h"
#include "sa/Passes.h"
#include "sa/ReplicationSoundness.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cctype>
#include <random>
#include <string>
#include <vector>

using namespace bpcr;
using sa::Diagnostic;
using sa::Severity;

namespace {

Operand R(Reg X) { return Operand::reg(X); }
Operand K(int64_t V) { return Operand::imm(V); }

size_t countRule(const std::vector<Diagnostic> &Diags,
                 const std::string &FullRuleId) {
  size_t N = 0;
  for (const Diagnostic &D : Diags)
    if (D.fullRuleId() == FullRuleId)
      ++N;
  return N;
}

bool hasRule(const std::vector<Diagnostic> &Diags,
             const std::string &FullRuleId) {
  return countRule(Diags, FullRuleId) > 0;
}

std::string renderAll(const std::vector<Diagnostic> &Diags) {
  std::string S;
  for (const Diagnostic &D : Diags)
    S += D.render() + "\n";
  return S;
}

std::vector<Diagnostic> lint(const Module &M) {
  sa::PassManager PM;
  sa::addStandardPasses(PM);
  return PM.run(M);
}

// -- Use before def -----------------------------------------------------------

TEST(UseBeforeDef, FlagsReadOfUnwrittenRegister) {
  Module M;
  M.MemWords = 8;
  M.addFunction("main", 0);
  IRBuilder B(M, 0);
  uint32_t E = B.newBlock("entry"), T = B.newBlock("then"),
           F = B.newBlock("else");
  B.setInsertPoint(E);
  Reg C = B.newReg();
  B.br(R(C), T, F); // C is never written.
  B.setInsertPoint(T);
  B.ret(K(0));
  B.setInsertPoint(F);
  B.ret(K(1));
  M.assignBranchIds();

  std::vector<Diagnostic> Diags;
  sa::createUseBeforeDefPass()->run(M, Diags);
  ASSERT_EQ(Diags.size(), 1u) << renderAll(Diags);
  EXPECT_EQ(Diags[0].fullRuleId(), "use-before-def.read-before-def");
  EXPECT_EQ(Diags[0].Sev, Severity::Warning);
  EXPECT_EQ(Diags[0].Loc.qualifiedName(), "main.block0.inst0");
}

TEST(UseBeforeDef, ParametersAndDominatingWritesAreClean) {
  Module M;
  M.MemWords = 8;
  M.addFunction("f", 2); // r0, r1 are parameters: defined on entry.
  IRBuilder B(M, 0);
  uint32_t E = B.newBlock("entry"), T = B.newBlock("then"),
           F = B.newBlock("else"), X = B.newBlock("exit");
  B.setInsertPoint(E);
  Reg S = B.newReg();
  B.add(S, R(0), R(1));
  B.br(R(S), T, F);
  B.setInsertPoint(T);
  B.jmp(X);
  B.setInsertPoint(F);
  B.jmp(X);
  B.setInsertPoint(X);
  B.ret(R(S)); // S written on every path (in the entry block).
  M.EntryFunction = 0;
  // Entry function must take no params for the verifier; wrap it.
  uint32_t MainIdx = M.addFunction("main", 0);
  IRBuilder MB(M, MainIdx);
  MB.newBlock("entry");
  MB.setInsertPoint(0);
  Reg V = MB.newReg();
  MB.call(V, 0, {K(1), K(2)});
  MB.ret(R(V));
  M.EntryFunction = MainIdx;
  M.assignBranchIds();

  std::vector<Diagnostic> Diags;
  sa::createUseBeforeDefPass()->run(M, Diags);
  EXPECT_TRUE(Diags.empty()) << renderAll(Diags);
}

// -- Dead code ----------------------------------------------------------------

TEST(DeadCode, FlagsUnreachableBlockAndDeadStore) {
  Module M;
  M.MemWords = 8;
  M.addFunction("main", 0);
  IRBuilder B(M, 0);
  uint32_t E = B.newBlock("entry"), X = B.newBlock("exit"),
           D = B.newBlock("limbo");
  B.setInsertPoint(E);
  Reg A = B.newReg(), Z = B.newReg();
  B.movImm(A, 7);
  B.movImm(Z, 9); // Dead store: Z is never read.
  B.jmp(X);
  B.setInsertPoint(X);
  B.ret(R(A));
  B.setInsertPoint(D); // Unreachable: no edge ever targets "limbo".
  B.ret(K(0));
  M.assignBranchIds();

  std::vector<Diagnostic> Diags;
  sa::createDeadCodePass()->run(M, Diags);
  EXPECT_EQ(countRule(Diags, "dead-code.unreachable-block"), 1u)
      << renderAll(Diags);
  EXPECT_EQ(countRule(Diags, "dead-code.dead-store"), 1u) << renderAll(Diags);
  for (const Diagnostic &Dg : Diags)
    EXPECT_EQ(Dg.Sev, Severity::Warning);
}

// -- Loop shape ---------------------------------------------------------------

TEST(LoopShape, FlagsIrreducibleLoop) {
  // entry branches into both halves of a 1 <-> 2 cycle: neither cycle block
  // dominates the other, so the cycle has no single header.
  Module M;
  M.MemWords = 8;
  M.addFunction("main", 0);
  IRBuilder B(M, 0);
  uint32_t E = B.newBlock("entry"), L = B.newBlock("left"),
           Rt = B.newBlock("right");
  B.setInsertPoint(E);
  Reg C = B.newReg();
  B.movImm(C, 1);
  B.br(R(C), L, Rt);
  B.setInsertPoint(L);
  B.jmp(Rt);
  B.setInsertPoint(Rt);
  B.jmp(L);
  M.assignBranchIds();

  std::vector<Diagnostic> Diags;
  sa::createLoopShapePass()->run(M, Diags);
  ASSERT_TRUE(hasRule(Diags, "loop-shape.irreducible-loop"))
      << renderAll(Diags);
  for (const Diagnostic &D : Diags)
    if (D.fullRuleId() == "loop-shape.irreducible-loop") {
      EXPECT_EQ(D.Sev, Severity::Error);
    }
}

TEST(LoopShape, FlagsHeaderWithoutPreheader) {
  // Two distinct outside edges into the loop header: no preheader.
  Module M;
  M.MemWords = 8;
  M.addFunction("main", 0);
  IRBuilder B(M, 0);
  uint32_t E = B.newBlock("entry"), A = B.newBlock("a"),
           H = B.newBlock("header"), X = B.newBlock("exit");
  B.setInsertPoint(E);
  Reg C = B.newReg(), I = B.newReg(), T = B.newReg();
  B.movImm(C, 1);
  B.movImm(I, 0);
  B.br(R(C), A, H);
  B.setInsertPoint(A);
  B.jmp(H);
  B.setInsertPoint(H);
  B.add(I, R(I), K(1));
  B.cmpLt(T, R(I), K(10));
  B.br(R(T), H, X);
  B.setInsertPoint(X);
  B.ret(R(I));
  M.assignBranchIds();

  std::vector<Diagnostic> Diags;
  sa::createLoopShapePass()->run(M, Diags);
  EXPECT_TRUE(hasRule(Diags, "loop-shape.no-preheader")) << renderAll(Diags);
  EXPECT_FALSE(sa::anyAtOrAbove(Diags, Severity::Error)) << renderAll(Diags);
}

TEST(LoopShape, NaturalLoopWithPreheaderIsClean) {
  Module M;
  M.MemWords = 8;
  M.addFunction("main", 0);
  IRBuilder B(M, 0);
  uint32_t E = B.newBlock("entry"), H = B.newBlock("header"),
           X = B.newBlock("exit");
  B.setInsertPoint(E);
  Reg I = B.newReg(), T = B.newReg();
  B.movImm(I, 0);
  B.jmp(H);
  B.setInsertPoint(H);
  B.add(I, R(I), K(1));
  B.cmpLt(T, R(I), K(10));
  B.br(R(T), H, X);
  B.setInsertPoint(X);
  B.ret(R(I));
  M.assignBranchIds();

  std::vector<Diagnostic> Diags;
  sa::createLoopShapePass()->run(M, Diags);
  EXPECT_TRUE(Diags.empty()) << renderAll(Diags);
}

// -- Branch hygiene -----------------------------------------------------------

/// Diamond with two conditional branches whose ids the test then corrupts.
Module twoBranchModule() {
  Module M;
  M.MemWords = 8;
  M.addFunction("main", 0);
  IRBuilder B(M, 0);
  uint32_t E = B.newBlock("entry"), Mid = B.newBlock("mid"),
           X = B.newBlock("exit");
  B.setInsertPoint(E);
  Reg C = B.newReg(), D = B.newReg();
  B.movImm(C, 1);
  B.movImm(D, 0);
  B.br(R(C), Mid, X);
  B.setInsertPoint(Mid);
  B.br(R(D), X, X);
  B.setInsertPoint(X);
  B.ret(K(0));
  M.assignBranchIds();
  return M;
}

TEST(BranchHygiene, FlagsDuplicateId) {
  Module M = twoBranchModule();
  Function &F = M.Functions[0];
  F.Blocks[1].terminator().BranchId = F.Blocks[0].terminator().BranchId;

  std::vector<Diagnostic> Diags;
  sa::createBranchHygienePass()->run(M, Diags);
  ASSERT_EQ(countRule(Diags, "branch-hygiene.duplicate-id"), 1u)
      << renderAll(Diags);
  const Diagnostic *Dup = nullptr;
  for (const Diagnostic &D : Diags)
    if (D.fullRuleId() == "branch-hygiene.duplicate-id")
      Dup = &D;
  ASSERT_NE(Dup, nullptr);
  EXPECT_EQ(Dup->Sev, Severity::Error);
  ASSERT_FALSE(Dup->Notes.empty()); // Points at the first owner of the id.
}

TEST(BranchHygiene, FlagsMissingAndUnassignedIds) {
  Module M = twoBranchModule();
  M.Functions[0].Blocks[1].terminator().BranchId = NoBranchId;
  std::vector<Diagnostic> Diags;
  sa::createBranchHygienePass()->run(M, Diags);
  EXPECT_EQ(countRule(Diags, "branch-hygiene.missing-id"), 1u)
      << renderAll(Diags);

  // Strip every id: one module-level "never assigned" finding, not a spray
  // of per-branch ones.
  Module M2 = twoBranchModule();
  for (BasicBlock &BB : M2.Functions[0].Blocks)
    if (BB.terminator().isConditionalBranch())
      BB.terminator().BranchId = NoBranchId;
  Diags.clear();
  sa::createBranchHygienePass()->run(M2, Diags);
  ASSERT_EQ(Diags.size(), 1u) << renderAll(Diags);
  EXPECT_EQ(Diags[0].fullRuleId(), "branch-hygiene.ids-unassigned");
}

TEST(BranchHygiene, FlagsBranchInUncalledFunction) {
  Module M = twoBranchModule();
  uint32_t Dead = M.addFunction("never_called", 0);
  IRBuilder B(M, Dead);
  uint32_t E = B.newBlock("entry"), X = B.newBlock("exit");
  B.setInsertPoint(E);
  Reg C = B.newReg();
  B.movImm(C, 0);
  B.br(R(C), X, X);
  B.setInsertPoint(X);
  B.ret(K(0));
  M.assignBranchIds();

  std::vector<Diagnostic> Diags;
  sa::createBranchHygienePass()->run(M, Diags);
  EXPECT_EQ(countRule(Diags, "branch-hygiene.unreachable-branch"), 1u)
      << renderAll(Diags);
}

// -- Replication soundness ----------------------------------------------------

struct SweepModule {
  Module Orig;
  PipelineResult PR;
};

/// Runs the real pipeline over one workload and returns both sides of the
/// simulation relation.
SweepModule runPipeline(const Workload &W, unsigned MaxStates = 4,
                        double SizeFactor = 8.0) {
  SweepModule S;
  ColumnarTrace T = traceWorkloadColumnar(W, 1, S.Orig, 20'000);
  PipelineOptions Opts;
  Opts.Strategy.MaxStates = MaxStates;
  Opts.JointMaxStates = MaxStates;
  Opts.MaxSizeFactor = SizeFactor;
  S.PR = replicateModule(S.Orig, T, Opts);
  return S;
}

/// First transformed branch that is a genuine copy (folds onto a different
/// original id), or any branch if none was replicated.
Instruction *findReplicatedBranch(Module &M) {
  Instruction *Any = nullptr;
  for (Function &F : M.Functions)
    for (BasicBlock &BB : F.Blocks)
      for (Instruction &I : BB.Insts)
        if (I.isConditionalBranch()) {
          Any = &I;
          if (I.OrigBranchId != I.BranchId)
            return &I;
        }
  return Any;
}

TEST(ReplicationSoundness, PipelineOutputPassesAndCarriesNoFindings) {
  SweepModule S = runPipeline(allWorkloads()[0]);
  EXPECT_TRUE(S.PR.Soundness.empty()) << renderAll(S.PR.Soundness);
  std::vector<Diagnostic> Diags =
      sa::checkReplicationSoundness(S.Orig, S.PR.Transformed);
  EXPECT_TRUE(Diags.empty()) << renderAll(Diags);
}

TEST(ReplicationSoundness, RejectsCorruptedFold) {
  // Find a workload where replication actually fired so the corruption hits
  // a real copy.
  for (const Workload &W : allWorkloads()) {
    SweepModule S = runPipeline(W);
    Instruction *Br = findReplicatedBranch(S.PR.Transformed);
    if (!Br || Br->OrigBranchId == Br->BranchId)
      continue;
    // Fold the copy onto the wrong original branch.
    int32_t Valid =
        static_cast<int32_t>(S.Orig.conditionalBranchCount());
    Br->OrigBranchId = (Br->OrigBranchId + 1) % Valid;
    std::vector<Diagnostic> Diags =
        sa::checkReplicationSoundness(S.Orig, S.PR.Transformed);
    ASSERT_TRUE(sa::anyAtOrAbove(Diags, Severity::Error))
        << W.Name << ": corruption went undetected";
    EXPECT_TRUE(hasRule(Diags, "replication-soundness.wrong-fold"))
        << W.Name << ":\n"
        << renderAll(Diags);
    return;
  }
  FAIL() << "no workload replicated any branch at the sweep settings";
}

TEST(ReplicationSoundness, RejectsOutOfRangeFold) {
  SweepModule S = runPipeline(allWorkloads()[0]);
  Instruction *Br = findReplicatedBranch(S.PR.Transformed);
  ASSERT_NE(Br, nullptr);
  Br->OrigBranchId =
      static_cast<int32_t>(S.Orig.conditionalBranchCount()) + 5;
  std::vector<Diagnostic> Diags =
      sa::checkReplicationSoundness(S.Orig, S.PR.Transformed);
  EXPECT_TRUE(hasRule(Diags, "replication-soundness.orphan-copy"))
      << renderAll(Diags);
}

TEST(ReplicationSoundness, RejectsCorruptedCopyToOrigMap) {
  SweepModule S = runPipeline(allWorkloads()[0]);
  // Build the honest copy->original map, then corrupt one entry.
  std::vector<BranchRef> Locs = S.PR.Transformed.branchLocations();
  ASSERT_GE(Locs.size(), 2u);
  std::vector<int32_t> Map(Locs.size(), NoBranchId);
  for (size_t I = 0; I < Locs.size(); ++I) {
    const BranchRef &L = Locs[I];
    Map[I] = S.PR.Transformed.Functions[L.FuncIdx]
                 .Blocks[L.BlockIdx]
                 .Insts[L.InstIdx]
                 .OrigBranchId;
  }
  std::vector<Diagnostic> Clean =
      sa::checkReplicationSoundness(S.Orig, S.PR.Transformed, &Map);
  ASSERT_TRUE(Clean.empty()) << renderAll(Clean);

  int32_t Valid = static_cast<int32_t>(S.Orig.conditionalBranchCount());
  Map[0] = (Map[0] + 1) % Valid;
  std::vector<Diagnostic> Diags =
      sa::checkReplicationSoundness(S.Orig, S.PR.Transformed, &Map);
  EXPECT_TRUE(hasRule(Diags, "replication-soundness.map-mismatch"))
      << renderAll(Diags);
}

TEST(ReplicationSoundness, RejectsMutatedComputation) {
  SweepModule S = runPipeline(allWorkloads()[0]);
  // Flip the opcode of the first non-terminator instruction.
  Instruction *Victim = nullptr;
  for (Function &F : S.PR.Transformed.Functions) {
    for (BasicBlock &BB : F.Blocks)
      for (Instruction &I : BB.Insts)
        if (!isTerminator(I.Op)) {
          Victim = &I;
          break;
        }
    if (Victim)
      break;
  }
  ASSERT_NE(Victim, nullptr);
  Victim->Op = Victim->Op == Opcode::Mov ? Opcode::Add : Opcode::Mov;
  std::vector<Diagnostic> Diags =
      sa::checkReplicationSoundness(S.Orig, S.PR.Transformed);
  EXPECT_TRUE(hasRule(Diags, "replication-soundness.instruction-mismatch"))
      << renderAll(Diags);
}

/// Workload names as gtest-legal identifiers ("c-compiler" -> "c_compiler").
std::string paramName(size_t Idx) {
  std::string N = allWorkloads()[Idx].Name;
  for (char &C : N)
    if (!std::isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return N;
}

// -- Acceptance: soundness holds at every sweep point -------------------------

class SoundnessSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SoundnessSweep, CleanAcrossBudgetAndStateGrid) {
  const Workload &W = allWorkloads()[GetParam()];
  Module M;
  ColumnarTrace T = traceWorkloadColumnar(W, 1, M, 20'000);
  for (double SizeFactor : {1.5, 4.0, 8.0}) {
    for (unsigned States : {2u, 8u}) {
      PipelineOptions Opts;
      Opts.Strategy.MaxStates = States;
      Opts.JointMaxStates = States;
      Opts.MaxSizeFactor = SizeFactor;
      PipelineResult PR = replicateModule(M, T, Opts);
      EXPECT_TRUE(PR.Soundness.empty())
          << W.Name << " budget=" << SizeFactor << " states=" << States
          << ":\n"
          << renderAll(PR.Soundness);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SoundnessSweep,
                         ::testing::Range<size_t>(0, 8),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           return paramName(Info.param);
                         });

// -- Acceptance: every workload lints clean -----------------------------------

class WorkloadLint : public ::testing::TestWithParam<size_t> {};

TEST_P(WorkloadLint, NoErrorsAndOnlyBaselinedWarnings) {
  const Workload &W = allWorkloads()[GetParam()];
  // The two calibrated true-positive warnings live in known-findings
  // baselines (mirroring tests/data/lint_doduc.baseline and
  // lint_prolog.baseline, consumed by `bpcr lint --baseline`). After
  // applying the baseline NOTHING at warning level may remain: a new
  // finding survives the filter, and a finding that disappeared turns its
  // entry into a lint-baseline.stale-entry warning — both regressions.
  sa::LintBaseline BL;
  if (std::string(W.Name) == "doduc")
    BL.Keys = {"use-before-def.read-before-def main.block18.inst1"};
  else if (std::string(W.Name) == "prolog")
    BL.Keys = {"loop-shape.scattered-exits main.block6"};
  for (uint64_t Seed : {1u, 2u, 7u}) {
    Module M = W.Build(Seed);
    M.assignBranchIds();
    std::vector<Diagnostic> Diags = BL.apply(lint(M));
    EXPECT_FALSE(sa::anyAtOrAbove(Diags, Severity::Warning))
        << W.Name << " seed " << Seed << ":\n"
        << renderAll(Diags);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadLint,
                         ::testing::Range<size_t>(0, 8),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           return paramName(Info.param);
                         });

// -- Fuzz-ish: random modules never crash the passes and survive round-trip ---

TEST(LintFuzz, RandomModulesLintAndRoundTripStably) {
  std::mt19937_64 Rng(0xB9C5);
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
    std::uniform_int_distribution<int> Kind(0, 2);
    for (uint32_t I = 0; I < NB; ++I) {
      B.setInsertPoint(I);
      Reg D = static_cast<Reg>(RegPick(Rng));
      B.movImm(D, static_cast<int64_t>(Rng() % 100));
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

    // Whatever the shape (unreachable blocks, entry back edges, strange
    // cycles), the passes must terminate without crashing.
    std::vector<Diagnostic> Before = lint(M);

    // And the findings must be stable across a serializer round-trip.
    std::string Text = writeModuleText(M);
    Module M2;
    std::string Err;
    ASSERT_TRUE(parseModuleText(Text, M2, Err)) << Err << "\n" << Text;
    std::vector<Diagnostic> After = lint(M2);
    ASSERT_EQ(Before.size(), After.size()) << Text;
    for (size_t I = 0; I < Before.size(); ++I)
      EXPECT_EQ(Before[I].fullRuleId(), After[I].fullRuleId());
  }
}

} // namespace
