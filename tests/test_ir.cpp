//===- tests/test_ir.cpp - IR construction and verification ---------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace bpcr;

namespace {

Operand R(Reg X) { return Operand::reg(X); }
Operand K(int64_t V) { return Operand::imm(V); }

/// Builds: main() { x = 0; loop: x++; if (x < 5) goto loop; return x; }
Module countToFive() {
  Module M;
  M.MemWords = 4;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  Reg X = B.newReg(), C = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Loop = B.newBlock("loop");
  uint32_t Exit = B.newBlock("exit");
  B.setInsertPoint(Entry);
  B.movImm(X, 0);
  B.jmp(Loop);
  B.setInsertPoint(Loop);
  B.add(X, R(X), K(1));
  B.cmpLt(C, R(X), K(5));
  B.br(R(C), Loop, Exit);
  B.setInsertPoint(Exit);
  B.ret(R(X));
  return M;
}

} // namespace

TEST(Operand, Accessors) {
  Operand A = Operand::reg(7);
  EXPECT_TRUE(A.isReg());
  EXPECT_EQ(A.asReg(), 7);
  Operand B = Operand::imm(-3);
  EXPECT_TRUE(B.isImm());
  EXPECT_EQ(B.Val, -3);
  EXPECT_TRUE(Operand::none().isNone());
}

TEST(BasicBlock, SuccessorsOfTerminators) {
  Module M = countToFive();
  const Function &F = M.Functions[0];
  EXPECT_EQ(F.Blocks[0].successors(), (std::vector<uint32_t>{1}));
  EXPECT_EQ(F.Blocks[1].successors(), (std::vector<uint32_t>{1, 2}));
  EXPECT_TRUE(F.Blocks[2].successors().empty());
}

TEST(IRBuilder, RegistersAreSequential) {
  Module M;
  uint32_t F = M.addFunction("f", 2);
  IRBuilder B(M, F);
  EXPECT_EQ(B.newReg(), 2); // params take 0 and 1
  EXPECT_EQ(B.newReg(), 3);
  EXPECT_EQ(M.Functions[F].NumRegs, 4u);
}

TEST(IRBuilder, CountToFiveIsValid) {
  Module M = countToFive();
  EXPECT_TRUE(verifyModule(M).empty());
}

TEST(Module, AssignBranchIdsIsSequentialAndMirrored) {
  Module M = countToFive();
  EXPECT_EQ(M.assignBranchIds(), 1u);
  const Instruction &Br = M.Functions[0].Blocks[1].terminator();
  EXPECT_EQ(Br.BranchId, 0);
  EXPECT_EQ(Br.OrigBranchId, 0);
}

TEST(Module, ReassignKeepsOrigIds) {
  Module M = countToFive();
  M.assignBranchIds();
  // Simulate replication: clone the loop block; its branch keeps Orig.
  Function &F = M.Functions[0];
  F.Blocks.push_back(F.Blocks[1]);
  M.assignBranchIds();
  EXPECT_EQ(F.Blocks[1].terminator().BranchId, 0);
  EXPECT_EQ(F.Blocks[3].terminator().BranchId, 1);
  EXPECT_EQ(F.Blocks[3].terminator().OrigBranchId, 0);
}

TEST(Module, BranchLocations) {
  Module M = countToFive();
  M.assignBranchIds();
  auto Refs = M.branchLocations();
  ASSERT_EQ(Refs.size(), 1u);
  EXPECT_EQ(Refs[0].FuncIdx, 0u);
  EXPECT_EQ(Refs[0].BlockIdx, 1u);
  EXPECT_EQ(Refs[0].InstIdx, 2u);
}

TEST(Module, InstructionCounts) {
  Module M = countToFive();
  EXPECT_EQ(M.instructionCount(), 6u);
  EXPECT_EQ(M.conditionalBranchCount(), 1u);
}

// -- Verifier negative cases ---------------------------------------------------

TEST(Verifier, DetectsMissingTerminator) {
  Module M;
  M.addFunction("f", 0);
  IRBuilder B(M, 0);
  uint32_t E = B.newBlock("entry");
  B.setInsertPoint(E);
  Reg X = B.newReg();
  B.movImm(X, 1); // no terminator
  auto Errs = verifyModule(M);
  ASSERT_FALSE(Errs.empty());
  EXPECT_NE(Errs[0].find("terminator"), std::string::npos);
}

TEST(Verifier, DetectsEmptyBlock) {
  Module M;
  M.addFunction("f", 0);
  M.Functions[0].Blocks.emplace_back();
  EXPECT_FALSE(verifyModule(M).empty());
}

TEST(Verifier, DetectsBadBranchTarget) {
  Module M = countToFive();
  M.Functions[0].Blocks[1].terminator().TrueTarget = 99;
  EXPECT_FALSE(verifyModule(M).empty());
}

TEST(Verifier, DetectsOutOfRangeRegister) {
  Module M = countToFive();
  M.Functions[0].Blocks[1].Insts[0].A = Operand::reg(60000);
  EXPECT_FALSE(verifyModule(M).empty());
}

TEST(Verifier, DetectsBadCallee) {
  Module M = countToFive();
  Instruction Call;
  Call.Op = Opcode::Call;
  Call.Callee = 42;
  auto &Insts = M.Functions[0].Blocks[0].Insts;
  Insts.insert(Insts.begin(), Call);
  EXPECT_FALSE(verifyModule(M).empty());
}

TEST(Verifier, DetectsArgCountMismatch) {
  Module M = countToFive();
  uint32_t Callee = M.addFunction("g", 2);
  {
    IRBuilder B(M, Callee);
    uint32_t E = B.newBlock("entry");
    B.setInsertPoint(E);
    B.ret(K(0));
  }
  Instruction Call;
  Call.Op = Opcode::Call;
  Call.Callee = Callee;
  Call.Args = {K(1)}; // needs 2
  auto &Insts = M.Functions[0].Blocks[0].Insts;
  Insts.insert(Insts.begin(), Call);
  EXPECT_FALSE(verifyModule(M).empty());
}

TEST(Verifier, DetectsMidBlockTerminator) {
  Module M = countToFive();
  Instruction Jmp;
  Jmp.Op = Opcode::Jmp;
  Jmp.TrueTarget = 0;
  auto &Insts = M.Functions[0].Blocks[0].Insts;
  Insts.insert(Insts.begin(), Jmp);
  EXPECT_FALSE(verifyModule(M).empty());
}

TEST(Verifier, DetectsOversizedMemoryImage) {
  Module M = countToFive();
  M.InitialMemory.assign(M.MemWords + 1, 0);
  EXPECT_FALSE(verifyModule(M).empty());
}

TEST(Verifier, DetectsMemoryPastTheLimit) {
  Module M = countToFive();
  M.MemWords = MaxMemWords;
  EXPECT_TRUE(verifyModule(M).empty());
  M.MemWords = MaxMemWords + 1;
  bool Found = false;
  for (const auto &D : verifyModuleDiags(M))
    Found = Found || D.fullRuleId() == "ir-verify.memory-size";
  EXPECT_TRUE(Found);
}

TEST(Verifier, DetectsEntryBlockWithPredecessors) {
  // Regression: an edge back into block 0 used to pass silently, but the
  // interpreter and CFG both treat the entry as a pure reset point.
  Module M = countToFive();
  M.Functions[0].Blocks[1].terminator().TrueTarget = 0;
  auto Diags = verifyModuleDiags(M);
  ASSERT_FALSE(Diags.empty());
  bool Found = false;
  for (const auto &D : Diags)
    Found = Found || D.fullRuleId() == "ir-verify.entry-has-preds";
  EXPECT_TRUE(Found);
}

TEST(Verifier, DetectsFallthroughOnlyBlock) {
  // Regression: a block no explicit edge targets could only execute by
  // falling through past a terminator, which the interpreter never does.
  Module M = countToFive();
  IRBuilder B(M, 0);
  uint32_t Limbo = B.newBlock("limbo");
  B.setInsertPoint(Limbo);
  B.ret(K(0));
  auto Diags = verifyModuleDiags(M);
  ASSERT_FALSE(Diags.empty());
  bool Found = false;
  for (const auto &D : Diags) {
    if (D.fullRuleId() != "ir-verify.no-predecessors")
      continue;
    Found = true;
    EXPECT_EQ(D.PassId, "ir-verify");
    EXPECT_EQ(D.Loc.BlockIdx, static_cast<int32_t>(Limbo));
  }
  EXPECT_TRUE(Found);
}

// -- Printer ---------------------------------------------------------------------

TEST(Printer, MentionsBlocksAndOpcodes) {
  Module M = countToFive();
  M.assignBranchIds();
  std::string S = printModule(M);
  EXPECT_NE(S.find("func main"), std::string::npos);
  EXPECT_NE(S.find("loop"), std::string::npos);
  EXPECT_NE(S.find("br "), std::string::npos);
  EXPECT_NE(S.find("ret "), std::string::npos);
  EXPECT_NE(S.find("id=0"), std::string::npos);
}

TEST(Printer, ShowsPredictionAnnotation) {
  Module M = countToFive();
  M.assignBranchIds();
  M.Functions[0].Blocks[1].terminator().Predicted = Prediction::Taken;
  std::string S = printFunction(M.Functions[0]);
  EXPECT_NE(S.find("predict=T"), std::string::npos);
}

TEST(Opcode, Names) {
  EXPECT_STREQ(opcodeName(Opcode::Add), "add");
  EXPECT_STREQ(opcodeName(Opcode::Br), "br");
  EXPECT_STREQ(opcodeName(Opcode::CmpLe), "cmple");
}

TEST(Opcode, Predicates) {
  EXPECT_TRUE(isTerminator(Opcode::Ret));
  EXPECT_FALSE(isTerminator(Opcode::Add));
  EXPECT_TRUE(isCompare(Opcode::CmpEq));
  EXPECT_FALSE(isCompare(Opcode::Load));
  EXPECT_TRUE(writesRegister(Opcode::Load));
  EXPECT_FALSE(writesRegister(Opcode::Store));
  EXPECT_FALSE(writesRegister(Opcode::Br));
}
