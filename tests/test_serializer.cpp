//===- tests/test_serializer.cpp - Textual module format tests ------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "TraceTestUtil.h"

#include "core/Pipeline.h"
#include "interp/Interpreter.h"
#include "ir/Serializer.h"
#include "ir/Verifier.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace bpcr;

namespace {

/// Structural equality via the canonical text rendering.
void expectSameModule(const Module &A, const Module &B) {
  EXPECT_EQ(writeModuleText(A), writeModuleText(B));
}

} // namespace

class SerializerRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(SerializerRoundTrip, WorkloadSurvivesTextRoundTrip) {
  const Workload &W = allWorkloads()[GetParam()];
  Module M = W.Build(1);
  M.assignBranchIds();

  std::string Text = writeModuleText(M);
  Module Back;
  std::string Error;
  ASSERT_TRUE(parseModuleText(Text, Back, Error)) << Error;
  EXPECT_TRUE(verifyModule(Back).empty()) << W.Name;
  expectSameModule(M, Back);

  // Same behaviour, same trace.
  ExecOptions EO;
  EO.MaxBranchEvents = 30'000;
  test::TracedRun RA = test::traceModule(M, EO);
  test::TracedRun RB = test::traceModule(Back, EO);
  ASSERT_TRUE(RA.Result.Ok) << RA.Result.Error;
  ASSERT_TRUE(RB.Result.Ok) << RB.Result.Error;
  EXPECT_EQ(RA.Result.ReturnValue, RB.Result.ReturnValue);
  EXPECT_EQ(test::eventsOf(RA.Trace), test::eventsOf(RB.Trace));
}

INSTANTIATE_TEST_SUITE_P(All, SerializerRoundTrip,
                         ::testing::Range<size_t>(0, 8));

TEST(Serializer, ReplicatedModuleRoundTripsWithAnnotations) {
  Module M;
  ColumnarTrace T = traceWorkloadColumnar(allWorkloads()[2], 1, M, 100'000);
  PipelineOptions Opts;
  Opts.Strategy.MaxStates = 4;
  Opts.Strategy.NodeBudget = 10'000;
  PipelineResult PR = replicateModule(M, T, Opts);

  std::string Text = writeModuleText(PR.Transformed);
  Module Back;
  std::string Error;
  ASSERT_TRUE(parseModuleText(Text, Back, Error)) << Error;
  expectSameModule(PR.Transformed, Back);

  // Predicted annotations and orig ids survive.
  bool SawPrediction = false, SawOrig = false;
  for (const Function &F : Back.Functions)
    for (const BasicBlock &BB : F.Blocks)
      for (const Instruction &I : BB.Insts) {
        SawPrediction |= I.Predicted != Prediction::Unknown;
        SawOrig |= (I.isConditionalBranch() && I.OrigBranchId != I.BranchId);
      }
  EXPECT_TRUE(SawPrediction);
  EXPECT_TRUE(SawOrig);
}

TEST(Serializer, FileRoundTrip) {
  Module M = buildWorkload("prolog", 2);
  M.assignBranchIds();
  std::string Path = ::testing::TempDir() + "/bpcr_module_test.bpcrir";
  ASSERT_TRUE(writeModuleFile(Path, M));
  Module Back;
  std::string Error;
  ASSERT_TRUE(readModuleFile(Path, Back, Error)) << Error;
  expectSameModule(M, Back);
}

TEST(Serializer, SparseDataRunsAreCompact) {
  Module M;
  M.Name = "sparse";
  M.MemWords = 1'000'000;
  M.InitialMemory.assign(1'000'000, 0);
  M.InitialMemory[5] = 42;
  M.InitialMemory[999'999] = -7;
  uint32_t F = M.addFunction("main", 0);
  Function &Fn = M.Functions[F];
  BasicBlock BB;
  BB.Name = "entry";
  Instruction Ret;
  Ret.Op = Opcode::Ret;
  Ret.A = Operand::imm(0);
  BB.Insts.push_back(Ret);
  Fn.Blocks.push_back(BB);

  std::string Text = writeModuleText(M);
  // Zero words are skipped: the text must stay tiny.
  EXPECT_LT(Text.size(), 300u);
  Module Back;
  std::string Error;
  ASSERT_TRUE(parseModuleText(Text, Back, Error)) << Error;
  ASSERT_GE(Back.InitialMemory.size(), 1'000'000u);
  EXPECT_EQ(Back.InitialMemory[5], 42);
  EXPECT_EQ(Back.InitialMemory[999'999], -7);
}

// -- Error reporting ------------------------------------------------------------

namespace {

std::string parseError(const std::string &Text) {
  Module M;
  std::string Error;
  EXPECT_FALSE(parseModuleText(Text, M, Error));
  return Error;
}

} // namespace

TEST(Serializer, ReportsUnknownOpcode) {
  std::string E = parseError("module m\nmem 1\nentry 0\n"
                             "func f params 0 regs 1\nblock b\n"
                             "  frobnicate r0, 1, 2\nendfunc\n");
  EXPECT_NE(E.find("line 6"), std::string::npos);
  EXPECT_NE(E.find("frobnicate"), std::string::npos);
}

TEST(Serializer, ReportsInstructionOutsideBlock) {
  std::string E = parseError("module m\nmem 1\nentry 0\n"
                             "func f params 0 regs 1\n  mov r0, 1\n");
  EXPECT_NE(E.find("outside a block"), std::string::npos);
}

TEST(Serializer, ReportsMissingEndfunc) {
  std::string E = parseError("module m\nmem 1\nentry 0\n"
                             "func f params 0 regs 1\nblock b\n  ret 0\n");
  EXPECT_NE(E.find("endfunc"), std::string::npos);
}

TEST(Serializer, ReportsBadBranchAnnotation) {
  std::string E = parseError("module m\nmem 1\nentry 0\n"
                             "func f params 0 regs 1\nblock b\n"
                             "  br r0, 0, 0 wibble\nendfunc\n");
  EXPECT_NE(E.find("annotation"), std::string::npos);
}

TEST(Serializer, ReportsOversizedData) {
  std::string E = parseError("module m\nmem 2\nentry 0\ndata 5 1\n"
                             "func f params 0 regs 1\nblock b\n  ret 0\n"
                             "endfunc\n");
  EXPECT_NE(E.find("memory"), std::string::npos);
}

TEST(Serializer, AcceptsComments) {
  Module M;
  std::string Error;
  ASSERT_TRUE(parseModuleText("# a program\nmodule m\nmem 1\nentry 0\n"
                              "func f params 0 regs 1\nblock b # entry\n"
                              "  ret 0\nendfunc\n",
                              M, Error))
      << Error;
  EXPECT_TRUE(verifyModule(M).empty());
}
