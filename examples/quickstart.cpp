//===- examples/quickstart.cpp - Library tour in one file -----------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The five-minute tour: build a small program in the IR, trace it, train
// the semi-static predictors, run the full profile->replicate pipeline and
// measure the replicated program's realized prediction accuracy.
//
//   $ ./quickstart
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "predict/Evaluator.h"
#include "predict/SemiStaticPredictors.h"

#include <cstdio>

using namespace bpcr;

int main() {
  // -- 1. Build a program ------------------------------------------------------
  // A loop of 3000 iterations containing an alternating branch (i & 1) and
  // a biased branch (i % 10 == 0).
  Module M;
  M.Name = "quickstart";
  M.MemWords = 8;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  auto R = [](Reg X) { return Operand::reg(X); };
  auto K = [](int64_t V) { return Operand::imm(V); };

  Reg I = B.newReg(), C = B.newReg(), A = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Header = B.newBlock("header");
  uint32_t Body = B.newBlock("body");
  uint32_t Odd = B.newBlock("odd");
  uint32_t Even = B.newBlock("even");
  uint32_t Tenth = B.newBlock("tenth");
  uint32_t Latch = B.newBlock("latch");
  uint32_t Exit = B.newBlock("exit");

  B.setInsertPoint(Entry);
  B.movImm(I, 0);
  B.movImm(A, 0);
  B.jmp(Header);
  B.setInsertPoint(Header);
  B.cmpLt(C, R(I), K(3000));
  B.br(R(C), Body, Exit);
  B.setInsertPoint(Body);
  B.band(C, R(I), K(1));
  B.br(R(C), Odd, Even); // alternating: profile's worst case
  B.setInsertPoint(Odd);
  B.add(A, R(A), K(3));
  B.jmp(Latch);
  B.setInsertPoint(Even);
  B.add(A, R(A), K(5));
  B.jmp(Latch);
  B.setInsertPoint(Latch);
  B.add(I, R(I), K(1));
  B.rem(C, R(I), K(10));
  B.cmpEq(C, R(C), K(0));
  B.br(R(C), Tenth, Header); // biased 1:9
  B.setInsertPoint(Tenth);
  B.store(K(0), K(0), R(A));
  B.jmp(Header);
  B.setInsertPoint(Exit);
  B.ret(R(A));

  M.assignBranchIds();
  if (!verifyModule(M).empty()) {
    std::printf("module failed verification\n");
    return 1;
  }
  std::printf("== The program ==\n%s\n", printModule(M).c_str());

  // -- 2. Record its branch trace ------------------------------------------------
  // The trace is the (branch id, direction) event stream, kept as two
  // columns; finalize() indexes it per branch for the profile builders.
  ColumnarTrace T;
  ExecResult Res = executeColumnar(M, T);
  std::printf("== Execution ==\nreturn=%lld, %llu instructions, %llu branch "
              "events\n\n",
              static_cast<long long>(Res.ReturnValue),
              static_cast<unsigned long long>(Res.InstructionsExecuted),
              static_cast<unsigned long long>(Res.BranchEvents));
  T.finalize(static_cast<uint32_t>(M.conditionalBranchCount()));

  // -- 3. Train semi-static predictors --------------------------------------------
  ProfilePredictor Prof;
  LoopCorrelationPredictor LC;
  std::printf("== Semi-static prediction on the trace ==\n");
  std::printf("profile:          %5.1f%% mispredicted\n",
              evaluateSelfTrained(Prof, T).mispredictionPercent());
  std::printf("loop-correlation: %5.1f%% mispredicted\n\n",
              evaluateSelfTrained(LC, T).mispredictionPercent());

  // -- 4. Replicate ----------------------------------------------------------------
  PipelineOptions Opts;
  Opts.Strategy.MaxStates = 4;
  Opts.MaxSizeFactor = 4.0;
  PipelineResult PR = replicateModule(M, T, Opts);
  std::printf("== Replication ==\n%u loop replication(s), %u correlated, "
              "size %llu -> %llu instructions (%.2fx)\n\n",
              PR.LoopReplications, PR.CorrelatedReplications,
              static_cast<unsigned long long>(PR.OrigInstructions),
              static_cast<unsigned long long>(PR.NewInstructions),
              PR.sizeFactor());
  std::printf("== The replicated program ==\n%s\n",
              printModule(PR.Transformed).c_str());

  // -- 5. Measure the replicated program's static predictions ----------------------
  const PredictionStats &Before = PR.Baseline;
  const PredictionStats &After = PR.Measured;
  std::printf("== Realized semi-static misprediction ==\n");
  std::printf("profile-annotated original:  %5.1f%% (%llu wrong)\n",
              Before.mispredictionPercent(),
              static_cast<unsigned long long>(Before.Mispredictions));
  std::printf("replicated program:          %5.1f%% (%llu wrong)\n",
              After.mispredictionPercent(),
              static_cast<unsigned long long>(After.Mispredictions));
  return 0;
}
