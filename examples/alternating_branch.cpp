//===- examples/alternating_branch.cpp - The paper's figure 1 -------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Reconstructs figure 1 of the paper: "flow graph of an intra loop branch
// and a 2 state machine". A loop contains a branch that alternates between
// taken and not taken; the loop is duplicated and the branch switches
// between the two copies, so that in each copy the branch "is now predicted
// correctly 100% of the time". The copies that cannot be reached ("2b" and
// "3a" in the paper) are discarded.
//
//   $ ./alternating_branch
//
//===----------------------------------------------------------------------===//

#include "core/MachineSearch.h"
#include "core/ProgramAnalysis.h"
#include "core/Replication.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <cstdio>

using namespace bpcr;

int main() {
  auto R = [](Reg X) { return Operand::reg(X); };
  auto K = [](int64_t V) { return Operand::imm(V); };

  // The paper's flow graph: loop header "1" with the alternating branch,
  // blocks "2"/"3" as its arms, latch "4".
  Module M;
  M.Name = "figure1";
  M.MemWords = 4;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  Reg I = B.newReg(), C = B.newReg(), A = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t B1 = B.newBlock("1");
  uint32_t B2 = B.newBlock("2");
  uint32_t B3 = B.newBlock("3");
  uint32_t B4 = B.newBlock("4");
  uint32_t Exit = B.newBlock("exit");

  B.setInsertPoint(Entry);
  B.movImm(I, 0);
  B.movImm(A, 0);
  B.jmp(B1);
  B.setInsertPoint(B1);
  B.band(C, R(I), K(1));
  B.br(R(C), B2, B3); // alternates T,N,T,N,...
  B.setInsertPoint(B2);
  B.add(A, R(A), K(1));
  B.jmp(B4);
  B.setInsertPoint(B3);
  B.add(A, R(A), K(2));
  B.jmp(B4);
  B.setInsertPoint(B4);
  B.add(I, R(I), K(1));
  B.cmpLt(C, R(I), K(1000));
  B.br(R(C), B1, Exit);
  B.setInsertPoint(Exit);
  B.store(K(0), K(0), R(A));
  B.ret(R(A));
  M.assignBranchIds();

  std::printf("== Original loop (the alternating branch is id 0) ==\n%s\n",
              printFunction(M.Functions[0], &M).c_str());

  // Profile the loop: collect the trace into its id and direction columns,
  // then index it per branch.
  ColumnarTrace T;
  ExecResult Orig = executeColumnar(M, T);
  T.finalize(2);
  ProfileSet Profiles(2);
  Profiles.addTrace(T);
  std::printf("Alternating branch: %llu executions, %llu taken -> profile "
              "mispredicts %llu times\n\n",
              static_cast<unsigned long long>(
                  Profiles.branch(0).executions()),
              static_cast<unsigned long long>(
                  Profiles.branch(0).takenCount()),
              static_cast<unsigned long long>(
                  Profiles.branch(0).profileMispredictions()));

  // Build the 2-state machine (the paper's state "0" / state "1").
  MachineOptions MO;
  MO.MaxStates = 2;
  SuffixMachine Machine = buildIntraLoopMachine(Profiles.branch(0).Table, MO);
  std::printf("2-state machine: %s\n\n", Machine.describe().c_str());

  // Replicate the loop.
  Module X = M;
  ProgramAnalysis PA(X);
  const BranchClass &Cls = PA.classOf(0);
  const Loop &L = PA.loopInfoFor(0).loops()[static_cast<size_t>(Cls.LoopIdx)];
  uint64_t BlocksBefore = X.Functions[0].Blocks.size();
  ReplicationStats RS = applyLoopReplication(X.Functions[0], L.Blocks,
                                             BranchLoopMachine(Machine, 0));
  X.assignBranchIds();
  std::printf("== Replicated loop ==\n%s\n",
              printFunction(X.Functions[0], &X).c_str());
  std::printf("Blocks: %llu -> %zu (%u added, %u pruned — the paper's "
              "discarded copies \"2b\" and \"3a\")\n\n",
              static_cast<unsigned long long>(BlocksBefore),
              X.Functions[0].Blocks.size(), RS.BlocksAdded, RS.BlocksPruned);

  if (!verifyModule(X).empty()) {
    std::printf("replicated module failed verification!\n");
    return 1;
  }

  // Same behaviour, near-zero misprediction.
  ExecResult Repl = execute(X);
  std::printf("Return values: original=%lld replicated=%lld (%s)\n",
              static_cast<long long>(Orig.ReturnValue),
              static_cast<long long>(Repl.ReturnValue),
              Orig.ReturnValue == Repl.ReturnValue ? "equal" : "DIFFER");

  TraceStats Stats(2);
  Stats.addTrace(T);
  Module P = M;
  annotateProfilePredictions(P, Stats);
  annotateProfilePredictions(X, Stats);
  PredictionStats Before = measureAnnotatedPredictions(P, ExecOptions());
  PredictionStats After = measureAnnotatedPredictions(X, ExecOptions());
  std::printf("Semi-static mispredictions: %llu before, %llu after "
              "replication\n",
              static_cast<unsigned long long>(Before.Mispredictions),
              static_cast<unsigned long long>(After.Mispredictions));
  return 0;
}
