//===- tests/test_interp.cpp - Interpreter semantics ----------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "TraceTestUtil.h"

#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

using namespace bpcr;

namespace {

Operand R(Reg X) { return Operand::reg(X); }
Operand K(int64_t V) { return Operand::imm(V); }

/// main() { return a op b; }
Module binOp(Opcode Op, int64_t A, int64_t B) {
  Module M;
  M.MemWords = 1;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder Bu(M, Main);
  Reg X = Bu.newReg();
  uint32_t E = Bu.newBlock("entry");
  Bu.setInsertPoint(E);
  Instruction I;
  I.Op = Op;
  I.Dst = X;
  I.A = K(A);
  I.B = K(B);
  M.Functions[Main].Blocks[E].Insts.push_back(I);
  Bu.ret(R(X));
  return M;
}

int64_t evalBin(Opcode Op, int64_t A, int64_t B) {
  Module M = binOp(Op, A, B);
  ExecResult Res = execute(M);
  EXPECT_TRUE(Res.Ok) << Res.Error;
  return Res.ReturnValue;
}

} // namespace

// -- Arithmetic ----------------------------------------------------------------

TEST(Interp, Arithmetic) {
  EXPECT_EQ(evalBin(Opcode::Add, 2, 3), 5);
  EXPECT_EQ(evalBin(Opcode::Sub, 2, 3), -1);
  EXPECT_EQ(evalBin(Opcode::Mul, -4, 6), -24);
  EXPECT_EQ(evalBin(Opcode::Div, 7, 2), 3);
  EXPECT_EQ(evalBin(Opcode::Div, -7, 2), -3);
  EXPECT_EQ(evalBin(Opcode::Rem, 7, 3), 1);
  EXPECT_EQ(evalBin(Opcode::And, 0b1100, 0b1010), 0b1000);
  EXPECT_EQ(evalBin(Opcode::Or, 0b1100, 0b1010), 0b1110);
  EXPECT_EQ(evalBin(Opcode::Xor, 0b1100, 0b1010), 0b0110);
  EXPECT_EQ(evalBin(Opcode::Shl, 1, 10), 1024);
  EXPECT_EQ(evalBin(Opcode::Shr, -8, 1), -4); // arithmetic shift
}

TEST(Interp, DivisionEdgeCasesAreDefined) {
  EXPECT_EQ(evalBin(Opcode::Div, 5, 0), 0);
  EXPECT_EQ(evalBin(Opcode::Rem, 5, 0), 0);
  int64_t Min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(evalBin(Opcode::Div, Min, -1), Min);
  EXPECT_EQ(evalBin(Opcode::Rem, Min, -1), 0);
}

TEST(Interp, Comparisons) {
  EXPECT_EQ(evalBin(Opcode::CmpEq, 3, 3), 1);
  EXPECT_EQ(evalBin(Opcode::CmpEq, 3, 4), 0);
  EXPECT_EQ(evalBin(Opcode::CmpNe, 3, 4), 1);
  EXPECT_EQ(evalBin(Opcode::CmpLt, -1, 0), 1);
  EXPECT_EQ(evalBin(Opcode::CmpLe, 0, 0), 1);
  EXPECT_EQ(evalBin(Opcode::CmpGt, 1, 0), 1);
  EXPECT_EQ(evalBin(Opcode::CmpGe, -1, 0), 0);
}

// -- Memory ----------------------------------------------------------------------

TEST(Interp, LoadStoreRoundTrip) {
  Module M;
  M.MemWords = 8;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  Reg X = B.newReg();
  uint32_t E = B.newBlock("entry");
  B.setInsertPoint(E);
  B.store(K(2), K(1), K(77)); // mem[3] = 77
  B.load(X, K(0), K(3));
  B.ret(R(X));
  ExecResult Res = execute(M);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.ReturnValue, 77);
  EXPECT_EQ(Res.Memory[3], 77);
}

TEST(Interp, InitialMemoryIsLoaded) {
  Module M;
  M.MemWords = 4;
  M.InitialMemory = {10, 20, 30};
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  Reg X = B.newReg();
  uint32_t E = B.newBlock("entry");
  B.setInsertPoint(E);
  B.load(X, K(1), K(0));
  B.ret(R(X));
  ExecResult Res = execute(M);
  ASSERT_TRUE(Res.Ok);
  EXPECT_EQ(Res.ReturnValue, 20);
  EXPECT_EQ(Res.Memory[3], 0); // tail is zero-filled
}

TEST(Interp, OutOfBoundsLoadFails) {
  Module M;
  M.MemWords = 4;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  Reg X = B.newReg();
  uint32_t E = B.newBlock("entry");
  B.setInsertPoint(E);
  B.load(X, K(100), K(0));
  B.ret(R(X));
  ExecResult Res = execute(M);
  EXPECT_FALSE(Res.Ok);
  EXPECT_NE(Res.Error.find("load"), std::string::npos);
}

TEST(Interp, NegativeStoreAddressFails) {
  Module M;
  M.MemWords = 4;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  uint32_t E = B.newBlock("entry");
  B.setInsertPoint(E);
  B.store(K(-1), K(0), K(5));
  B.ret(K(0));
  ExecResult Res = execute(M);
  EXPECT_FALSE(Res.Ok);
}

// -- Control flow -------------------------------------------------------------------

TEST(Interp, LoopCountsAndEmitsBranchEvents) {
  Module M;
  M.MemWords = 1;
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
  M.assignBranchIds();

  ColumnarTrace T;
  ExecResult Res = executeColumnar(M, T);
  ASSERT_TRUE(Res.Ok);
  EXPECT_EQ(Res.ReturnValue, 5);
  ASSERT_EQ(T.size(), 5u);
  for (int I = 0; I < 4; ++I)
    EXPECT_TRUE(T.taken(I));
  EXPECT_FALSE(T.taken(4));
  EXPECT_EQ(Res.BranchEvents, 5u);
}

TEST(Interp, BranchLimitStopsGracefully) {
  Module M;
  M.MemWords = 1;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  Reg C = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Loop = B.newBlock("loop");
  uint32_t Exit = B.newBlock("exit");
  B.setInsertPoint(Entry);
  B.movImm(C, 1);
  B.jmp(Loop);
  B.setInsertPoint(Loop);
  B.br(R(C), Loop, Exit); // infinite
  B.setInsertPoint(Exit);
  B.ret(K(0));
  M.assignBranchIds();

  ExecOptions Opts;
  Opts.MaxBranchEvents = 100;
  ExecResult Res = execute(M, nullptr, Opts);
  EXPECT_TRUE(Res.Ok);
  EXPECT_TRUE(Res.HitBranchLimit);
  EXPECT_EQ(Res.BranchEvents, 100u);
}

TEST(Interp, FuelExhaustionIsAnError) {
  Module M;
  M.MemWords = 1;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  uint32_t Entry = B.newBlock("entry");
  uint32_t Loop = B.newBlock("loop");
  B.setInsertPoint(Entry);
  B.jmp(Loop);
  B.setInsertPoint(Loop);
  B.jmp(Loop); // no branches, so only the fuel stops it
  ExecOptions Opts;
  Opts.MaxInstructions = 1000;
  ExecResult Res = execute(M, nullptr, Opts);
  EXPECT_FALSE(Res.Ok);
  EXPECT_NE(Res.Error.find("budget"), std::string::npos);
}

// -- Calls ------------------------------------------------------------------------

TEST(Interp, CallPassesArgsAndReturns) {
  Module M;
  M.MemWords = 1;
  uint32_t Add = M.addFunction("add2", 2);
  {
    IRBuilder B(M, Add);
    Reg S = B.newReg();
    uint32_t E = B.newBlock("entry");
    B.setInsertPoint(E);
    B.add(S, R(0), R(1));
    B.ret(R(S));
  }
  uint32_t Main = M.addFunction("main", 0);
  M.EntryFunction = Main;
  {
    IRBuilder B(M, Main);
    Reg V = B.newReg();
    uint32_t E = B.newBlock("entry");
    B.setInsertPoint(E);
    B.call(V, Add, {K(30), K(12)});
    B.ret(R(V));
  }
  ExecResult Res = execute(M);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.ReturnValue, 42);
}

TEST(Interp, RecursionComputesFactorial) {
  Module M;
  M.MemWords = 1;
  uint32_t Fact = M.addFunction("fact", 1);
  {
    IRBuilder B(M, Fact);
    Reg C = B.newReg(), Sub = B.newReg(), V = B.newReg();
    uint32_t E = B.newBlock("entry");
    uint32_t Base = B.newBlock("base");
    uint32_t Rec = B.newBlock("rec");
    B.setInsertPoint(E);
    B.cmpLe(C, R(0), K(1));
    B.br(R(C), Base, Rec);
    B.setInsertPoint(Base);
    B.ret(K(1));
    B.setInsertPoint(Rec);
    B.sub(Sub, R(0), K(1));
    B.call(V, Fact, {R(Sub)});
    B.mul(V, R(V), R(0));
    B.ret(R(V));
  }
  uint32_t Main = M.addFunction("main", 0);
  M.EntryFunction = Main;
  {
    IRBuilder B(M, Main);
    Reg V = B.newReg();
    uint32_t E = B.newBlock("entry");
    B.setInsertPoint(E);
    B.call(V, Fact, {K(10)});
    B.ret(R(V));
  }
  M.assignBranchIds();
  ExecResult Res = execute(M);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.ReturnValue, 3628800);
}

TEST(Interp, CallDepthLimit) {
  Module M;
  M.MemWords = 1;
  uint32_t F = M.addFunction("inf", 0);
  {
    IRBuilder B(M, F);
    Reg V = B.newReg();
    uint32_t E = B.newBlock("entry");
    B.setInsertPoint(E);
    B.call(V, F, {});
    B.ret(R(V));
  }
  M.EntryFunction = F;
  ExecOptions Opts;
  Opts.MaxCallDepth = 50;
  ExecResult Res = execute(M, nullptr, Opts);
  EXPECT_FALSE(Res.Ok);
  EXPECT_NE(Res.Error.find("depth"), std::string::npos);
}

TEST(Interp, EntryArgsReachMain) {
  Module M;
  M.MemWords = 1;
  uint32_t Main = M.addFunction("main", 2);
  IRBuilder B(M, Main);
  Reg S = B.newReg();
  uint32_t E = B.newBlock("entry");
  B.setInsertPoint(E);
  B.sub(S, R(0), R(1));
  B.ret(R(S));
  ExecOptions Opts;
  Opts.EntryArgs = {50, 8};
  ExecResult Res = execute(M, nullptr, Opts);
  ASSERT_TRUE(Res.Ok);
  EXPECT_EQ(Res.ReturnValue, 42);
}

TEST(Interp, SinkSeesAnnotations) {
  Module M;
  M.MemWords = 1;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  Reg C = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t A = B.newBlock("a");
  B.setInsertPoint(Entry);
  B.movImm(C, 1);
  B.br(R(C), A, A);
  B.setInsertPoint(A);
  B.ret(K(0));
  M.assignBranchIds();
  M.Functions[Main].Blocks[Entry].terminator().Predicted = Prediction::Taken;

  struct CheckSink : TraceSink {
    void onBranch(const Instruction &Br, bool Taken) override {
      SawPrediction = Br.Predicted == Prediction::Taken;
      SawTaken = Taken;
      SawId = Br.BranchId;
    }
    bool SawPrediction = false, SawTaken = false;
    int32_t SawId = -1;
  } Sink;
  ASSERT_TRUE(execute(M, &Sink).Ok);
  EXPECT_TRUE(Sink.SawPrediction);
  EXPECT_TRUE(Sink.SawTaken);
  EXPECT_EQ(Sink.SawId, 0);
}

// -- Stop paths ------------------------------------------------------------------
//
// Every way a run can stop, pinned exactly: the error text, the instruction
// and branch-event counts at the stop, and the branch-limit flag.

namespace {

void expectStop(const ExecResult &Res, const std::string &Error,
                uint64_t Instructions, uint64_t Events) {
  EXPECT_FALSE(Res.Ok);
  EXPECT_EQ(Res.Error, Error);
  EXPECT_EQ(Res.InstructionsExecuted, Instructions);
  EXPECT_EQ(Res.BranchEvents, Events);
  EXPECT_FALSE(Res.HitBranchLimit);
}

/// main() { c = 1; loop: br c ? loop : exit; exit: ret 0 } — spins on one
/// conditional branch forever.
Module spinningBranch() {
  Module M;
  M.MemWords = 1;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  Reg C = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Loop = B.newBlock("loop");
  uint32_t Exit = B.newBlock("exit");
  B.setInsertPoint(Entry);
  B.movImm(C, 1);
  B.jmp(Loop);
  B.setInsertPoint(Loop);
  B.br(R(C), Loop, Exit);
  B.setInsertPoint(Exit);
  B.ret(K(0));
  M.assignBranchIds();
  return M;
}

/// Records the (function, block, instruction) fetch stream.
struct RecordingListener : InstrListener {
  void onInstruction(uint32_t F, uint32_t B, uint32_t I) override {
    Seen.push_back({F, B, I});
  }
  std::vector<std::array<uint32_t, 3>> Seen;
};

} // namespace

TEST(InterpStop, FuelExhaustionStopsOnTheInstructionPastTheBudget) {
  Module M = spinningBranch();
  ExecOptions Opts;
  Opts.MaxInstructions = 1000;
  RecordingListener L;
  Opts.Listener = &L;
  ExecResult Res = execute(M, nullptr, Opts);
  // mov + jmp, then 998 branches; the 1001st fetch exhausts the budget.
  expectStop(Res, "instruction budget exhausted (1000)", 1001, 998);
  EXPECT_EQ(L.Seen.size(), 1001u);
}

TEST(InterpStop, CallDepthLimitStopsAtTheFailingCall) {
  Module M;
  M.MemWords = 1;
  uint32_t F = M.addFunction("inf", 0);
  {
    IRBuilder B(M, F);
    Reg V = B.newReg(), C = B.newReg();
    uint32_t E = B.newBlock("entry");
    uint32_t Body = B.newBlock("body");
    B.setInsertPoint(E);
    B.movImm(C, 1);
    B.br(R(C), Body, Body);
    B.setInsertPoint(Body);
    B.call(V, F, {});
    B.ret(R(V));
  }
  M.EntryFunction = F;
  M.assignBranchIds();
  ExecOptions Opts;
  Opts.MaxCallDepth = 50;
  ExecResult Res = execute(M, nullptr, Opts);
  // 50 frames each run mov, br and call; the 50th call fails.
  expectStop(Res, "call depth limit exceeded (50)", 150, 50);
}

TEST(InterpStop, LoadOutOfBoundsKeepsEarlierStores) {
  Module M;
  M.MemWords = 4;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  Reg X = B.newReg(), C = B.newReg();
  uint32_t E = B.newBlock("entry");
  uint32_t T = B.newBlock("t");
  B.setInsertPoint(E);
  B.store(K(1), K(1), K(9));
  B.movImm(C, 0);
  B.br(R(C), T, T);
  B.setInsertPoint(T);
  B.movImm(X, 3);
  B.load(X, R(X), K(1));
  B.ret(R(X));
  M.assignBranchIds();
  ExecResult Res = execute(M);
  expectStop(Res, "load from address 4 out of bounds", 5, 1);
  ASSERT_EQ(Res.Memory.size(), 4u);
  EXPECT_EQ(Res.Memory[2], 9);
}

TEST(InterpStop, StoreOutOfBounds) {
  Module M;
  M.MemWords = 4;
  uint32_t Main = M.addFunction("main", 1);
  IRBuilder B(M, Main);
  uint32_t E = B.newBlock("entry");
  B.setInsertPoint(E);
  B.store(K(2), R(0), K(5));
  B.ret(K(0));
  ExecOptions Opts;
  Opts.EntryArgs = {-7};
  expectStop(execute(M, nullptr, Opts), "store to address -5 out of bounds", 1,
             0);
  Opts.EntryArgs = {2};
  expectStop(execute(M, nullptr, Opts), "store to address 4 out of bounds", 1,
             0);
}

TEST(InterpStop, EntryFunctionOutOfRange) {
  Module M = spinningBranch();
  M.EntryFunction = 1;
  ExecResult Res = execute(M);
  expectStop(Res, "entry function index out of range", 0, 0);
  EXPECT_TRUE(Res.Memory.empty());
}

TEST(InterpStop, EmptyBlockFallsOff) {
  // main calls f; f jumps into an empty block.
  Module M;
  M.MemWords = 1;
  uint32_t Main = M.addFunction("main", 0);
  uint32_t F = M.addFunction("f", 0);
  {
    IRBuilder B(M, F);
    uint32_t E = B.newBlock("entry");
    uint32_t Empty = B.newBlock("empty");
    (void)Empty;
    B.setInsertPoint(E);
    B.jmp(Empty);
  }
  {
    IRBuilder B(M, Main);
    Reg V = B.newReg();
    uint32_t E = B.newBlock("entry");
    B.setInsertPoint(E);
    B.call(V, F, {});
    B.ret(R(V));
  }
  RecordingListener L;
  ExecOptions Opts;
  Opts.Listener = &L;
  ExecResult Res = execute(M, nullptr, Opts);
  expectStop(Res, "control fell off a block in function 1", 2, 0);
  // The fall-off is detected before the fetch: no callback for it.
  EXPECT_EQ(L.Seen.size(), 2u);
}

TEST(InterpStop, BlockWithoutTerminatorFallsOff) {
  Module M = spinningBranch();
  // Drop the exit block's `ret`, leave a lone mov, and make the branch
  // leave the loop at once.
  Function &Fn = M.Functions[0];
  Fn.Blocks[0].Insts[0].A = K(0);
  Instruction Mov;
  Mov.Op = Opcode::Mov;
  Mov.Dst = 0;
  Mov.A = K(4);
  Fn.Blocks[2].Insts = {Mov};
  ExecResult Res = execute(M);
  expectStop(Res, "control fell off a block in function 0", 4, 1);

  // A budget that runs out exactly there still reports the fall-off: it
  // is detected before the next fetch is counted.
  ExecOptions Opts;
  Opts.MaxInstructions = 4;
  expectStop(execute(M, nullptr, Opts),
             "control fell off a block in function 0", 4, 1);
  Opts.MaxInstructions = 3;
  expectStop(execute(M, nullptr, Opts), "instruction budget exhausted (3)", 4,
             1);
}

TEST(InterpStop, CallAsLastInstructionFallsOffInTheCaller) {
  Module M;
  M.MemWords = 1;
  uint32_t Main = M.addFunction("main", 0);
  uint32_t F = M.addFunction("f", 0);
  {
    IRBuilder B(M, F);
    uint32_t E = B.newBlock("entry");
    B.setInsertPoint(E);
    B.ret(K(3));
  }
  {
    IRBuilder B(M, Main);
    Reg V = B.newReg();
    uint32_t E = B.newBlock("entry");
    B.setInsertPoint(E);
    B.call(V, F, {});
  }
  expectStop(execute(M), "control fell off a block in function 0", 2, 0);
}

TEST(InterpStop, BranchTargetOutOfRangeFallsOff) {
  Module M = spinningBranch();
  Instruction &Br = M.Functions[0].Blocks[1].Insts[0];
  Br.TrueTarget = 7;
  expectStop(execute(M), "control fell off a block in function 0", 3, 1);

  // A jump past the last block falls off the same way.
  Module J = spinningBranch();
  J.Functions[0].Blocks[0].Insts[1].TrueTarget = 3;
  expectStop(execute(J), "control fell off a block in function 0", 2, 0);

  // When that branch also reaches the event cap, the cap wins: the run
  // stops cleanly before control would fall off.
  ExecOptions Opts;
  Opts.MaxBranchEvents = 1;
  ExecResult Capped = execute(M, nullptr, Opts);
  EXPECT_TRUE(Capped.Ok) << Capped.Error;
  EXPECT_TRUE(Capped.HitBranchLimit);
  EXPECT_EQ(Capped.Error, "");
  EXPECT_EQ(Capped.InstructionsExecuted, 3u);
  EXPECT_EQ(Capped.BranchEvents, 1u);
}

TEST(InterpStop, BranchLimitCountsExactly) {
  Module M = spinningBranch();
  ExecOptions Opts;
  Opts.MaxBranchEvents = 100;
  ColumnarTrace T;
  ExecResult Res = executeColumnar(M, T, /*UseOrigIds=*/false, Opts);
  EXPECT_TRUE(Res.Ok);
  EXPECT_EQ(Res.Error, "");
  EXPECT_TRUE(Res.HitBranchLimit);
  EXPECT_EQ(Res.InstructionsExecuted, 102u);
  EXPECT_EQ(Res.BranchEvents, 100u);
  EXPECT_EQ(T.size(), 100u);
}

TEST(InterpStop, ListenerSeesCallReturnAndLoop) {
  // inc(x) { return x + 1; }
  // main() { r0 = 0; do r0 = inc(r0); while (r0 < 2); return r0; }
  Module M;
  M.MemWords = 1;
  uint32_t Inc = M.addFunction("inc", 1);
  {
    IRBuilder B(M, Inc);
    Reg S = B.newReg();
    uint32_t E = B.newBlock("entry");
    B.setInsertPoint(E);
    B.add(S, R(0), K(1));
    B.ret(R(S));
  }
  uint32_t Main = M.addFunction("main", 0);
  M.EntryFunction = Main;
  {
    IRBuilder B(M, Main);
    Reg X = B.newReg(), C = B.newReg();
    uint32_t E = B.newBlock("entry");
    uint32_t Loop = B.newBlock("loop");
    uint32_t Exit = B.newBlock("exit");
    B.setInsertPoint(E);
    B.movImm(X, 0);
    B.jmp(Loop);
    B.setInsertPoint(Loop);
    B.call(X, Inc, {R(X)});
    B.cmpLt(C, R(X), K(2));
    B.br(R(C), Loop, Exit);
    B.setInsertPoint(Exit);
    B.ret(R(X));
  }
  M.assignBranchIds();
  RecordingListener L;
  ExecOptions Opts;
  Opts.Listener = &L;
  ColumnarTrace T;
  ExecResult Res = executeColumnar(M, T, /*UseOrigIds=*/false, Opts);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.ReturnValue, 2);
  EXPECT_EQ(Res.InstructionsExecuted, 13u);
  EXPECT_EQ(Res.BranchEvents, 2u);
  const std::vector<std::array<uint32_t, 3>> Want = {
      {1, 0, 0}, {1, 0, 1},                         // mov, jmp
      {1, 1, 0}, {0, 0, 0}, {0, 0, 1}, {1, 1, 1}, {1, 1, 2}, // 1st trip
      {1, 1, 0}, {0, 0, 0}, {0, 0, 1}, {1, 1, 1}, {1, 1, 2}, // 2nd trip
      {1, 2, 0},                                    // ret
  };
  EXPECT_EQ(L.Seen, Want);
  ASSERT_EQ(T.size(), 2u);
  EXPECT_TRUE(T.taken(0));
  EXPECT_FALSE(T.taken(1));
}

TEST(InterpStop, ExactBudgetStopsOnEveryOpcodeFamily) {
  // main: mov, mov, add (RR), sub (RI), sub (IR), store, load, call f,
  // br, jmp, ret; f: ret. Fetch k + 1 is the first over a budget of k, so
  // budgets 0..11 stop the run on each family in turn.
  Module M;
  M.MemWords = 16;
  uint32_t Main = M.addFunction("main", 0);
  uint32_t F = M.addFunction("f", 1);
  {
    IRBuilder B(M, F);
    B.setInsertPoint(B.newBlock("entry"));
    B.ret(R(0));
  }
  IRBuilder B(M, Main);
  Reg A = B.newReg(), Bv = B.newReg(), C = B.newReg(), D = B.newReg(),
      E = B.newReg(), V = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t T = B.newBlock("t");
  uint32_t X = B.newBlock("x");
  B.setInsertPoint(Entry);
  B.movImm(A, 5);
  B.movReg(Bv, A);
  B.add(C, R(A), R(Bv));
  B.sub(C, R(C), K(1));
  B.sub(D, K(10), R(C));
  B.store(K(0), R(A), R(D));
  B.load(E, K(0), R(A));
  B.call(V, F, {R(E)});
  B.br(R(V), T, T);
  B.setInsertPoint(T);
  B.jmp(X);
  B.setInsertPoint(X);
  B.ret(R(V));
  M.assignBranchIds();

  const char *Family[] = {"mov imm", "mov reg", "binary RR", "binary RI",
                          "binary IR", "store", "load", "call",
                          "ret (callee)", "br", "jmp", "ret"};
  // Every entry point, with and without a listener, stops the same way.
  for (bool Listen : {false, true})
    for (uint64_t Budget = 0; Budget < std::size(Family); ++Budget) {
      SCOPED_TRACE(std::string(Family[Budget]) +
                   (Listen ? ", listener" : ""));
      RecordingListener L;
      ExecOptions Opts;
      Opts.MaxInstructions = Budget;
      Opts.Listener = Listen ? &L : nullptr;
      // Branch events happen only once the br (fetch 10) has run.
      const uint64_t Events = Budget >= 10 ? 1 : 0;
      const uint64_t Fetches = Budget + 1;
      const std::string Error =
          "instruction budget exhausted (" + std::to_string(Budget) + ")";
      expectStop(execute(M, nullptr, Opts), Error, Fetches, Events);
      test::PerEventSink Sink;
      expectStop(execute(M, &Sink, Opts), Error, Fetches, Events);
      EXPECT_EQ(Sink.Events.size(), Events);
      ColumnarTrace CT;
      expectStop(executeColumnar(M, CT, false, Opts), Error, Fetches,
                 Events);
      EXPECT_EQ(CT.size(), Events);
      std::vector<BranchScore> Scores;
      expectStop(executeScored(M, Scores, Opts), Error, Fetches, Events);
      ASSERT_EQ(Scores.size(), 1u);
      EXPECT_EQ(Scores[0].Executions, Events);
      test::PerEventSink Extra;
      expectStop(executeScored(M, Scores, Opts, &Extra), Error, Fetches,
                 Events);
      EXPECT_EQ(Extra.Events.size(), Events);
      // Five runs, each listened to up to and including the stopping fetch.
      EXPECT_EQ(L.Seen.size(), Listen ? 5 * Fetches : 0);
    }

  // The whole run fits a budget of 12: d = 10 - (5 + 5 - 1) = 1 is stored
  // at 5, loaded back and returned through f.
  ExecOptions Opts;
  Opts.MaxInstructions = 12;
  ExecResult Res = execute(M, nullptr, Opts);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.InstructionsExecuted, 12u);
  EXPECT_EQ(Res.BranchEvents, 1u);
  EXPECT_EQ(Res.ReturnValue, 1);
  EXPECT_EQ(Res.Memory[5], 1);
}

// -- Differential fuzz --------------------------------------------------------

namespace {

/// Host-side reference for the IR's arithmetic semantics.
int64_t refOp(Opcode Op, int64_t A, int64_t B) {
  uint64_t UA = static_cast<uint64_t>(A), UB = static_cast<uint64_t>(B);
  switch (Op) {
  case Opcode::Add:
    return static_cast<int64_t>(UA + UB);
  case Opcode::Sub:
    return static_cast<int64_t>(UA - UB);
  case Opcode::Mul:
    return static_cast<int64_t>(UA * UB);
  case Opcode::Div:
    if (B == 0)
      return 0;
    if (A == std::numeric_limits<int64_t>::min() && B == -1)
      return A;
    return A / B;
  case Opcode::Rem:
    if (B == 0)
      return 0;
    if (A == std::numeric_limits<int64_t>::min() && B == -1)
      return 0;
    return A % B;
  case Opcode::And:
    return A & B;
  case Opcode::Or:
    return A | B;
  case Opcode::Xor:
    return A ^ B;
  case Opcode::Shl:
    return static_cast<int64_t>(UA << (UB & 63));
  case Opcode::Shr:
    return A >> (UB & 63);
  case Opcode::CmpEq:
    return A == B;
  case Opcode::CmpNe:
    return A != B;
  case Opcode::CmpLt:
    return A < B;
  case Opcode::CmpLe:
    return A <= B;
  case Opcode::CmpGt:
    return A > B;
  case Opcode::CmpGe:
    return A >= B;
  default:
    return 0;
  }
}

} // namespace

class InterpFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InterpFuzz, RandomStraightLineProgramsMatchHostSemantics) {
  // Generate a straight-line program over a small register file, evaluate
  // it both on the host and in the interpreter, compare every register.
  Rng G(GetParam() * 77 + 5);
  static const Opcode Ops[] = {
      Opcode::Add,   Opcode::Sub,   Opcode::Mul,   Opcode::Div,
      Opcode::Rem,   Opcode::And,   Opcode::Or,    Opcode::Xor,
      Opcode::Shl,   Opcode::Shr,   Opcode::CmpEq, Opcode::CmpNe,
      Opcode::CmpLt, Opcode::CmpLe, Opcode::CmpGt, Opcode::CmpGe,
  };

  constexpr int NumRegs = 6;
  int64_t Ref[NumRegs] = {0};

  Module M;
  M.MemWords = NumRegs + 1;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  for (int I = 0; I < NumRegs; ++I)
    (void)B.newReg();
  uint32_t Entry = B.newBlock("entry");
  B.setInsertPoint(Entry);

  // Seed the registers with interesting constants.
  for (int I = 0; I < NumRegs; ++I) {
    int64_t V;
    switch (G.below(5)) {
    case 0:
      V = static_cast<int64_t>(G.next());
      break;
    case 1:
      V = std::numeric_limits<int64_t>::min();
      break;
    case 2:
      V = std::numeric_limits<int64_t>::max();
      break;
    case 3:
      V = -1;
      break;
    default:
      V = static_cast<int64_t>(G.below(100)) - 50;
      break;
    }
    B.movImm(static_cast<Reg>(I), V);
    Ref[I] = V;
  }

  for (int Step = 0; Step < 200; ++Step) {
    Opcode Op = Ops[G.below(std::size(Ops))];
    Reg Dst = static_cast<Reg>(G.below(NumRegs));
    Reg A = static_cast<Reg>(G.below(NumRegs));
    Reg Bx = static_cast<Reg>(G.below(NumRegs));
    Instruction I;
    I.Op = Op;
    I.Dst = Dst;
    I.A = Operand::reg(A);
    I.B = Operand::reg(Bx);
    M.Functions[Main].Blocks[Entry].Insts.push_back(I);
    Ref[Dst] = refOp(Op, Ref[A], Ref[Bx]);
  }

  // Store every register to memory and return.
  for (int I = 0; I < NumRegs; ++I)
    B.store(Operand::imm(I), Operand::imm(0),
            Operand::reg(static_cast<Reg>(I)));
  B.ret(Operand::reg(0));

  ExecResult R = execute(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  for (int I = 0; I < NumRegs; ++I)
    EXPECT_EQ(R.Memory[static_cast<size_t>(I)], Ref[I]) << "reg " << I;
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpFuzz,
                         ::testing::Range<uint64_t>(0, 16));
