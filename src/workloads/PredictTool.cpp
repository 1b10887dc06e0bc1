//===- workloads/PredictTool.cpp - Branch-trace analysis tool -------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Models the paper's "predict" benchmark — the authors profiled their own
// profiling/trace tool. The program reads a synthetic branch trace and
// maintains per-branch 2-bit counters and short history registers,
// scoring its own predictions.
//
// Branch behaviour: a data-driven taken/not-taken split (the input trace
// has per-branch biases and alternation), saturation tests that rarely
// fire, and a hit/miss accounting branch correlated with the input bias.
//
// Memory map:
//   [0]          event count
//   [1..2N]      events as (branch, direction) pairs
//   [CNT..+64]   2-bit counters
//   [HIST..+64]  4-bit history registers
//   [OUT..+4]    hit/miss totals
//
//===----------------------------------------------------------------------===//

#include "workloads/Workload.h"

#include "ir/IRBuilder.h"
#include "support/Rng.h"

using namespace bpcr;

Module bpcr::buildPredictTool(uint64_t Seed) {
  Module M;
  M.Name = "predict";

  const int64_t N = 76000;
  const int64_t Events = 1;
  const int64_t Cnt = Events + 2 * N;
  const int64_t Hist = Cnt + 64;
  const int64_t Out = Hist + 64;
  M.MemWords = static_cast<uint64_t>(Out + 4);

  Rng Gen(Seed * 0xbf58476d1ce4e5b9ULL + 7);
  std::vector<int64_t> Mem(static_cast<size_t>(Out + 4), 0);
  Mem[0] = N;
  {
    // Each simulated branch gets a bias and a behaviour class: strongly
    // biased, alternating, or noisy.
    int64_t Bias[64];
    int Class[64];
    int Phase[64] = {0};
    for (int BI = 0; BI < 64; ++BI) {
      Class[BI] = static_cast<int>(Gen.below(10));
      Bias[BI] = 50 + static_cast<int64_t>(Gen.below(50));
    }
    for (int64_t I = 0; I < N; ++I) {
      int BI = static_cast<int>(Gen.below(64));
      int64_t Dir;
      if (Class[BI] < 5) {
        Dir = Gen.below(100) < static_cast<uint64_t>(Bias[BI]) ? 1 : 0;
      } else if (Class[BI] < 8) {
        Dir = Phase[BI] & 1; // alternating
        ++Phase[BI];
      } else {
        Dir = static_cast<int64_t>(Gen.below(2)); // noisy
      }
      Mem[static_cast<size_t>(Events + 2 * I)] = BI;
      Mem[static_cast<size_t>(Events + 2 * I + 1)] = Dir;
    }
  }
  M.InitialMemory = std::move(Mem);

  auto R = [](Reg X) { return Operand::reg(X); };
  auto K = [](int64_t V) { return Operand::imm(V); };

  // -- histogram(): final pass over the 64 counters -----------------------------
  // Constant-trip loop with a biased "counter saturated high" test: the
  // report generation of a real analysis tool.
  uint32_t Histogram = M.addFunction("histogram", 0);
  {
    IRBuilder B(M, Histogram);
    Reg I = B.newReg(), V = B.newReg(), HiCnt = B.newReg();
    Reg Cond = B.newReg();

    uint32_t Entry = B.newBlock("entry");
    uint32_t Loop = B.newBlock("loop");
    uint32_t Body = B.newBlock("body");
    uint32_t High = B.newBlock("high");
    uint32_t Low = B.newBlock("low");
    uint32_t Next = B.newBlock("next");
    uint32_t Done = B.newBlock("done");

    B.setInsertPoint(Entry);
    B.movImm(I, 0);
    B.movImm(HiCnt, 0);
    B.jmp(Loop);

    B.setInsertPoint(Loop);
    B.cmpGe(Cond, R(I), K(64)); // constant trip count
    B.br(R(Cond), Done, Body);

    B.setInsertPoint(Body);
    B.load(V, K(Cnt), R(I));
    B.cmpGe(Cond, R(V), K(3));
    B.br(R(Cond), High, Low);

    B.setInsertPoint(High);
    B.add(HiCnt, R(HiCnt), K(1));
    B.jmp(Next);

    B.setInsertPoint(Low);
    B.jmp(Next);

    B.setInsertPoint(Next);
    B.add(I, R(I), K(1));
    B.jmp(Loop);

    B.setInsertPoint(Done);
    B.store(K(Out), K(2), R(HiCnt));
    B.ret(R(HiCnt));
  }

  uint32_t Main = M.addFunction("main", 0);
  M.EntryFunction = Main;
  IRBuilder B(M, Main);

  Reg I = B.newReg();
  Reg Br = B.newReg();
  Reg Dir = B.newReg();
  Reg C = B.newReg();
  Reg H = B.newReg();
  Reg Pred = B.newReg();
  Reg Cond = B.newReg();
  Reg Hits = B.newReg();
  Reg Miss = B.newReg();

  uint32_t Entry = B.newBlock("entry");
  uint32_t Loop = B.newBlock("loop");
  uint32_t Body = B.newBlock("body");
  uint32_t Taken = B.newBlock("ev_taken");
  uint32_t SatHi = B.newBlock("sat_hi");
  uint32_t IncOk = B.newBlock("inc_ok");
  uint32_t NotTaken = B.newBlock("ev_nottaken");
  uint32_t SatLo = B.newBlock("sat_lo");
  uint32_t DecOk = B.newBlock("dec_ok");
  uint32_t Score = B.newBlock("score");
  uint32_t BufA = B.newBlock("buf_a");
  uint32_t BufB = B.newBlock("buf_b");
  uint32_t Score2 = B.newBlock("score2");
  uint32_t Hit = B.newBlock("hit");
  uint32_t Wrong = B.newBlock("wrong");
  uint32_t Next = B.newBlock("next");
  uint32_t Flush = B.newBlock("flush");
  uint32_t NoFlush = B.newBlock("no_flush");
  uint32_t Done = B.newBlock("done");

  B.setInsertPoint(Entry);
  B.movImm(I, 0);
  B.movImm(Hits, 0);
  B.movImm(Miss, 0);
  B.jmp(Loop);

  B.setInsertPoint(Loop);
  B.cmpGe(Cond, R(I), K(N));
  B.br(R(Cond), Done, Body);

  B.setInsertPoint(Body);
  Reg Off = B.newReg();
  B.mul(Off, R(I), K(2));
  B.load(Br, K(Events), R(Off));
  B.add(Off, R(Off), K(1));
  B.load(Dir, K(Events), R(Off));
  B.load(C, K(Cnt), R(Br));
  // Prediction: counter in upper half (2-bit counter, values 0..3).
  B.cmpGe(Pred, R(C), K(2));
  B.cmpNe(Cond, R(Dir), K(0));
  B.br(R(Cond), Taken, NotTaken);

  B.setInsertPoint(Taken);
  B.cmpGe(Cond, R(C), K(3));
  B.br(R(Cond), SatHi, IncOk);

  B.setInsertPoint(IncOk);
  B.add(C, R(C), K(1));
  B.store(K(Cnt), R(Br), R(C));
  B.jmp(Score);

  B.setInsertPoint(SatHi);
  B.jmp(Score);

  B.setInsertPoint(NotTaken);
  B.cmpLe(Cond, R(C), K(0));
  B.br(R(Cond), SatLo, DecOk);

  B.setInsertPoint(DecOk);
  B.sub(C, R(C), K(1));
  B.store(K(Cnt), R(Br), R(C));
  B.jmp(Score);

  B.setInsertPoint(SatLo);
  B.jmp(Score);

  B.setInsertPoint(Score);
  // Double-buffered event storage: the active buffer flips every event — a
  // perfectly alternating branch (profile-hard, machine-trivial).
  B.band(Cond, R(I), K(1));
  B.br(R(Cond), BufA, BufB);

  B.setInsertPoint(BufA);
  B.store(K(Out), K(3), R(Dir));
  B.jmp(Score2);

  B.setInsertPoint(BufB);
  B.store(K(Out), K(2), R(Dir));
  B.jmp(Score2);

  B.setInsertPoint(Score2);
  // History register update (4 bits).
  B.load(H, K(Hist), R(Br));
  B.mul(H, R(H), K(2));
  B.add(H, R(H), R(Dir));
  B.band(H, R(H), K(15));
  B.store(K(Hist), R(Br), R(H));
  B.cmpEq(Cond, R(Pred), R(Dir));
  B.br(R(Cond), Hit, Wrong);

  B.setInsertPoint(Hit);
  B.add(Hits, R(Hits), K(1));
  B.jmp(Next);

  B.setInsertPoint(Wrong);
  B.add(Miss, R(Miss), K(1));
  B.jmp(Next);

  B.setInsertPoint(Next);
  // Buffered trace writing: flush every 4096 events — a rare, strongly
  // biased branch (profile alone predicts it nearly perfectly).
  B.band(Cond, R(I), K(4095));
  B.cmpEq(Cond, R(Cond), K(4095));
  B.br(R(Cond), Flush, NoFlush);

  B.setInsertPoint(Flush);
  B.store(K(Out), K(3), R(I));
  B.jmp(NoFlush);

  B.setInsertPoint(NoFlush);
  B.add(I, R(I), K(1));
  B.jmp(Loop);

  B.setInsertPoint(Done);
  B.store(K(Out), K(0), R(Hits));
  B.store(K(Out), K(1), R(Miss));
  Reg HiCnt = B.newReg();
  B.call(HiCnt, Histogram, {});
  B.add(HiCnt, R(HiCnt), R(Hits));
  B.ret(R(HiCnt));

  return M;
}
