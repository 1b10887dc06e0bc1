//===- interp/Interpreter.cpp ---------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "obs/Metrics.h"
#include "obs/TraceSpans.h"

#include <cstdio>
#include <limits>

using namespace bpcr;

TraceSink::~TraceSink() = default;
InstrListener::~InstrListener() = default;

namespace {

/// One activation record. The interpreter keeps an explicit stack so deep
/// recursion in workloads (the prolog-style backtracking search) cannot
/// overflow the host stack.
struct Frame {
  uint32_t FuncIdx;
  uint32_t Block = 0;
  uint32_t Inst = 0;
  Reg RetDst = 0;
  std::vector<int64_t> Regs;
};

int64_t shiftLeft(int64_t A, int64_t B) {
  // Shift in the unsigned domain to avoid signed-overflow UB; the shift
  // amount wraps at 64 like on common hardware.
  return static_cast<int64_t>(static_cast<uint64_t>(A)
                              << (static_cast<uint64_t>(B) & 63));
}

int64_t shiftRight(int64_t A, int64_t B) {
  // Arithmetic shift; C++20 defines >> on signed as arithmetic.
  return A >> (static_cast<uint64_t>(B) & 63);
}

} // namespace

namespace {

/// Emitter policies for the templated execution loop. The interpreter is
/// instantiated once per policy, so the no-sink run pays nothing per
/// branch and the sink run pays one buffered store per event plus one
/// virtual onBatch per flush — never a virtual call per event.
struct NullEmitter {
  static constexpr bool HasSink = false;
  void emit(const Instruction &, bool) {}
  void flush() {}
};

struct BatchEmitter {
  static constexpr bool HasSink = true;
  static constexpr size_t BatchSize = 256;

  explicit BatchEmitter(TraceSink *Sink) : Sink(Sink) {}

  void emit(const Instruction &Br, bool Taken) {
    Buf[N].Br = &Br;
    Buf[N].Taken = Taken;
    if (++N == BatchSize)
      flush();
  }

  void flush() {
    if (N) {
      Sink->onBatch(Buf, N);
      N = 0;
    }
  }

  TraceSink *Sink;
  BranchBatchEvent Buf[BatchSize];
  size_t N = 0;
};

template <class Emitter>
ExecResult executeImpl(const Module &M, Emitter &Emit,
                       const ExecOptions &Opts) {
  ExecResult R;

  // Observability is sampled at run granularity only: one span (two clock
  // reads) per execution, nothing per instruction or event, so the
  // disabled path costs the span's two predictable branches. The span
  // feeds the `interp.execute` timer.
  Span ExecSpan("interp.execute", "interp");
  Registry &Obs = Registry::global();
  const bool ObsOn = Obs.enabled();

  if (M.EntryFunction >= M.Functions.size()) {
    R.Error = "entry function index out of range";
    return R;
  }

  std::vector<int64_t> Mem(M.MemWords, 0);
  for (size_t I = 0; I < M.InitialMemory.size() && I < Mem.size(); ++I)
    Mem[I] = M.InitialMemory[I];

  std::vector<Frame> Stack;
  {
    Frame F;
    F.FuncIdx = M.EntryFunction;
    F.Regs.assign(M.Functions[M.EntryFunction].NumRegs, 0);
    for (size_t I = 0;
         I < Opts.EntryArgs.size() && I < F.Regs.size(); ++I)
      F.Regs[I] = Opts.EntryArgs[I];
    Stack.push_back(std::move(F));
  }

  auto Fail = [&R](const char *Fmt, long long V = 0) {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), Fmt, V);
    R.Error = Buf;
    return false;
  };

  int64_t RetVal = 0;
  bool Running = true;
  bool Errored = false;

  while (Running) {
    Frame &F = Stack.back();
    const Function &Fn = M.Functions[F.FuncIdx];

    if (F.Block >= Fn.Blocks.size() ||
        F.Inst >= Fn.Blocks[F.Block].Insts.size()) {
      Errored = !Fail("control fell off a block in function %lld",
                      static_cast<long long>(F.FuncIdx));
      break;
    }

    const Instruction &I = Fn.Blocks[F.Block].Insts[F.Inst];

    if (Opts.Listener)
      Opts.Listener->onInstruction(F.FuncIdx, F.Block, F.Inst);

    if (++R.InstructionsExecuted > Opts.MaxInstructions) {
      Errored = !Fail("instruction budget exhausted (%lld)",
                      static_cast<long long>(Opts.MaxInstructions));
      break;
    }

    auto Eval = [&F](const Operand &O) -> int64_t {
      if (O.isImm())
        return O.Val;
      if (O.isReg())
        return F.Regs[O.asReg()];
      return 0;
    };

    switch (I.Op) {
    case Opcode::Mov:
      F.Regs[I.Dst] = Eval(I.A);
      ++F.Inst;
      break;

    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Rem:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr: {
      int64_t A = Eval(I.A), B = Eval(I.B), V = 0;
      uint64_t UA = static_cast<uint64_t>(A), UB = static_cast<uint64_t>(B);
      switch (I.Op) {
      case Opcode::Add:
        V = static_cast<int64_t>(UA + UB);
        break;
      case Opcode::Sub:
        V = static_cast<int64_t>(UA - UB);
        break;
      case Opcode::Mul:
        V = static_cast<int64_t>(UA * UB);
        break;
      case Opcode::Div:
        if (B == 0)
          V = 0;
        else if (A == std::numeric_limits<int64_t>::min() && B == -1)
          V = A;
        else
          V = A / B;
        break;
      case Opcode::Rem:
        if (B == 0)
          V = 0;
        else if (A == std::numeric_limits<int64_t>::min() && B == -1)
          V = 0;
        else
          V = A % B;
        break;
      case Opcode::And:
        V = A & B;
        break;
      case Opcode::Or:
        V = A | B;
        break;
      case Opcode::Xor:
        V = A ^ B;
        break;
      case Opcode::Shl:
        V = shiftLeft(A, B);
        break;
      case Opcode::Shr:
        V = shiftRight(A, B);
        break;
      default:
        break;
      }
      F.Regs[I.Dst] = V;
      ++F.Inst;
      break;
    }

    case Opcode::CmpEq:
    case Opcode::CmpNe:
    case Opcode::CmpLt:
    case Opcode::CmpLe:
    case Opcode::CmpGt:
    case Opcode::CmpGe: {
      int64_t A = Eval(I.A), B = Eval(I.B);
      bool V = false;
      switch (I.Op) {
      case Opcode::CmpEq:
        V = A == B;
        break;
      case Opcode::CmpNe:
        V = A != B;
        break;
      case Opcode::CmpLt:
        V = A < B;
        break;
      case Opcode::CmpLe:
        V = A <= B;
        break;
      case Opcode::CmpGt:
        V = A > B;
        break;
      case Opcode::CmpGe:
        V = A >= B;
        break;
      default:
        break;
      }
      F.Regs[I.Dst] = V ? 1 : 0;
      ++F.Inst;
      break;
    }

    case Opcode::Load: {
      int64_t Addr = Eval(I.A) + Eval(I.B);
      if (Addr < 0 || static_cast<uint64_t>(Addr) >= Mem.size()) {
        Errored = !Fail("load from address %lld out of bounds",
                        static_cast<long long>(Addr));
        Running = false;
        break;
      }
      F.Regs[I.Dst] = Mem[static_cast<size_t>(Addr)];
      ++F.Inst;
      break;
    }

    case Opcode::Store: {
      int64_t Addr = Eval(I.A) + Eval(I.B);
      if (Addr < 0 || static_cast<uint64_t>(Addr) >= Mem.size()) {
        Errored = !Fail("store to address %lld out of bounds",
                        static_cast<long long>(Addr));
        Running = false;
        break;
      }
      Mem[static_cast<size_t>(Addr)] = Eval(I.C);
      ++F.Inst;
      break;
    }

    case Opcode::Call: {
      if (Stack.size() >= Opts.MaxCallDepth) {
        Errored = !Fail("call depth limit exceeded (%lld)",
                        static_cast<long long>(Opts.MaxCallDepth));
        Running = false;
        break;
      }
      // Evaluate arguments in the caller frame before pushing.
      std::vector<int64_t> ArgVals;
      ArgVals.reserve(I.Args.size());
      for (const Operand &Arg : I.Args)
        ArgVals.push_back(Eval(Arg));

      Frame NF;
      NF.FuncIdx = I.Callee;
      NF.RetDst = I.Dst;
      NF.Regs.assign(M.Functions[I.Callee].NumRegs, 0);
      for (size_t AI = 0; AI < ArgVals.size(); ++AI)
        NF.Regs[AI] = ArgVals[AI];
      // Return resumes after the call.
      ++F.Inst;
      Stack.push_back(std::move(NF));
      break;
    }

    case Opcode::Br: {
      bool Taken = Eval(I.A) != 0;
      Emit.emit(I, Taken);
      ++R.BranchEvents;
      F.Block = Taken ? I.TrueTarget : I.FalseTarget;
      F.Inst = 0;
      if (R.BranchEvents >= Opts.MaxBranchEvents) {
        R.HitBranchLimit = true;
        Running = false;
      }
      break;
    }

    case Opcode::Jmp:
      F.Block = I.TrueTarget;
      F.Inst = 0;
      break;

    case Opcode::Ret: {
      int64_t V = Eval(I.A);
      Stack.pop_back();
      if (Stack.empty()) {
        RetVal = V;
        Running = false;
        break;
      }
      // The caller's Inst was advanced at call time; the call instruction
      // sits just before it.
      Frame &Caller = Stack.back();
      const Function &CallerFn = M.Functions[Caller.FuncIdx];
      const Instruction &CallI =
          CallerFn.Blocks[Caller.Block].Insts[Caller.Inst - 1];
      Caller.Regs[CallI.Dst] = V;
      break;
    }
    }
  }

  // Deliver any buffered events before the run result is observable —
  // every exit path (return, error, branch limit) funnels through here.
  Emit.flush();

  R.Ok = !Errored;
  R.ReturnValue = RetVal;
  R.Memory = std::move(Mem);

  ExecSpan.arg("instructions", R.InstructionsExecuted);
  ExecSpan.arg("branch_events", R.BranchEvents);
  if (Errored)
    ExecSpan.arg("error", R.Error);
  const double Ns = static_cast<double>(ExecSpan.end());

  if (ObsOn) {
    Obs.counter("interp.runs").inc();
    Obs.counter("interp.instructions").add(R.InstructionsExecuted);
    Obs.counter("interp.branch_events").add(R.BranchEvents);
    if (!Emitter::HasSink)
      // Events that were produced but had no sink to receive them.
      Obs.counter("interp.events_dropped").add(R.BranchEvents);
    if (R.HitBranchLimit)
      Obs.counter("interp.truncated_runs").inc();
    if (Errored)
      Obs.counter("interp.errors").inc();
    if (Ns > 0.0) {
      Obs.gauge("interp.events_per_sec")
          .set(static_cast<double>(R.BranchEvents) * 1e9 / Ns);
      Obs.gauge("interp.instructions_per_sec")
          .set(static_cast<double>(R.InstructionsExecuted) * 1e9 / Ns);
    }
  }
  return R;
}

} // namespace

ExecResult bpcr::execute(const Module &M, TraceSink *Sink,
                         const ExecOptions &Opts) {
  if (!Sink) {
    NullEmitter E;
    return executeImpl(M, E, Opts);
  }
  BatchEmitter E(Sink);
  return executeImpl(M, E, Opts);
}
