//===- interp/Interpreter.cpp ---------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "obs/Metrics.h"
#include "obs/TraceSpans.h"
#include "trace/TraceStream.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <iterator>
#include <limits>

#ifndef __GNUC__
#error "the interpreter's threaded dispatch needs labels-as-values (GCC or Clang)"
#endif

using namespace bpcr;

TraceSink::~TraceSink() = default;
InstrListener::~InstrListener() = default;

namespace {

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

/// Two's-complement wrapping add (memory addresses).
int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}

/// The IR's arithmetic and comparison semantics, one instantiation per
/// opcode so each lowered form compiles to straight-line code.
template <Opcode Op> int64_t apply(int64_t A, int64_t B) {
  uint64_t UA = static_cast<uint64_t>(A), UB = static_cast<uint64_t>(B);
  if constexpr (Op == Opcode::Add)
    return static_cast<int64_t>(UA + UB);
  else if constexpr (Op == Opcode::Sub)
    return static_cast<int64_t>(UA - UB);
  else if constexpr (Op == Opcode::Mul)
    return static_cast<int64_t>(UA * UB);
  else if constexpr (Op == Opcode::Div || Op == Opcode::Rem) {
    // Division by zero yields 0; INT64_MIN / -1 wraps (remainder 0).
    if (B == 0)
      return 0;
    if (A == std::numeric_limits<int64_t>::min() && B == -1)
      return Op == Opcode::Div ? A : 0;
    return Op == Opcode::Div ? A / B : A % B;
  }
  else if constexpr (Op == Opcode::And)
    return A & B;
  else if constexpr (Op == Opcode::Or)
    return A | B;
  else if constexpr (Op == Opcode::Xor)
    return A ^ B;
  else if constexpr (Op == Opcode::Shl)
    return shiftLeft(A, B);
  else if constexpr (Op == Opcode::Shr)
    return shiftRight(A, B);
  else if constexpr (Op == Opcode::CmpEq)
    return A == B;
  else if constexpr (Op == Opcode::CmpNe)
    return A != B;
  else if constexpr (Op == Opcode::CmpLt)
    return A < B;
  else if constexpr (Op == Opcode::CmpLe)
    return A <= B;
  else if constexpr (Op == Opcode::CmpGt)
    return A > B;
  else
    return A >= B;
}

// The two-operand opcodes, in Opcode order (Add .. CmpGe).
#define BPCR_BINARY_OPS(X)                                                     \
  X(Add) X(Sub) X(Mul) X(Div) X(Rem) X(And) X(Or) X(Xor) X(Shl) X(Shr)         \
  X(CmpEq) X(CmpNe) X(CmpLt) X(CmpLe) X(CmpGt) X(CmpGe)

/// Lowered opcodes: an IR opcode with its operand kinds folded in. `R` is a
/// register operand and `I` an immediate (a missing operand reads as 0);
/// for Load/Store the letters name the address operands, and a trailing
/// `K` marks an immediate stored value.
enum class XOp : uint8_t {
#define BPCR_X(Name) Name##RR, Name##RI, Name##IR,
  BPCR_BINARY_OPS(BPCR_X)
#undef BPCR_X
  MovR,
  MovI,
  LoadRR,
  LoadRI,
  LoadI,
  StoreRR,
  StoreRI,
  StoreI,
  StoreRRK,
  StoreRIK,
  StoreIK,
  Call,
  BrR,
  BrI,
  Jmp,
  RetR,
  RetI,
  /// Control reached the end of a block, an out-of-range target or an
  /// unknown callee: the run stops before this fetch.
  FellOff,
};

constexpr size_t NumXOps = static_cast<size_t>(XOp::FellOff) + 1;

static_assert(static_cast<unsigned>(Opcode::CmpGe) -
                      static_cast<unsigned>(Opcode::Add) ==
                  15 &&
              static_cast<unsigned>(XOp::MovR) == 48,
              "binary XOps are laid out as (Opcode - Add) * 3 + form");

/// One pre-decoded instruction. Field use by opcode:
///  - binary/Mov/Load: Dst; A and B registers; Imm the immediate operand
///    (or the whole address for LoadI);
///  - Store: A and B address registers, Imm the immediate address part,
///    C the value register or Imm2 the immediate value;
///  - Br: A condition register (BrI: Imm2 the constant condition), B and C
///    the true and false PCs, Imm the branch's index in Program::Branches;
///  - Jmp: A the target PC; Ret: A register or Imm;
///  - Call: Dst, A the callee entry PC, B/C the first argument index and
///    argument count, Imm the callee frame size;
///  - FellOff: A the function index.
struct XInst {
  XOp Op = XOp::FellOff;
  Reg Dst = 0;
  uint32_t A = 0;
  uint32_t B = 0;
  uint32_t C = 0;
  int64_t Imm = 0;
  int64_t Imm2 = 0;
};

/// A call argument: a caller register or an immediate.
struct XArg {
  bool IsReg;
  Reg R;
  int64_t Imm;
};

/// Where a PC came from, for the instruction listener.
struct XLoc {
  uint32_t Func, Block, Inst;
};

/// A module lowered to one flat code array. Every function's blocks are
/// laid out back to back; a block that does not end in a terminator is
/// followed by a FellOff stub, and each function ends with one more stub
/// that out-of-range branch targets point at.
struct Program {
  std::vector<XInst> Code;
  std::vector<XLoc> Locs;
  std::vector<XArg> Args;
  std::vector<const Instruction *> Branches;
  std::vector<uint32_t> Entry;
  /// Registers per frame: NumRegs, raised to cover every register the
  /// function names, so no access leaves its frame even in a module that
  /// was never verified.
  std::vector<uint32_t> FrameSize;
};

int64_t foldBinary(Opcode Op, int64_t A, int64_t B) {
  switch (Op) {
#define BPCR_X(Name)                                                           \
  case Opcode::Name:                                                           \
    return apply<Opcode::Name>(A, B);
    BPCR_BINARY_OPS(BPCR_X)
#undef BPCR_X
  default:
    return 0;
  }
}

/// Immediate value of a non-register operand (a missing one reads as 0).
int64_t immOf(const Operand &O) { return O.isImm() ? O.Val : 0; }

uint32_t frameSize(const Function &F) {
  uint32_t N = F.NumRegs;
  auto Cover = [&N](const Operand &O) {
    if (O.isReg())
      N = std::max<uint32_t>(N, static_cast<uint32_t>(O.asReg()) + 1);
  };
  for (const BasicBlock &BB : F.Blocks)
    for (const Instruction &I : BB.Insts) {
      if (writesRegister(I.Op))
        N = std::max<uint32_t>(N, static_cast<uint32_t>(I.Dst) + 1);
      Cover(I.A);
      Cover(I.B);
      Cover(I.C);
      for (const Operand &Arg : I.Args)
        Cover(Arg);
    }
  return N;
}

XInst lowerInst(const Instruction &I, const Program &P,
                const std::vector<uint32_t> &BlockPC, uint32_t Stub,
                uint32_t FuncIdx) {
  XInst X;
  X.Dst = I.Dst;
  auto Target = [&](uint32_t T) {
    return T < BlockPC.size() ? BlockPC[T] : Stub;
  };
  switch (I.Op) {
  case Opcode::Mov:
    if (I.A.isReg()) {
      X.Op = XOp::MovR;
      X.A = I.A.asReg();
    } else {
      X.Op = XOp::MovI;
      X.Imm = immOf(I.A);
    }
    break;

  case Opcode::Load:
  case Opcode::Store: {
    bool IsLoad = I.Op == Opcode::Load;
    bool StoreImm = !IsLoad && !I.C.isReg();
    // The address is A + B; an immediate part moves to Imm.
    if (I.A.isReg() && I.B.isReg()) {
      X.Op = IsLoad ? XOp::LoadRR : StoreImm ? XOp::StoreRRK : XOp::StoreRR;
      X.A = I.A.asReg();
      X.B = I.B.asReg();
    } else if (I.A.isReg() || I.B.isReg()) {
      X.Op = IsLoad ? XOp::LoadRI : StoreImm ? XOp::StoreRIK : XOp::StoreRI;
      X.A = I.A.isReg() ? I.A.asReg() : I.B.asReg();
      X.Imm = I.A.isReg() ? immOf(I.B) : immOf(I.A);
    } else {
      X.Op = IsLoad ? XOp::LoadI : StoreImm ? XOp::StoreIK : XOp::StoreI;
      X.Imm = wrapAdd(immOf(I.A), immOf(I.B));
    }
    if (StoreImm)
      X.Imm2 = immOf(I.C);
    else if (!IsLoad)
      X.C = I.C.asReg();
    break;
  }

  case Opcode::Call: {
    if (I.Callee >= P.Entry.size()) {
      X.Op = XOp::FellOff;
      X.A = FuncIdx;
      break;
    }
    X.Op = XOp::Call;
    X.A = P.Entry[I.Callee];
    X.Imm = P.FrameSize[I.Callee];
    X.B = static_cast<uint32_t>(P.Args.size());
    X.C = static_cast<uint32_t>(
        std::min<size_t>(I.Args.size(), P.FrameSize[I.Callee]));
    break;
  }

  case Opcode::Br:
    if (I.A.isReg()) {
      X.Op = XOp::BrR;
      X.A = I.A.asReg();
    } else {
      X.Op = XOp::BrI;
      X.Imm2 = immOf(I.A);
    }
    X.B = Target(I.TrueTarget);
    X.C = Target(I.FalseTarget);
    X.Imm = static_cast<int64_t>(P.Branches.size());
    break;

  case Opcode::Jmp:
    X.Op = XOp::Jmp;
    X.A = Target(I.TrueTarget);
    break;

  case Opcode::Ret:
    if (I.A.isReg()) {
      X.Op = XOp::RetR;
      X.A = I.A.asReg();
    } else {
      X.Op = XOp::RetI;
      X.Imm = immOf(I.A);
    }
    break;

  default: {
    // Two-operand arithmetic and comparisons.
    unsigned Base = (static_cast<unsigned>(I.Op) -
                     static_cast<unsigned>(Opcode::Add)) * 3;
    if (I.A.isReg() && I.B.isReg()) {
      X.Op = static_cast<XOp>(Base);
      X.A = I.A.asReg();
      X.B = I.B.asReg();
    } else if (I.A.isReg()) {
      X.Op = static_cast<XOp>(Base + 1);
      X.A = I.A.asReg();
      X.Imm = immOf(I.B);
    } else if (I.B.isReg()) {
      X.Op = static_cast<XOp>(Base + 2);
      X.Imm = immOf(I.A);
      X.B = I.B.asReg();
    } else {
      X.Op = XOp::MovI;
      X.Imm = foldBinary(I.Op, immOf(I.A), immOf(I.B));
    }
    break;
  }
  }
  return X;
}

/// Lowers \p M: lays out every function, then emits its code with branch
/// targets and callees resolved to PCs.
Program lowerModule(const Module &M) {
  Program P;
  size_t NumFuncs = M.Functions.size();
  std::vector<std::vector<uint32_t>> BlockPC(NumFuncs);
  std::vector<uint32_t> Stub(NumFuncs);
  P.Entry.resize(NumFuncs);
  P.FrameSize.resize(NumFuncs);
  uint32_t PC = 0;
  for (size_t F = 0; F < NumFuncs; ++F) {
    const Function &Fn = M.Functions[F];
    for (const BasicBlock &BB : Fn.Blocks) {
      BlockPC[F].push_back(PC);
      PC += static_cast<uint32_t>(BB.Insts.size()) + (BB.isComplete() ? 0 : 1);
    }
    Stub[F] = PC++;
    P.Entry[F] = Fn.Blocks.empty() ? Stub[F] : BlockPC[F][0];
    P.FrameSize[F] = frameSize(Fn);
  }

  P.Code.reserve(PC);
  P.Locs.reserve(PC);
  for (size_t F = 0; F < NumFuncs; ++F) {
    const Function &Fn = M.Functions[F];
    uint32_t FI = static_cast<uint32_t>(F);
    XInst FellOff;
    FellOff.A = FI;
    for (size_t B = 0; B < Fn.Blocks.size(); ++B) {
      const BasicBlock &BB = Fn.Blocks[B];
      for (size_t N = 0; N < BB.Insts.size(); ++N) {
        const Instruction &I = BB.Insts[N];
        P.Code.push_back(lowerInst(I, P, BlockPC[F], Stub[F], FI));
        P.Locs.push_back({FI, static_cast<uint32_t>(B),
                          static_cast<uint32_t>(N)});
        if (P.Code.back().Op == XOp::Call)
          for (const Operand &Arg : I.Args)
            P.Args.push_back({Arg.isReg(), Arg.isReg() ? Arg.asReg() : Reg(0),
                              immOf(Arg)});
        else if (P.Code.back().Op == XOp::BrR || P.Code.back().Op == XOp::BrI)
          P.Branches.push_back(&I);
      }
      if (!BB.isComplete()) {
        P.Code.push_back(FellOff);
        P.Locs.push_back({FI, static_cast<uint32_t>(B), 0});
      }
    }
    P.Code.push_back(FellOff);
    P.Locs.push_back({FI, 0, 0});
  }
  return P;
}

/// Emitter policies for the templated execution loop. The interpreter is
/// instantiated once per policy: the no-sink run pays nothing per branch,
/// the columnar and scoring runs pay one append or one counter bump per
/// event, and a generic sink pays one buffered store per event plus one
/// virtual onBatch per flush. bind() resolves each lowered branch's
/// per-branch data once, before the run; emit() receives the branch's
/// index in Program::Branches.
struct NullEmitter {
  static constexpr bool HasSink = false;
  void bind(const std::vector<const Instruction *> &) {}
  void emit(size_t, bool) {}
  void flush() {}
};

struct BatchEmitter {
  static constexpr bool HasSink = true;
  static constexpr size_t BatchSize = 256;

  explicit BatchEmitter(TraceSink *Sink) : Sink(Sink) {}

  void bind(const std::vector<const Instruction *> &B) { Branches = B.data(); }

  void emit(size_t Idx, bool Taken) {
    Buf[N].Br = Branches[Idx];
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
  const Instruction *const *Branches = nullptr;
  BranchBatchEvent Buf[BatchSize];
  size_t N = 0;
};

/// Appends each event's id and direction straight into a ColumnarTrace,
/// and with a stream publishes each completed chunk. The boundary check
/// compares the id column's end, which the append has just computed, with
/// the next boundary's address: one compare per event, unreachable (null)
/// without a stream or once the stream has closed.
struct ColumnarEmitter {
  static constexpr bool HasSink = true;

  ColumnarEmitter(ColumnarTrace &Out, bool UseOrigIds, ChunkStream *Stream)
      : Out(Out), UseOrigIds(UseOrigIds), Stream(Stream) {}

  void bind(const std::vector<const Instruction *> &Branches) {
    Ids.reserve(Branches.size());
    for (const Instruction *Br : Branches)
      Ids.push_back(UseOrigIds ? Br->OrigBranchId : Br->BranchId);
    if (Stream) {
      assert(Out.empty() && "a streamed trace starts empty");
      openChunk();
    }
  }

  void emit(size_t Idx, bool Taken) {
    Out.append(Ids[Idx], Taken);
    if (Out.idsEnd() == Boundary)
      publish();
  }
  void flush() {
    if (Stream)
      Stream->close();
  }

  /// The chunk ending at Boundary is complete.
  [[gnu::noinline]] void publish() {
    Stream->publish(Out.size());
    openChunk();
  }

  /// Arms the boundary of the chunk after the events so far, or closes
  /// the stream when that chunk would move the columns.
  void openChunk() {
    const size_t End = Out.size() + Stream->chunkEvents();
    if (End <= Out.reservedEvents()) {
      Boundary = Out.columns().Ids + End;
      return;
    }
    Boundary = nullptr;
    Stream->close();
  }

  ColumnarTrace &Out;
  bool UseOrigIds;
  ChunkStream *Stream;
  const int32_t *Boundary = nullptr;
  std::vector<int32_t> Ids;
};

/// Bumps flat per-branch execution and misprediction counters, comparing
/// each outcome with the branch's predicted direction (decoded once in
/// bind()).
struct ScoreEmitter {
  static constexpr bool HasSink = true;

  explicit ScoreEmitter(std::vector<BranchScore> &Scores) : Scores(Scores) {}

  void bind(const std::vector<const Instruction *> &Branches) {
    Scores.assign(Branches.size(), BranchScore());
    PredictTaken.resize(Branches.size());
    for (size_t I = 0; I < Branches.size(); ++I) {
      Scores[I].Br = Branches[I];
      PredictTaken[I] = Branches[I]->Predicted != Prediction::NotTaken;
    }
  }

  void emit(size_t Idx, bool Taken) {
    BranchScore &S = Scores[Idx];
    ++S.Executions;
    S.Mispredictions += PredictTaken[Idx] != Taken;
  }
  void flush() {}

  std::vector<BranchScore> &Scores;
  std::vector<uint8_t> PredictTaken;
};

/// Scoring with a generic sink riding along on the same run.
struct ScoreBatchEmitter {
  static constexpr bool HasSink = true;

  ScoreBatchEmitter(std::vector<BranchScore> &Scores, TraceSink *Extra)
      : Score(Scores), Batch(Extra) {}

  void bind(const std::vector<const Instruction *> &Branches) {
    Score.bind(Branches);
    Batch.bind(Branches);
  }

  void emit(size_t Idx, bool Taken) {
    Score.emit(Idx, Taken);
    Batch.emit(Idx, Taken);
  }
  void flush() { Batch.flush(); }

  ScoreEmitter Score;
  BatchEmitter Batch;
};

/// A caller's state, saved across a call. Frames and registers live on
/// explicit stacks, so deep recursion in workloads (the prolog-style
/// backtracking search) cannot overflow the host stack.
struct Frame {
  const XInst *RetPC;
  size_t Base;
  Reg RetDst;
};

/// Runs \p P from its entry function until it returns, errs or hits a
/// limit. All registers live on one contiguous stack; a frame is a base
/// offset into it. \p Listen instantiates the per-instruction listener
/// call, so runs without one test nothing for it.
///
/// Dispatch is direct-threaded (GCC/Clang labels-as-values): every handler
/// ends in its own copy of DISPATCH(), an indirect jump through one table
/// indexed by the lowered opcode, so each handler's exit is a separate
/// branch site for the host's predictor instead of one shared `switch`
/// jump. DISPATCH() also carries the listener call and the per-instruction
/// fuel check.
template <bool Listen, class Emitter>
void run(const Program &P, uint32_t EntryFunc, uint32_t EntryRegs,
         Emitter &Emit, const ExecOptions &Opts, std::vector<int64_t> &Mem,
         ExecResult &R) {
  const XInst *const Code = P.Code.data();
  const XArg *const Args = P.Args.data();
  int64_t *const MemData = Mem.data();
  const uint64_t MemSize = Mem.size();
  const uint64_t MaxInstructions = Opts.MaxInstructions;
  const uint64_t MaxBranchEvents = Opts.MaxBranchEvents;

  std::vector<int64_t> Stack(
      std::max<size_t>(4096, 4 * size_t{P.FrameSize[EntryFunc]}), 0);
  std::vector<Frame> Frames;
  Frames.reserve(64);
  size_t Base = 0, Top = P.FrameSize[EntryFunc];
  int64_t *Regs = Stack.data();
  for (size_t I = 0; I < Opts.EntryArgs.size() && I < EntryRegs; ++I)
    Regs[I] = Opts.EntryArgs[I];

  const XInst *PC = Code + P.Entry[EntryFunc];
  uint64_t Count = 0, Events = 0;
  bool Errored = false;
  auto Stop = [&](const char *Fmt, long long V) {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), Fmt, V);
    R.Error = Buf;
    Errored = true;
  };
  auto Load = [&](int64_t Addr) {
    if (static_cast<uint64_t>(Addr) >= MemSize) {
      Stop("load from address %lld out of bounds",
           static_cast<long long>(Addr));
      return false;
    }
    Regs[PC->Dst] = MemData[static_cast<size_t>(Addr)];
    ++PC;
    return true;
  };
  auto Store = [&](int64_t Addr, int64_t V) {
    if (static_cast<uint64_t>(Addr) >= MemSize) {
      Stop("store to address %lld out of bounds",
           static_cast<long long>(Addr));
      return false;
    }
    MemData[static_cast<size_t>(Addr)] = V;
    ++PC;
    return true;
  };
  auto Branch = [&](bool Taken) {
    Emit.emit(static_cast<size_t>(PC->Imm), Taken);
    PC = Code + (Taken ? PC->B : PC->C);
    if (++Events >= MaxBranchEvents) {
      R.HitBranchLimit = true;
      return false;
    }
    return true;
  };
  auto Return = [&](int64_t V) {
    if (Frames.empty()) {
      R.ReturnValue = V;
      return false;
    }
    const Frame F = Frames.back();
    Frames.pop_back();
    Top = Base;
    Base = F.Base;
    Regs = Stack.data() + Base;
    Regs[F.RetDst] = V;
    PC = F.RetPC;
    return true;
  };

  // One entry per XOp, in declaration order.
  static const void *const Dispatch[] = {
#define BPCR_X(Name) &&Do##Name##RR, &&Do##Name##RI, &&Do##Name##IR,
      BPCR_BINARY_OPS(BPCR_X)
#undef BPCR_X
      &&DoMovR,     &&DoMovI,     &&DoLoadRR,  &&DoLoadRI,  &&DoLoadI,
      &&DoStoreRR,  &&DoStoreRI,  &&DoStoreI,  &&DoStoreRRK, &&DoStoreRIK,
      &&DoStoreIK,  &&DoCall,     &&DoBrR,     &&DoBrI,     &&DoJmp,
      &&DoRetR,     &&DoRetI,     &&DoFellOff,
  };
  static_assert(std::size(Dispatch) == NumXOps,
                "one dispatch entry per lowered opcode");

  // A fall-off stops the run before its fetch is counted or reported to
  // the listener.
#define DISPATCH()                                                             \
  do {                                                                         \
    if constexpr (Listen) {                                                    \
      if (PC->Op != XOp::FellOff) {                                            \
        const XLoc &L = P.Locs[static_cast<size_t>(PC - Code)];                \
        Opts.Listener->onInstruction(L.Func, L.Block, L.Inst);                 \
      }                                                                        \
    }                                                                          \
    if (++Count > MaxInstructions)                                             \
      goto OutOfFuel;                                                          \
    goto *Dispatch[static_cast<size_t>(PC->Op)];                               \
  } while (0)
#define NEXT()                                                                 \
  do {                                                                         \
    ++PC;                                                                      \
    DISPATCH();                                                                \
  } while (0)

  DISPATCH();

#define BPCR_X(Name)                                                           \
  Do##Name##RR:                                                                \
  Regs[PC->Dst] = apply<Opcode::Name>(Regs[PC->A], Regs[PC->B]);               \
  NEXT();                                                                      \
  Do##Name##RI:                                                                \
  Regs[PC->Dst] = apply<Opcode::Name>(Regs[PC->A], PC->Imm);                   \
  NEXT();                                                                      \
  Do##Name##IR:                                                                \
  Regs[PC->Dst] = apply<Opcode::Name>(PC->Imm, Regs[PC->B]);                   \
  NEXT();
  BPCR_BINARY_OPS(BPCR_X)
#undef BPCR_X

DoMovR:
  Regs[PC->Dst] = Regs[PC->A];
  NEXT();
DoMovI:
  Regs[PC->Dst] = PC->Imm;
  NEXT();

DoLoadRR:
  if (Load(wrapAdd(Regs[PC->A], Regs[PC->B])))
    DISPATCH();
  goto Done;
DoLoadRI:
  if (Load(wrapAdd(Regs[PC->A], PC->Imm)))
    DISPATCH();
  goto Done;
DoLoadI:
  if (Load(PC->Imm))
    DISPATCH();
  goto Done;

DoStoreRR:
  if (Store(wrapAdd(Regs[PC->A], Regs[PC->B]), Regs[PC->C]))
    DISPATCH();
  goto Done;
DoStoreRI:
  if (Store(wrapAdd(Regs[PC->A], PC->Imm), Regs[PC->C]))
    DISPATCH();
  goto Done;
DoStoreI:
  if (Store(PC->Imm, Regs[PC->C]))
    DISPATCH();
  goto Done;
DoStoreRRK:
  if (Store(wrapAdd(Regs[PC->A], Regs[PC->B]), PC->Imm2))
    DISPATCH();
  goto Done;
DoStoreRIK:
  if (Store(wrapAdd(Regs[PC->A], PC->Imm), PC->Imm2))
    DISPATCH();
  goto Done;
DoStoreIK:
  if (Store(PC->Imm, PC->Imm2))
    DISPATCH();
  goto Done;

DoCall: {
  const XInst &X = *PC;
  if (Frames.size() + 1 >= Opts.MaxCallDepth) {
    Stop("call depth limit exceeded (%lld)",
         static_cast<long long>(Opts.MaxCallDepth));
    goto Done;
  }
  size_t Size = static_cast<size_t>(X.Imm);
  if (Top + Size > Stack.size()) {
    Stack.resize(std::max(2 * Stack.size(), Top + Size));
    Regs = Stack.data() + Base;
  }
  // Arguments are read from the caller's frame into the fresh one just
  // above it.
  int64_t *Callee = Stack.data() + Top;
  std::fill(Callee, Callee + Size, 0);
  for (uint32_t I = 0; I < X.C; ++I) {
    const XArg &Arg = Args[X.B + I];
    Callee[I] = Arg.IsReg ? Regs[Arg.R] : Arg.Imm;
  }
  Frames.push_back({PC + 1, Base, X.Dst});
  Base = Top;
  Top += Size;
  Regs = Callee;
  PC = Code + X.A;
  DISPATCH();
}

DoBrR:
  if (Branch(Regs[PC->A] != 0))
    DISPATCH();
  goto Done;
DoBrI:
  if (Branch(PC->Imm2 != 0))
    DISPATCH();
  goto Done;

DoJmp:
  PC = Code + PC->A;
  DISPATCH();

DoRetR:
  if (Return(Regs[PC->A]))
    DISPATCH();
  goto Done;
DoRetI:
  if (Return(PC->Imm))
    DISPATCH();
  goto Done;

OutOfFuel:
  if (PC->Op != XOp::FellOff) {
    Stop("instruction budget exhausted (%lld)",
         static_cast<long long>(MaxInstructions));
    goto Done;
  }
  // Fuel that runs out exactly at a fall-off reports the fall-off.
DoFellOff:
  --Count;
  Stop("control fell off a block in function %lld",
       static_cast<long long>(PC->A));

#undef NEXT
#undef DISPATCH
Done:
  R.Ok = !Errored;
  R.InstructionsExecuted = Count;
  R.BranchEvents = Events;
}

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

  // Lowered once per call: the module may change between runs.
  const Program P = lowerModule(M);
  Emit.bind(P.Branches);
  const uint32_t EntryRegs = M.Functions[M.EntryFunction].NumRegs;
  if (Opts.Listener)
    run<true>(P, M.EntryFunction, EntryRegs, Emit, Opts, Mem, R);
  else
    run<false>(P, M.EntryFunction, EntryRegs, Emit, Opts, Mem, R);
  const bool Errored = !R.Ok;

  // Deliver any buffered events before the run result is observable —
  // every exit path (return, error, branch limit) funnels through here.
  Emit.flush();

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

ExecResult bpcr::executeColumnar(const Module &M, ColumnarTrace &Out,
                                 bool UseOrigIds, const ExecOptions &Opts,
                                 ChunkStream *Stream) {
  ColumnarEmitter E(Out, UseOrigIds, Stream);
  return executeImpl(M, E, Opts);
}

ExecResult bpcr::executeScored(const Module &M,
                               std::vector<BranchScore> &Scores,
                               const ExecOptions &Opts, TraceSink *Extra) {
  if (!Extra) {
    ScoreEmitter E(Scores);
    return executeImpl(M, E, Opts);
  }
  ScoreBatchEmitter E(Scores, Extra);
  return executeImpl(M, E, Opts);
}
