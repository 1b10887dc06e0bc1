//===- ir/Verifier.cpp ----------------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

using namespace bpcr;
using sa::Diagnostic;
using sa::Location;
using sa::Severity;

namespace {

/// Accumulates diagnostics under the fixed "ir-verify" pass id.
class Diags {
public:
  std::vector<Diagnostic> All;

  Diagnostic &error(const char *Rule, Location Loc, std::string Msg) {
    All.push_back(sa::makeDiag(Severity::Error, "ir-verify", Rule,
                               std::move(Loc), std::move(Msg)));
    return All.back();
  }
};

Location moduleLoc() { return Location{}; }

Location funcLoc(const Function &F, uint32_t FI) {
  Location Loc;
  Loc.FuncIdx = static_cast<int32_t>(FI);
  Loc.FuncName = F.Name;
  return Loc;
}

Location blockLoc(const Function &F, uint32_t FI, size_t BI,
                  int32_t II = -1) {
  Location Loc = funcLoc(F, FI);
  Loc.BlockIdx = static_cast<int32_t>(BI);
  Loc.BlockName = F.Blocks[BI].Name;
  Loc.InstIdx = II;
  return Loc;
}

void checkOperand(Diags &D, const Function &F, uint32_t FI, const Operand &O,
                  const char *Role, size_t BI, size_t II) {
  if (O.isReg() && O.Val >= static_cast<int64_t>(F.NumRegs))
    D.error("operand-range", blockLoc(F, FI, BI, static_cast<int32_t>(II)),
            std::string(Role) + " register r" + std::to_string(O.Val) +
                " out of range (" + std::to_string(F.NumRegs) + " regs)");
}

void checkFunction(Diags &D, const Module &M, uint32_t FI) {
  const Function &F = M.Functions[FI];
  if (F.Blocks.empty()) {
    D.error("no-blocks", funcLoc(F, FI), "function has no blocks");
    return;
  }
  if (F.NumParams > F.NumRegs)
    D.error("param-regs", funcLoc(F, FI),
            std::to_string(F.NumParams) + " params but only " +
                std::to_string(F.NumRegs) + " registers");

  for (size_t BI = 0; BI < F.Blocks.size(); ++BI) {
    const BasicBlock &BB = F.Blocks[BI];
    if (BB.Insts.empty()) {
      D.error("empty-block", blockLoc(F, FI, BI), "block is empty");
      continue;
    }
    if (!BB.Insts.back().isTerminator())
      D.error("no-terminator", blockLoc(F, FI, BI),
              "block does not end in a terminator");

    for (size_t II = 0; II < BB.Insts.size(); ++II) {
      const Instruction &I = BB.Insts[II];
      if (I.isTerminator() && II + 1 != BB.Insts.size())
        D.error("mid-block-terminator",
                blockLoc(F, FI, BI, static_cast<int32_t>(II)),
                "terminator in mid-block");

      checkOperand(D, F, FI, I.A, "A", BI, II);
      checkOperand(D, F, FI, I.B, "B", BI, II);
      checkOperand(D, F, FI, I.C, "C", BI, II);
      if (writesRegister(I.Op) && I.Dst >= F.NumRegs)
        D.error("dst-range", blockLoc(F, FI, BI, static_cast<int32_t>(II)),
                "dst register r" + std::to_string(I.Dst) + " out of range");

      switch (I.Op) {
      case Opcode::Br:
        if (I.TrueTarget >= F.Blocks.size() ||
            I.FalseTarget >= F.Blocks.size())
          D.error("branch-target",
                  blockLoc(F, FI, BI, static_cast<int32_t>(II)),
                  "branch target out of range");
        if (I.A.isNone())
          D.error("branch-condition",
                  blockLoc(F, FI, BI, static_cast<int32_t>(II)),
                  "branch without a condition");
        break;
      case Opcode::Jmp:
        if (I.TrueTarget >= F.Blocks.size())
          D.error("jump-target",
                  blockLoc(F, FI, BI, static_cast<int32_t>(II)),
                  "jump target out of range");
        break;
      case Opcode::Call: {
        if (I.Callee >= M.Functions.size()) {
          D.error("callee-range",
                  blockLoc(F, FI, BI, static_cast<int32_t>(II)),
                  "callee index " + std::to_string(I.Callee) +
                      " out of range");
          break;
        }
        const Function &Callee = M.Functions[I.Callee];
        if (I.Args.size() != Callee.NumParams)
          D.error("call-arity",
                  blockLoc(F, FI, BI, static_cast<int32_t>(II)),
                  "call to " + Callee.Name + " passes " +
                      std::to_string(I.Args.size()) + " args, expected " +
                      std::to_string(Callee.NumParams));
        for (const Operand &Arg : I.Args)
          checkOperand(D, F, FI, Arg, "arg", BI, II);
        break;
      }
      default:
        break;
      }
    }
  }

  // Predecessor shape: count explicit edges from in-range terminators. The
  // entry block is the function's reset point — loop replication and the
  // interpreter both assume nothing jumps back to it — and a non-entry
  // block with no incoming edge would be "reachable" only by falling
  // through past the previous block's terminator, which never happens.
  std::vector<uint32_t> PredCount(F.Blocks.size(), 0);
  for (const BasicBlock &BB : F.Blocks) {
    if (BB.Insts.empty() || !BB.Insts.back().isTerminator())
      continue;
    const Instruction &T = BB.Insts.back();
    if (T.Op == Opcode::Br) {
      if (T.TrueTarget < F.Blocks.size())
        ++PredCount[T.TrueTarget];
      if (T.FalseTarget < F.Blocks.size())
        ++PredCount[T.FalseTarget];
    } else if (T.Op == Opcode::Jmp && T.TrueTarget < F.Blocks.size()) {
      ++PredCount[T.TrueTarget];
    }
  }
  if (PredCount[0] > 0)
    D.error("entry-has-preds", blockLoc(F, FI, 0),
            "entry block has " + std::to_string(PredCount[0]) +
                " predecessor edge(s); the entry must be a pure reset "
                "point — give loops their own header block");
  for (size_t BI = 1; BI < F.Blocks.size(); ++BI)
    if (PredCount[BI] == 0)
      D.error("no-predecessors", blockLoc(F, FI, BI),
              "block has no predecessor edges; it could only run by "
              "falling through past a terminator, which this IR never "
              "does");
}

} // namespace

std::vector<Diagnostic> bpcr::verifyModuleDiags(const Module &M) {
  Diags D;

  if (M.Functions.empty())
    D.error("no-functions", moduleLoc(), "module has no functions");
  if (M.EntryFunction >= M.Functions.size())
    D.error("entry-function", moduleLoc(),
            "entry function index " + std::to_string(M.EntryFunction) +
                " out of range");
  if (M.MemWords > MaxMemWords)
    D.error("memory-size", moduleLoc(),
            "memory size (" + std::to_string(M.MemWords) +
                " words) exceeds the limit of " + std::to_string(MaxMemWords) +
                " words");
  if (M.InitialMemory.size() > M.MemWords)
    D.error("memory-image", moduleLoc(),
            "initial memory image (" +
                std::to_string(M.InitialMemory.size()) +
                " words) exceeds MemWords (" + std::to_string(M.MemWords) +
                ")");

  for (uint32_t FI = 0; FI < M.Functions.size(); ++FI)
    checkFunction(D, M, FI);

  return std::move(D.All);
}

std::vector<std::string> bpcr::verifyModule(const Module &M) {
  std::vector<std::string> Out;
  for (const Diagnostic &D : verifyModuleDiags(M))
    Out.push_back(D.render());
  return Out;
}
