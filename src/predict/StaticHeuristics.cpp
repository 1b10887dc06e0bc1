//===- predict/StaticHeuristics.cpp ---------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "predict/StaticHeuristics.h"

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "trace/ColumnarTrace.h"

using namespace bpcr;

namespace {

/// Applies \p Fn to every conditional branch of the module, recording the
/// produced prediction by BranchId.
template <typename Callable>
StaticPredictions forEachBranch(const Module &M, Callable Fn) {
  StaticPredictions Out(M.conditionalBranchCount(), Prediction::Unknown);
  for (const Function &F : M.Functions)
    for (uint32_t BI = 0; BI < F.Blocks.size(); ++BI) {
      const BasicBlock &BB = F.Blocks[BI];
      for (const Instruction &I : BB.Insts) {
        if (!I.isConditionalBranch())
          continue;
        assert(I.BranchId >= 0 && "branch ids not assigned");
        if (static_cast<size_t>(I.BranchId) >= Out.size())
          Out.resize(I.BranchId + 1, Prediction::Unknown);
        Out[I.BranchId] = Fn(F, BI, I);
      }
    }
  return Out;
}

/// Finds the comparison defining the branch condition register within the
/// same block, or null.
const Instruction *definingCompare(const BasicBlock &BB,
                                   const Instruction &Br) {
  if (!Br.A.isReg())
    return nullptr;
  Reg Cond = Br.A.asReg();
  for (auto It = BB.Insts.rbegin(); It != BB.Insts.rend(); ++It) {
    const Instruction &I = *It;
    if (&I == &Br)
      continue;
    if (writesRegister(I.Op) && I.Dst == Cond)
      return isCompare(I.Op) ? &I : nullptr;
  }
  return nullptr;
}

bool blockContains(const BasicBlock &BB, Opcode Op) {
  for (const Instruction &I : BB.Insts)
    if (I.Op == Op)
      return true;
  return false;
}

bool blockReturns(const BasicBlock &BB) {
  return BB.isComplete() && BB.terminator().Op == Opcode::Ret;
}

/// True when a register operand of the branch's compare is read in \p BB.
bool blockUsesOperands(const BasicBlock &BB, const Instruction *Cmp) {
  if (!Cmp)
    return false;
  auto Uses = [&BB](Reg R) {
    for (const Instruction &I : BB.Insts) {
      auto Reads = [R](const Operand &O) { return O.isReg() && O.asReg() == R; };
      if (Reads(I.A) || Reads(I.B) || Reads(I.C))
        return true;
      for (const Operand &Arg : I.Args)
        if (Reads(Arg))
          return true;
    }
    return false;
  };
  if (Cmp->A.isReg() && Uses(Cmp->A.asReg()))
    return true;
  if (Cmp->B.isReg() && Uses(Cmp->B.asReg()))
    return true;
  return false;
}

} // namespace

StaticPredictions bpcr::predictAlwaysTaken(const Module &M) {
  return forEachBranch(M, [](const Function &, uint32_t, const Instruction &) {
    return Prediction::Taken;
  });
}

StaticPredictions bpcr::predictBackwardTaken(const Module &M) {
  return forEachBranch(
      M, [](const Function &, uint32_t BI, const Instruction &I) {
        return (I.TrueTarget <= BI) ? Prediction::Taken
                                    : Prediction::NotTaken;
      });
}

StaticPredictions bpcr::predictOpcode(const Module &M) {
  return forEachBranch(
      M, [](const Function &F, uint32_t BI, const Instruction &Br) {
        const Instruction *Cmp = definingCompare(F.Blocks[BI], Br);
        if (!Cmp)
          return Prediction::Taken;
        switch (Cmp->Op) {
        case Opcode::CmpEq:
          return Prediction::NotTaken; // equality rarely holds
        case Opcode::CmpNe:
          return Prediction::Taken;
        case Opcode::CmpLt:
        case Opcode::CmpLe:
          // Tests against zero are usually error/edge checks.
          if (Cmp->B.isImm() && Cmp->B.Val == 0)
            return Prediction::NotTaken;
          return Prediction::Taken;
        default:
          return Prediction::Taken;
        }
      });
}

StaticPredictions bpcr::predictBallLarus(const Module &M) {
  StaticPredictions Out(M.conditionalBranchCount(), Prediction::Unknown);

  for (const Function &F : M.Functions) {
    // Branches of a function without a buildable CFG (an unverified module
    // with an empty block or an out-of-range target) stay Unknown.
    if (!isCfgBuildable(F))
      continue;
    CFG G(F);
    Dominators D(G);
    LoopInfo LI(G, D);

    for (uint32_t BI = 0; BI < F.Blocks.size(); ++BI) {
      const BasicBlock &BB = F.Blocks[BI];
      if (!BB.isComplete())
        continue;
      const Instruction &Br = BB.terminator();
      if (!Br.isConditionalBranch())
        continue;
      assert(Br.BranchId >= 0 && "branch ids not assigned");
      if (static_cast<size_t>(Br.BranchId) >= Out.size())
        Out.resize(Br.BranchId + 1, Prediction::Unknown);

      const BasicBlock &TB = F.Blocks[Br.TrueTarget];
      const BasicBlock &FB = F.Blocks[Br.FalseTarget];
      const Instruction *Cmp = definingCompare(BB, Br);

      Prediction P = Prediction::Unknown;

      // Loop: predict that the loop branch is taken (stays in / re-enters
      // the loop). Applied first: Ball-Larus treat loop branches with the
      // loop heuristic and use the program-based heuristics for the rest.
      {
        int32_t L = LI.innermostLoop(BI);
        if (L >= 0) {
          const Loop &Lp = LI.loops()[static_cast<size_t>(L)];
          bool TIn = Lp.contains(Br.TrueTarget);
          bool FIn = Lp.contains(Br.FalseTarget);
          if (TIn != FIn)
            P = TIn ? Prediction::Taken : Prediction::NotTaken;
        }
      }

      // Point: pointer comparisons — equality predicted false.
      if (Cmp && Cmp->PtrCmp) {
        if (Cmp->Op == Opcode::CmpEq)
          P = Prediction::NotTaken;
        else if (Cmp->Op == Opcode::CmpNe)
          P = Prediction::Taken;
      }

      // Call: avoid the successor that calls a subroutine (unless it also
      // appears on the other side).
      if (P == Prediction::Unknown) {
        bool TCall = blockContains(TB, Opcode::Call);
        bool FCall = blockContains(FB, Opcode::Call);
        if (TCall != FCall)
          P = TCall ? Prediction::NotTaken : Prediction::Taken;
      }

      // Opcode: comparisons against zero / equality predicted false.
      if (P == Prediction::Unknown && Cmp) {
        if (Cmp->Op == Opcode::CmpEq)
          P = Prediction::NotTaken;
        else if (Cmp->Op == Opcode::CmpNe)
          P = Prediction::Taken;
        else if ((Cmp->Op == Opcode::CmpLt || Cmp->Op == Opcode::CmpLe) &&
                 Cmp->B.isImm() && Cmp->B.Val == 0)
          P = Prediction::NotTaken;
      }

      // Return: avoid the successor that returns.
      if (P == Prediction::Unknown) {
        bool TRet = blockReturns(TB);
        bool FRet = blockReturns(FB);
        if (TRet != FRet)
          P = TRet ? Prediction::NotTaken : Prediction::Taken;
      }

      // Store: avoid the successor that stores.
      if (P == Prediction::Unknown) {
        bool TStore = blockContains(TB, Opcode::Store);
        bool FStore = blockContains(FB, Opcode::Store);
        if (TStore != FStore)
          P = TStore ? Prediction::NotTaken : Prediction::Taken;
      }

      // Guard: branch toward the block that uses the branch operands.
      if (P == Prediction::Unknown && Cmp) {
        bool TUse = blockUsesOperands(TB, Cmp);
        bool FUse = blockUsesOperands(FB, Cmp);
        if (TUse != FUse)
          P = TUse ? Prediction::Taken : Prediction::NotTaken;
      }

      Out[Br.BranchId] = (P == Prediction::Unknown) ? Prediction::Taken : P;
    }
  }
  return Out;
}

PredictionStats
bpcr::evaluateStaticPredictions(const StaticPredictions &P,
                                const ColumnarTrace &CT) {
  PredictionStats S;
  for (size_t I = 0, N = CT.size(); I < N; ++I) {
    const int32_t Id = CT.branchId(I);
    Prediction Pred = Prediction::Taken;
    if (static_cast<size_t>(Id) < P.size() && P[Id] != Prediction::Unknown)
      Pred = P[Id];
    S.record((Pred == Prediction::Taken) == CT.taken(I));
  }
  return S;
}
