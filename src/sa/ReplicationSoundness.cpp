//===- sa/ReplicationSoundness.cpp ----------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sa/ReplicationSoundness.h"

#include "analysis/CFG.h"
#include "sa/Passes.h"

#include <algorithm>
#include <deque>
#include <iterator>
#include <utility>

using namespace bpcr;
using namespace bpcr::sa;

namespace {

constexpr const char *PassId = "replication-soundness";

Location locOf(const Module &M, int32_t FI, int32_t Block, int32_t Inst) {
  Location Loc;
  Loc.FuncIdx = FI;
  if (FI >= 0) {
    Loc.FuncName = M.Functions[static_cast<size_t>(FI)].Name;
    Loc.BlockIdx = Block;
    if (Block >= 0)
      Loc.BlockName = M.Functions[static_cast<size_t>(FI)]
                          .Blocks[static_cast<size_t>(Block)]
                          .Name;
    Loc.InstIdx = Inst;
  }
  return Loc;
}

/// Field-by-field equality over everything replication must preserve:
/// opcode, registers, immediates, callee and arguments. Block targets,
/// branch ids and prediction annotations are exactly what the transform is
/// licensed to rewrite, so they are excluded.
bool sameComputation(const Instruction &A, const Instruction &B) {
  return A.Op == B.Op && A.Dst == B.Dst && A.A == B.A && A.B == B.B &&
         A.C == B.C && A.Callee == B.Callee && A.Args == B.Args &&
         A.PtrCmp == B.PtrCmp;
}

void checkFunction(const Module &Orig, const Module &Repl, uint32_t FI,
                   int32_t OrigBranchCount,
                   const std::vector<int32_t> *CopyToOrig,
                   std::vector<Diagnostic> &Out) {
  const Function &OF = Orig.Functions[FI];
  const Function &RF = Repl.Functions[FI];
  const int32_t SFI = static_cast<int32_t>(FI);

  if (OF.NumParams != RF.NumParams || RF.NumRegs < OF.NumRegs) {
    Out.push_back(makeDiag(
        Severity::Error, PassId, "function-shape", locOf(Repl, SFI, -1, -1),
        "replicated function signature diverged from the original "
        "(params " +
            std::to_string(RF.NumParams) + " vs " +
            std::to_string(OF.NumParams) + ", regs " +
            std::to_string(RF.NumRegs) + " vs " +
            std::to_string(OF.NumRegs) + ")"));
    return;
  }
  if (!isCfgBuildable(OF) || !isCfgBuildable(RF)) {
    if (!isCfgBuildable(RF))
      Out.push_back(makeDiag(Severity::Error, PassId, "function-shape",
                             locOf(Repl, SFI, -1, -1),
                             "replicated function is structurally invalid "
                             "(incomplete block or out-of-range target); "
                             "simulation cannot be checked"));
    return;
  }

  // Lockstep BFS over (original block, replicated block) pairs. MapRB
  // remembers which original each replicated block simulates; a conflict
  // means the replicated CFG merged two distinct original program points.
  std::vector<int32_t> MapRB(RF.Blocks.size(), -1);
  std::deque<std::pair<uint32_t, uint32_t>> Work;
  Work.push_back({0, 0});
  while (!Work.empty()) {
    auto [OB, RB] = Work.front();
    Work.pop_front();
    if (MapRB[RB] != -1) {
      if (MapRB[RB] != static_cast<int32_t>(OB)) {
        Diagnostic D = makeDiag(
            Severity::Error, PassId, "fold-conflict",
            locOf(Repl, SFI, static_cast<int32_t>(RB), -1),
            "replicated block simulates two different original blocks (" +
                std::to_string(MapRB[RB]) + " and " + std::to_string(OB) +
                "); the state-in-PC encoding collapsed distinct program "
                "points");
        D.note(locOf(Orig, SFI, static_cast<int32_t>(OB), -1),
               "second original block reached through this pairing");
        Out.push_back(std::move(D));
      }
      continue;
    }
    MapRB[RB] = static_cast<int32_t>(OB);

    const BasicBlock &OBB = OF.Blocks[OB];
    const BasicBlock &RBB = RF.Blocks[RB];
    if (OBB.Insts.size() != RBB.Insts.size()) {
      Diagnostic D = makeDiag(
          Severity::Error, PassId, "block-mismatch",
          locOf(Repl, SFI, static_cast<int32_t>(RB), -1),
          "replicated block has " + std::to_string(RBB.Insts.size()) +
              " instructions where its original has " +
              std::to_string(OBB.Insts.size()));
      D.note(locOf(Orig, SFI, static_cast<int32_t>(OB), -1),
             "original block it should simulate");
      Out.push_back(std::move(D));
      continue; // cannot align successors past a length mismatch
    }

    bool TerminatorOk = true;
    for (size_t II = 0; II < RBB.Insts.size(); ++II) {
      const Instruction &OI = OBB.Insts[II];
      const Instruction &RI = RBB.Insts[II];
      if (!sameComputation(OI, RI)) {
        Diagnostic D = makeDiag(
            Severity::Error, PassId, "instruction-mismatch",
            locOf(Repl, SFI, static_cast<int32_t>(RB),
                  static_cast<int32_t>(II)),
            std::string("instruction diverged from its original (") +
                opcodeName(RI.Op) + " vs " + opcodeName(OI.Op) +
                "); replication may only rewrite targets, ids and "
                "predictions");
        D.note(locOf(Orig, SFI, static_cast<int32_t>(OB),
                     static_cast<int32_t>(II)),
               "original instruction");
        Out.push_back(std::move(D));
        if (II + 1 == RBB.Insts.size())
          TerminatorOk = false;
      }
    }
    if (!TerminatorOk)
      continue; // successor shapes are not comparable

    const Instruction &OT = OBB.terminator();
    const Instruction &RT = RBB.terminator();
    if (RT.isConditionalBranch()) {
      // Fold check: the copy must fold onto the original branch it
      // simulates.
      const int32_t WantId = OT.BranchId;
      if (RT.OrigBranchId < 0 || RT.OrigBranchId >= OrigBranchCount) {
        Out.push_back(makeDiag(
            Severity::Error, PassId, "orphan-copy",
            locOf(Repl, SFI, static_cast<int32_t>(RB),
                  static_cast<int32_t>(RBB.Insts.size() - 1)),
            "replicated branch folds onto original id " +
                std::to_string(RT.OrigBranchId) +
                ", which is outside the original module's id range [0, " +
                std::to_string(OrigBranchCount) + ")"));
      } else if (RT.OrigBranchId != WantId) {
        Diagnostic D = makeDiag(
            Severity::Error, PassId, "wrong-fold",
            locOf(Repl, SFI, static_cast<int32_t>(RB),
                  static_cast<int32_t>(RBB.Insts.size() - 1)),
            "replicated branch folds onto original id " +
                std::to_string(RT.OrigBranchId) +
                " but the simulation relation pairs it with original id " +
                std::to_string(WantId) +
                "; its mispredictions would be charged to the wrong "
                "branch");
        D.note(locOf(Orig, SFI, static_cast<int32_t>(OB),
                     static_cast<int32_t>(OBB.Insts.size() - 1)),
               "original branch this copy simulates");
        Out.push_back(std::move(D));
      }
      if (CopyToOrig && RT.BranchId >= 0) {
        const size_t Idx = static_cast<size_t>(RT.BranchId);
        const int32_t MapSays =
            Idx < CopyToOrig->size() ? (*CopyToOrig)[Idx] : NoBranchId;
        if (MapSays != WantId)
          Out.push_back(makeDiag(
              Severity::Error, PassId, "map-mismatch",
              locOf(Repl, SFI, static_cast<int32_t>(RB),
                    static_cast<int32_t>(RBB.Insts.size() - 1)),
              "copy→original map sends replica id " +
                  std::to_string(RT.BranchId) + " to original id " +
                  std::to_string(MapSays) +
                  " but the simulation relation requires " +
                  std::to_string(WantId)));
      }
    }

    // Out-edge projection: both terminators have the same opcode (checked
    // above), so their successor lists align positionally.
    switch (RT.Op) {
    case Opcode::Br:
      Work.push_back({OT.TrueTarget, RT.TrueTarget});
      Work.push_back({OT.FalseTarget, RT.FalseTarget});
      break;
    case Opcode::Jmp:
      Work.push_back({OT.TrueTarget, RT.TrueTarget});
      break;
    default:
      break;
    }
  }
}

/// Pass adapter: captures the original module and checks that the module
/// the manager runs it over simulates it.
class ReplicationSoundnessPass : public Pass {
public:
  explicit ReplicationSoundnessPass(Module Original)
      : Original(std::move(Original)) {}
  const char *id() const override { return PassId; }
  const char *description() const override {
    return "the replicated module simulates its original: paired blocks "
           "run identical computations, out-edges project onto the "
           "original's, and every copy folds onto the branch it simulates";
  }
  void run(const Module &M, std::vector<Diagnostic> &Out) const override {
    std::vector<Diagnostic> Diags = checkReplicationSoundness(Original, M);
    Out.insert(Out.end(), std::make_move_iterator(Diags.begin()),
               std::make_move_iterator(Diags.end()));
  }

private:
  Module Original;
};

} // namespace

std::unique_ptr<Pass> sa::createReplicationSoundnessPass(Module Original) {
  return std::make_unique<ReplicationSoundnessPass>(std::move(Original));
}

std::vector<Diagnostic>
sa::checkReplicationSoundness(const Module &Original, const Module &Replicated,
                              const std::vector<int32_t> *CopyToOrig) {
  std::vector<Diagnostic> Out;

  if (Original.Functions.size() != Replicated.Functions.size() ||
      Original.EntryFunction != Replicated.EntryFunction)
    Out.push_back(makeDiag(
        Severity::Error, PassId, "module-shape", Location{},
        "replicated module changed the function list or entry point "
        "(functions " +
            std::to_string(Replicated.Functions.size()) + " vs " +
            std::to_string(Original.Functions.size()) + ", entry " +
            std::to_string(Replicated.EntryFunction) + " vs " +
            std::to_string(Original.EntryFunction) + ")"));
  if (Original.MemWords != Replicated.MemWords ||
      Original.InitialMemory != Replicated.InitialMemory)
    Out.push_back(makeDiag(Severity::Error, PassId, "module-shape",
                           Location{},
                           "replicated module changed the data memory "
                           "image; replication must not touch data"));

  const int32_t OrigBranchCount =
      static_cast<int32_t>(Original.conditionalBranchCount());
  const size_t NumFuncs =
      std::min(Original.Functions.size(), Replicated.Functions.size());
  for (uint32_t FI = 0; FI < NumFuncs; ++FI)
    checkFunction(Original, Replicated, FI, OrigBranchCount, CopyToOrig,
                  Out);
  return Out;
}
