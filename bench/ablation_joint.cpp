//===- bench/ablation_joint.cpp - Ablation A4: joint loop machines --------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The paper's "Further Work" sec. 6, carried out: when several branches of
// the same loop deserve machines, per-branch replication multiplies the
// copies; a single joint machine over the loop's combined decision history
// pays once. For every workload loop with at least two improvable
// branches, both schemes run for real and the executed programs are
// compared on size and realized misprediction.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "core/JointMachine.h"
#include "core/MachineSearch.h"
#include "core/Pipeline.h"
#include "ir/Verifier.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace bpcr;

namespace {

/// Applies per-branch loop replication for \p Members sequentially (each
/// transform sees the function the previous one produced).
bool applySequential(Module &X, const std::vector<int32_t> &Members,
                     const ProfileSet &Profiles, unsigned MaxStates) {
  for (int32_t Id : Members) {
    // Locate one instance and its innermost loop in the current function.
    uint32_t FuncIdx = UINT32_MAX, BlockIdx = 0;
    for (uint32_t FI = 0; FI < X.Functions.size() && FuncIdx == UINT32_MAX;
         ++FI)
      for (uint32_t BI = 0; BI < X.Functions[FI].Blocks.size(); ++BI) {
        const BasicBlock &BB = X.Functions[FI].Blocks[BI];
        if (BB.isComplete() && BB.terminator().isConditionalBranch() &&
            BB.terminator().OrigBranchId == Id) {
          FuncIdx = FI;
          BlockIdx = BI;
          break;
        }
      }
    if (FuncIdx == UINT32_MAX)
      return false;
    Function &F = X.Functions[FuncIdx];
    CFG G(F);
    Dominators D(G);
    LoopInfo LI(G, D);
    int32_t LIdx = LI.innermostLoop(BlockIdx);
    if (LIdx < 0)
      return false;
    const Loop &L = LI.loops()[static_cast<size_t>(LIdx)];

    MachineOptions MO;
    MO.MaxStates = MaxStates;
    MO.NodeBudget = 20'000;
    SuffixMachine M = buildIntraLoopMachine(Profiles.branch(Id).Table, MO);
    applyLoopReplication(F, L.Blocks, BranchLoopMachine(M, Id));
  }
  return true;
}

/// Realized misprediction of the member branches in an annotated module.
PredictionStats measureMembers(const Module &M,
                               const std::vector<int32_t> &Members) {
  ExecOptions EO;
  EO.MaxBranchEvents = 1'000'000;
  std::vector<BranchScore> Scores;
  executeScored(M, Scores, EO);
  PredictionStats Stats;
  for (const BranchScore &S : Scores)
    if (std::find(Members.begin(), Members.end(), S.Br->OrigBranchId) !=
        Members.end()) {
      Stats.Predictions += S.Executions;
      Stats.Mispredictions += S.Mispredictions;
    }
  return Stats;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchRunOptions Run;
  if (!parseBenchArgs(Argc, Argv, Run))
    return 2;
  std::vector<WorkloadData> Suite = loadSuite(Run.Seed, Run.Events, Run.Jobs);

  TablePrinter Table("Ablation A4: per-branch (product) vs joint loop "
                     "machines — realized member misprediction % and code "
                     "size factor");
  Table.setHeader({"workload", "loop members", "profile %", "per-branch %",
                   "per-branch size", "joint %", "joint size"});

  for (const WorkloadData &D : Suite) {
    // Group improvable intra-loop branches of non-recursive functions by
    // their innermost loop.
    std::map<std::pair<uint32_t, int32_t>, std::vector<int32_t>> Groups;
    for (uint32_t Id = 0; Id < D.PA->numBranches(); ++Id) {
      const BranchClass &C = D.PA->classOf(static_cast<int32_t>(Id));
      if (C.Kind != BranchKind::IntraLoop)
        continue;
      if (D.PA->isRecursive(D.PA->ref(static_cast<int32_t>(Id)).FuncIdx))
        continue;
      const BranchProfile &P = D.LoopAware->branch(static_cast<int32_t>(Id));
      if (P.executions() < 1000)
        continue;
      MachineOptions MO;
      MO.MaxStates = 4;
      MO.NodeBudget = 20'000;
      SuffixMachine M = buildIntraLoopMachine(P.Table, MO);
      uint64_t ProfCorrect = P.executions() - P.profileMispredictions();
      if (M.Correct <= ProfCorrect)
        continue;
      Groups[{D.PA->ref(static_cast<int32_t>(Id)).FuncIdx, C.LoopIdx}]
          .push_back(static_cast<int32_t>(Id));
    }

    // Pick the group with the most members (>= 2).
    const std::vector<int32_t> *Best = nullptr;
    for (const auto &[Key, Members] : Groups)
      if (Members.size() >= 2 && (!Best || Members.size() > Best->size()))
        Best = &Members;
    if (!Best) {
      Table.addRow({D.W->Name, "-", "-", "-", "-", "-", "-"});
      continue;
    }
    const std::vector<int32_t> &Members = *Best;

    uint64_t ProfMiss = 0, Exec = 0;
    for (int32_t Id : Members) {
      ProfMiss += D.LoopAware->branch(Id).profileMispredictions();
      Exec += D.LoopAware->branch(Id).executions();
    }

    TraceStats Stats(D.PA->numBranches());
    Stats.addTrace(D.T);

    // Per-branch sequential replication (4-state machines each).
    Module Seq = *D.M;
    double SeqRate = -1, SeqSize = -1;
    if (applySequential(Seq, Members, *D.LoopAware, 4) &&
        verifyModule(Seq).empty()) {
      annotateProfilePredictions(Seq, Stats);
      SeqRate = measureMembers(Seq, Members).mispredictionPercent();
      SeqSize = static_cast<double>(Seq.instructionCount()) /
                static_cast<double>(D.M->instructionCount());
    }

    // Joint machine with as many states as the per-branch product.
    unsigned JointBudget = 1;
    for (size_t I = 0; I < Members.size(); ++I)
      JointBudget *= 4;
    JointBudget = std::min(JointBudget, 16u);
    Module Jnt = *D.M;
    double JntRate = -1, JntSize = -1;
    {
      JointProfile JP = profileJointLoop(*D.PA, Members, D.T, 4);
      JointOptions JO;
      JO.MaxStates = JointBudget;
      JO.MaxLen = 4;
      JO.NodeBudget = 50'000;
      JointLoopMachine JM = buildJointLoopMachine(Members, JP, JO);
      const BranchClass &C = D.PA->classOf(Members[0]);
      const Loop &L = D.PA->loopInfoFor(Members[0])
                          .loops()[static_cast<size_t>(C.LoopIdx)];
      uint32_t FuncIdx = D.PA->ref(Members[0]).FuncIdx;
      applyLoopReplication(Jnt.Functions[FuncIdx], L.Blocks, JM);
      if (verifyModule(Jnt).empty()) {
        annotateProfilePredictions(Jnt, Stats);
        JntRate = measureMembers(Jnt, Members).mispredictionPercent();
        JntSize = static_cast<double>(Jnt.instructionCount()) /
                  static_cast<double>(D.M->instructionCount());
      }
    }

    auto Fmt = [](double V, bool Percent) -> std::string {
      if (V < 0)
        return "-";
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), Percent ? "%.1f" : "%.2fx", V);
      return Buf;
    };
    Table.addRow({D.W->Name, std::to_string(Members.size()),
                  formatPercent(100.0 * static_cast<double>(ProfMiss) /
                                static_cast<double>(Exec)),
                  Fmt(SeqRate, true), Fmt(SeqSize, false), Fmt(JntRate, true),
                  Fmt(JntSize, false)});
  }

  std::printf("%s\n", Table.render().c_str());
  std::printf("Joint machines pay one set of copies for all member "
              "branches; per-branch machines multiply (paper sec. 6).\n\n");
  return finishBench(Run, "ablation_joint");
}
