//===- core/Replication.cpp -----------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Replication.h"

#include "core/ProgramAnalysis.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

using namespace bpcr;

// -- Loop replication --------------------------------------------------------

ReplicationStats
bpcr::applyLoopReplication(Function &F,
                           const std::vector<uint32_t> &LoopBlocks,
                           const LoopMachine &M) {
  ReplicationStats Out;
  std::vector<uint8_t> Reachable = M.reachableStates();
  unsigned NumStates = M.numStates();
  unsigned Init = M.initialState();

  auto InLoop = [&LoopBlocks](uint32_t B) {
    return std::binary_search(LoopBlocks.begin(), LoopBlocks.end(), B);
  };

  // CopyIdx[State][LoopPos] = block index of that state's copy. The
  // original blocks are the initial-state copy.
  std::vector<std::vector<uint32_t>> CopyIdx(
      NumStates, std::vector<uint32_t>(LoopBlocks.size(), UINT32_MAX));
  for (size_t P = 0; P < LoopBlocks.size(); ++P)
    CopyIdx[Init][P] = LoopBlocks[P];

  for (unsigned S = 0; S < NumStates; ++S) {
    if (S == Init || !Reachable[S])
      continue;
    for (size_t P = 0; P < LoopBlocks.size(); ++P) {
      BasicBlock Clone = F.Blocks[LoopBlocks[P]];
      Clone.Name += '@';
      Clone.Name += M.copyTag();
      Clone.Name += std::to_string(S);
      CopyIdx[S][P] = static_cast<uint32_t>(F.Blocks.size());
      F.Blocks.push_back(std::move(Clone));
      ++Out.BlocksAdded;
    }
  }

  auto LoopPos = [&LoopBlocks](uint32_t B) {
    return static_cast<size_t>(
        std::lower_bound(LoopBlocks.begin(), LoopBlocks.end(), B) -
        LoopBlocks.begin());
  };

  // Rewire every copy (the originals included, as the initial state).
  for (unsigned S = 0; S < NumStates; ++S) {
    if (!Reachable[S])
      continue;
    for (size_t P = 0; P < LoopBlocks.size(); ++P) {
      BasicBlock &BB = F.Blocks[CopyIdx[S][P]];
      if (!BB.isComplete())
        continue;
      Instruction &T = BB.terminator();

      auto Retarget = [&](uint32_t Old, unsigned NextState) {
        if (!InLoop(Old))
          return Old;
        return CopyIdx[NextState][LoopPos(Old)];
      };

      if (T.Op == Opcode::Jmp) {
        T.TrueTarget = Retarget(T.TrueTarget, S);
        continue;
      }
      if (!T.isConditionalBranch())
        continue;

      if (int MI = M.memberIndex(T.OrigBranchId); MI >= 0) {
        // A member branch drives the state transitions and carries the
        // state's prediction.
        T.TrueTarget = Retarget(T.TrueTarget, M.next(S, MI, true));
        T.FalseTarget = Retarget(T.FalseTarget, M.next(S, MI, false));
        T.Predicted = M.predictTaken(S, MI) ? Prediction::Taken
                                            : Prediction::NotTaken;
      } else {
        T.TrueTarget = Retarget(T.TrueTarget, S);
        T.FalseTarget = Retarget(T.FalseTarget, S);
      }
    }
  }

  for (uint8_t R : Reachable)
    Out.StatesMaterialized += R;
  Out.BlocksPruned = pruneUnreachableBlocks(F);
  Out.Applied = true;
  return Out;
}

// -- Correlated replication --------------------------------------------------

namespace {

/// A trie over the selected paths, keyed oldest decision first. Each node
/// owns one copy of the block *chain* that control traverses after taking
/// the node's last decision: any jump-only pass-through blocks followed by
/// the block where the next decision happens (for full paths that final
/// block is the target branch's block itself). Cloning the jump chains is
/// what Mueller/Whalley's replication does for unconditional jumps.
struct PrefixNode {
  std::vector<PathStep> Prefix;
  /// Blocks this node clones: pass-throughs then the decision block.
  std::vector<uint32_t> SourceChain;
  /// The created clones, aligned with SourceChain.
  std::vector<uint32_t> CloneChain;
  std::map<std::pair<int32_t, bool>, size_t> Children;
};

/// Finds the unique block whose terminator is the (pre-pass) instance of
/// \p OrigId; returns UINT32_MAX when absent or ambiguous.
uint32_t findBranchBlock(const Function &F, int32_t OrigId, uint32_t Limit) {
  uint32_t Found = UINT32_MAX;
  for (uint32_t B = 0; B < Limit; ++B) {
    const BasicBlock &BB = F.Blocks[B];
    if (!BB.isComplete())
      continue;
    const Instruction &T = BB.terminator();
    if (T.isConditionalBranch() && T.OrigBranchId == OrigId) {
      if (Found != UINT32_MAX)
        return UINT32_MAX; // ambiguous (already replicated elsewhere)
      Found = B;
    }
  }
  return Found;
}

/// Follows \p Start through jump-only blocks until a block ending in a
/// conditional branch or return; returns the traversed chain (Start first,
/// decision/ret block last), or empty on a jump cycle.
std::vector<uint32_t> jumpChainFrom(const Function &F, uint32_t Start) {
  std::vector<uint32_t> Chain;
  uint32_t Cur = Start;
  for (unsigned Guard = 0; Guard < 64; ++Guard) {
    Chain.push_back(Cur);
    const BasicBlock &BB = F.Blocks[Cur];
    if (!BB.isComplete())
      return {};
    const Instruction &T = BB.terminator();
    if (T.Op != Opcode::Jmp)
      return Chain;
    Cur = T.TrueTarget;
  }
  return {}; // jump cycle: not materializable
}

} // namespace

ReplicationStats
bpcr::applyCorrelatedReplication(Function &F, int32_t TargetOrigId,
                                 const CorrelatedMachine &M) {
  ReplicationStats Out;
  const uint32_t PreBlocks = static_cast<uint32_t>(F.Blocks.size());

  uint32_t TargetBlock = findBranchBlock(F, TargetOrigId, PreBlocks);
  if (TargetBlock == UINT32_MAX)
    return Out; // absent or already multiply instantiated: skip

  // Build the prefix trie over the selected paths.
  std::vector<PrefixNode> Nodes(1); // node 0 = empty prefix (virtual root)
  for (const BranchPath &P : M.Paths) {
    size_t Cur = 0;
    for (const PathStep &S : P.Steps) {
      auto Key = std::make_pair(S.BranchId, S.Taken);
      auto It = Nodes[Cur].Children.find(Key);
      if (It == Nodes[Cur].Children.end()) {
        PrefixNode N;
        N.Prefix = Nodes[Cur].Prefix;
        N.Prefix.push_back(S);
        Nodes.push_back(std::move(N));
        It = Nodes[Cur]
                 .Children.emplace(Key, Nodes.size() - 1)
                 .first;
      }
      Cur = It->second;
    }
  }
  if (Nodes.size() == 1)
    return Out; // no paths selected

  // Resolve each node's source chain: the jump pass-throughs and the next
  // decision block reached after taking the prefix's last decision, all in
  // the pre-pass graph.
  for (size_t NI = 1; NI < Nodes.size(); ++NI) {
    PrefixNode &N = Nodes[NI];
    const PathStep &Last = N.Prefix.back();
    uint32_t DecisionBlock = findBranchBlock(F, Last.BranchId, PreBlocks);
    if (DecisionBlock == UINT32_MAX)
      return Out; // cannot locate the path branch uniquely: skip transform
    const Instruction &T = F.Blocks[DecisionBlock].terminator();
    N.SourceChain =
        jumpChainFrom(F, Last.Taken ? T.TrueTarget : T.FalseTarget);
    if (N.SourceChain.empty())
      return Out; // jump cycle: skip transform
  }

  // Create clones, children before parents so a parent's chain edge can
  // point at the child clone. Process by decreasing prefix length.
  std::vector<size_t> Order;
  for (size_t NI = 1; NI < Nodes.size(); ++NI)
    Order.push_back(NI);
  std::sort(Order.begin(), Order.end(), [&Nodes](size_t A, size_t B) {
    return Nodes[A].Prefix.size() > Nodes[B].Prefix.size();
  });

  // Chain edges that must not be re-redirected by the root rewiring below:
  // (block, direction) pairs.
  std::set<std::pair<uint32_t, bool>> Locked;

  for (size_t NI : Order) {
    PrefixNode &N = Nodes[NI];
    // Clone the whole chain; intra-chain jumps link clone to clone.
    N.CloneChain.resize(N.SourceChain.size());
    for (size_t CI = N.SourceChain.size(); CI-- > 0;) {
      BasicBlock Clone = F.Blocks[N.SourceChain[CI]];
      Clone.Name += "@p" + std::to_string(NI);
      uint32_t CloneIdx = static_cast<uint32_t>(F.Blocks.size());

      if (CI + 1 < N.SourceChain.size()) {
        // Pass-through block: retarget its jump to the next chain clone.
        assert(Clone.isComplete() && Clone.terminator().Op == Opcode::Jmp &&
               "chain interior must be jump blocks");
        Clone.terminator().TrueTarget = N.CloneChain[CI + 1];
      } else if (Clone.isComplete() &&
                 Clone.terminator().isConditionalBranch()) {
        // Decision block: wire its edges toward the children's chains.
        Instruction &T = Clone.terminator();
        for (const auto &[Key, ChildIdx] : N.Children) {
          if (T.OrigBranchId != Key.first)
            continue; // path deviates from CFG: child unreachable, harmless
          uint32_t ChildClone = Nodes[ChildIdx].CloneChain.front();
          if (Key.second)
            T.TrueTarget = ChildClone;
          else
            T.FalseTarget = ChildClone;
          Locked.insert({CloneIdx, Key.second});
        }
        // Annotate target-branch clones with the machine prediction for
        // the longest selected suffix of this node's context.
        if (T.OrigBranchId == TargetOrigId)
          T.Predicted = M.predictFor(N.Prefix) ? Prediction::Taken
                                               : Prediction::NotTaken;
      }

      N.CloneChain[CI] = CloneIdx;
      F.Blocks.push_back(std::move(Clone));
      ++Out.BlocksAdded;
    }
  }

  // Root rewiring: every instance of a root decision (a, e) sends its
  // e-edge into the root's chain — except edges locked as chain internals.
  for (const auto &[Key, RootIdx] : Nodes[0].Children) {
    uint32_t RootClone = Nodes[RootIdx].CloneChain.front();
    for (uint32_t B = 0; B < F.Blocks.size(); ++B) {
      BasicBlock &BB = F.Blocks[B];
      if (!BB.isComplete())
        continue;
      Instruction &T = BB.terminator();
      if (!T.isConditionalBranch() || T.OrigBranchId != Key.first)
        continue;
      if (Locked.count({B, Key.second}))
        continue;
      if (Key.second)
        T.TrueTarget = RootClone;
      else
        T.FalseTarget = RootClone;
    }
  }

  // The original target block is the catch-all state.
  {
    Instruction &T = F.Blocks[TargetBlock].terminator();
    if (T.isConditionalBranch() && T.OrigBranchId == TargetOrigId)
      T.Predicted =
          M.DefaultPred ? Prediction::Taken : Prediction::NotTaken;
  }

  Out.StatesMaterialized = M.numStates();
  Out.BlocksPruned = pruneUnreachableBlocks(F);
  Out.Applied = true;
  return Out;
}

// -- Utilities ---------------------------------------------------------------

uint32_t bpcr::pruneUnreachableBlocks(Function &F) {
  uint32_t N = static_cast<uint32_t>(F.Blocks.size());
  std::vector<bool> Reach(N, false);
  std::vector<uint32_t> Work{0};
  if (N == 0)
    return 0;
  Reach[0] = true;
  while (!Work.empty()) {
    uint32_t B = Work.back();
    Work.pop_back();
    if (!F.Blocks[B].isComplete())
      continue;
    for (uint32_t S : F.Blocks[B].successors())
      if (!Reach[S]) {
        Reach[S] = true;
        Work.push_back(S);
      }
  }

  std::vector<uint32_t> Remap(N, UINT32_MAX);
  uint32_t Next = 0;
  for (uint32_t B = 0; B < N; ++B)
    if (Reach[B])
      Remap[B] = Next++;
  if (Next == N)
    return 0;

  std::vector<BasicBlock> Kept;
  Kept.reserve(Next);
  for (uint32_t B = 0; B < N; ++B) {
    if (!Reach[B])
      continue;
    BasicBlock BB = std::move(F.Blocks[B]);
    if (BB.isComplete()) {
      Instruction &T = BB.terminator();
      if (T.Op == Opcode::Br) {
        T.TrueTarget = Remap[T.TrueTarget];
        T.FalseTarget = Remap[T.FalseTarget];
      } else if (T.Op == Opcode::Jmp) {
        T.TrueTarget = Remap[T.TrueTarget];
      }
    }
    Kept.push_back(std::move(BB));
  }
  F.Blocks = std::move(Kept);
  return N - Next;
}

uint64_t bpcr::loopInstructionCount(const Function &F, const Loop &L) {
  uint64_t N = 0;
  for (uint32_t B : L.Blocks)
    N += F.Blocks[B].Insts.size();
  return N;
}

uint64_t bpcr::loopCopyCost(uint64_t LoopSize, uint64_t States) {
  return LoopSize * (States > 1 ? States - 1 : 1);
}

uint64_t bpcr::correlatedReplicationCost(const CorrelatedMachine &M,
                                         const ProgramAnalysis &PA) {
  const Module &Mod = PA.module();
  const BranchRef &XR = PA.ref(M.BranchId);
  const uint64_t TargetSize =
      Mod.Functions[XR.FuncIdx].Blocks[XR.BlockIdx].Insts.size();
  uint64_t Cost = 0;
  for (const BranchPath &P : M.Paths) {
    Cost += TargetSize;
    for (size_t I = 1; I < P.Steps.size(); ++I) {
      const BranchRef &R = PA.ref(P.Steps[I].BranchId);
      Cost += Mod.Functions[R.FuncIdx].Blocks[R.BlockIdx].Insts.size();
    }
  }
  return Cost;
}

void bpcr::annotateProfilePredictions(Module &M, const TraceStats &Stats) {
  for (Function &F : M.Functions)
    for (BasicBlock &BB : F.Blocks)
      for (Instruction &I : BB.Insts) {
        if (!I.isConditionalBranch() || I.Predicted != Prediction::Unknown)
          continue;
        if (I.OrigBranchId < 0 ||
            static_cast<uint32_t>(I.OrigBranchId) >= Stats.numBranches())
          continue;
        I.Predicted = Stats.branch(I.OrigBranchId).majorityTaken()
                          ? Prediction::Taken
                          : Prediction::NotTaken;
      }
}

PredictionStats bpcr::measureAnnotatedPredictions(const Module &M,
                                                  const ExecOptions &Opts) {
  std::vector<BranchScore> Scores;
  executeScored(M, Scores, Opts);
  PredictionStats Stats;
  for (const BranchScore &S : Scores) {
    Stats.Predictions += S.Executions;
    Stats.Mispredictions += S.Mispredictions;
  }
  return Stats;
}

std::vector<ReplicaMeasurement>
bpcr::measureAnnotatedPerReplica(const Module &M, const ExecOptions &Opts,
                                 TraceSink *Extra) {
  std::vector<BranchScore> Scores;
  executeScored(M, Scores, Opts, Extra);
  // Fold the per-instruction counts onto branch ids (ids are unique after
  // assignBranchIds; a repeated id sums its instructions).
  std::vector<ReplicaMeasurement> Copies;
  for (const BranchScore &S : Scores) {
    if (S.Br->BranchId < 0 || S.Executions == 0)
      continue;
    size_t Idx = static_cast<size_t>(S.Br->BranchId);
    if (Idx >= Copies.size())
      Copies.resize(Idx + 1);
    ReplicaMeasurement &C = Copies[Idx];
    C.OrigBranchId = S.Br->OrigBranchId;
    C.ReplicaId = S.Br->BranchId;
    C.Executions += S.Executions;
    C.Mispredictions += S.Mispredictions;
  }
  std::vector<ReplicaMeasurement> Out;
  for (const ReplicaMeasurement &C : Copies)
    if (C.Executions > 0)
      Out.push_back(C);
  std::sort(Out.begin(), Out.end(),
            [](const ReplicaMeasurement &A, const ReplicaMeasurement &B) {
              if (A.OrigBranchId != B.OrigBranchId)
                return A.OrigBranchId < B.OrigBranchId;
              return A.ReplicaId < B.ReplicaId;
            });
  return Out;
}
