//===- analysis/CFG.cpp ---------------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"

#include <algorithm>

using namespace bpcr;

bool bpcr::isCfgBuildable(const Function &F) {
  if (F.Blocks.empty())
    return false;
  for (const BasicBlock &BB : F.Blocks) {
    if (!BB.isComplete())
      return false;
    const Instruction &T = BB.terminator();
    if (T.Op == Opcode::Br &&
        (T.TrueTarget >= F.Blocks.size() || T.FalseTarget >= F.Blocks.size()))
      return false;
    if (T.Op == Opcode::Jmp && T.TrueTarget >= F.Blocks.size())
      return false;
  }
  return true;
}

CFG::CFG(const Function &F) {
  uint32_t N = static_cast<uint32_t>(F.Blocks.size());
  Succs.resize(N);
  Preds.resize(N);
  Reachable.assign(N, false);
  RPOIndex.assign(N, UINT32_MAX);

  for (uint32_t B = 0; B < N; ++B) {
    Succs[B] = F.Blocks[B].successors();
    for (uint32_t S : Succs[B])
      Preds[S].push_back(B);
  }

  if (N == 0)
    return;

  // Iterative post-order DFS from the entry block.
  std::vector<uint32_t> Post;
  Post.reserve(N);
  // Stack of (block, next successor index).
  std::vector<std::pair<uint32_t, uint32_t>> Stack;
  Stack.push_back({0, 0});
  Reachable[0] = true;
  while (!Stack.empty()) {
    auto &[B, NextSucc] = Stack.back();
    if (NextSucc < Succs[B].size()) {
      uint32_t S = Succs[B][NextSucc++];
      if (!Reachable[S]) {
        Reachable[S] = true;
        Stack.push_back({S, 0});
      }
      continue;
    }
    Post.push_back(B);
    Stack.pop_back();
  }

  RPO.assign(Post.rbegin(), Post.rend());
  for (uint32_t I = 0; I < RPO.size(); ++I)
    RPOIndex[RPO[I]] = I;
}
