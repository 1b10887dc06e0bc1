//===- analysis/CFG.h - Control flow graph ----------------------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Successor/predecessor lists and traversal orders for one function. The
/// paper's tool "does a control flow analysis and saves the description of
/// branches, a control flow graph and loop information"; this and LoopInfo
/// are that analysis.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_ANALYSIS_CFG_H
#define BPCR_ANALYSIS_CFG_H

#include "ir/Function.h"

#include <cstdint>
#include <vector>

namespace bpcr {

/// True when every block of \p F is complete (ends in a terminator) with
/// in-range targets: the precondition for building a CFG. Analyses over
/// untrusted modules skip functions failing this; the verifier reports
/// them.
bool isCfgBuildable(const Function &F);

/// Immutable CFG view over a function. Invalidated by any block mutation.
/// \p F must satisfy isCfgBuildable.
class CFG {
public:
  explicit CFG(const Function &F);

  uint32_t numBlocks() const {
    return static_cast<uint32_t>(Succs.size());
  }

  const std::vector<uint32_t> &successors(uint32_t Block) const {
    return Succs[Block];
  }

  const std::vector<uint32_t> &predecessors(uint32_t Block) const {
    return Preds[Block];
  }

  /// True when \p Block is reachable from the entry block.
  bool isReachable(uint32_t Block) const { return Reachable[Block]; }

  /// Blocks in reverse post order from the entry; unreachable blocks are
  /// omitted.
  const std::vector<uint32_t> &reversePostOrder() const { return RPO; }

  /// Position of \p Block in the RPO, or UINT32_MAX if unreachable.
  uint32_t rpoIndex(uint32_t Block) const { return RPOIndex[Block]; }

private:
  std::vector<std::vector<uint32_t>> Succs;
  std::vector<std::vector<uint32_t>> Preds;
  std::vector<bool> Reachable;
  std::vector<uint32_t> RPO;
  std::vector<uint32_t> RPOIndex;
};

} // namespace bpcr

#endif // BPCR_ANALYSIS_CFG_H
