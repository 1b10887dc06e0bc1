//===- ir/Module.h - IR modules ---------------------------------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A module: the unit the profiler traces and the replicator transforms. It
/// owns the functions, the initial memory image, and the assignment of
/// stable branch ids.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_IR_MODULE_H
#define BPCR_IR_MODULE_H

#include "ir/Function.h"

#include <cstdint>
#include <string>
#include <vector>

namespace bpcr {

/// Addresses a single conditional branch instruction inside a module.
struct BranchRef {
  uint32_t FuncIdx = 0;
  uint32_t BlockIdx = 0;
  uint32_t InstIdx = 0;
};

/// Largest data memory a module may declare: 2^24 words (128 MiB). The
/// interpreter allocates the whole image up front, so the loader and the
/// verifier reject anything larger (the biggest workload uses ~2^18).
constexpr uint64_t MaxMemWords = uint64_t{1} << 24;

/// A whole program: functions, entry point and data memory image.
struct Module {
  std::string Name;
  std::vector<Function> Functions;
  uint32_t EntryFunction = 0;

  /// Words of data memory available to the program (at most MaxMemWords).
  uint64_t MemWords = 0;
  /// Initial contents of the low words of memory (rest is zero).
  std::vector<int64_t> InitialMemory;

  /// Adds an empty function; \returns its index.
  uint32_t addFunction(std::string Name, uint32_t NumParams) {
    Function F;
    F.Name = std::move(Name);
    F.NumParams = NumParams;
    F.NumRegs = NumParams;
    Functions.push_back(std::move(F));
    return static_cast<uint32_t>(Functions.size() - 1);
  }

  /// Assigns sequential BranchIds to every conditional branch (in function,
  /// block, instruction order) and mirrors them into OrigBranchId when the
  /// latter is unset. \returns the number of conditional branches.
  uint32_t assignBranchIds();

  /// \returns the location of every conditional branch, indexed by BranchId.
  /// Only meaningful after assignBranchIds().
  std::vector<BranchRef> branchLocations() const;

  /// Total static instruction count across all functions.
  uint64_t instructionCount() const {
    uint64_t N = 0;
    for (const Function &F : Functions)
      N += F.instructionCount();
    return N;
  }

  /// Total static conditional branch count.
  uint64_t conditionalBranchCount() const {
    uint64_t N = 0;
    for (const Function &F : Functions)
      N += F.conditionalBranchCount();
    return N;
  }
};

} // namespace bpcr

#endif // BPCR_IR_MODULE_H
