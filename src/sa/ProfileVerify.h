//===- sa/ProfileVerify.h - Profile realizability checking ------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profile admission gate for the streaming-ingestion north star: given
/// a module and a per-branch taken/not-taken profile, decide whether the
/// profile is *realizable* on the module's CFG before any accumulator
/// trusts it. The check is Kirchhoff flow conservation: every block is
/// entered as many times as it is left, branch counts must agree with the
/// entry counts of their successors, and the module entry function begins
/// and ends exactly EntryExecutions times.
///
/// The verifier infers block execution and edge counts from the branch
/// profile by a deterministic round-based fixpoint and reports structured
/// diagnostics (PassId "profile-verify") for every inconsistency:
///
///   count-shape            profile vector does not match the module's
///                          branch count, or events referenced unknown ids
///   unknown-branch         counts recorded for a branch id outside the
///                          module
///   unreachable-execution  a CFG-unreachable branch has nonzero counts
///   flow-mismatch          a block's inferred in-flow contradicts its
///                          branch execution count
///   entry-flow-mismatch    the entry function's entry block count is
///                          inconsistent with EntryExecutions
///   exit-flow-mismatch     the entry function returns a different number
///                          of times than it is entered
///   truncated-tail         (note) in-flow exceeds a block's branch count,
///                          which a trace cut off mid-run legitimately
///                          produces; an error instead in strict mode
///
/// Surfaced as `bpcr lint --profile TRACE` and designed to be called per
/// session by the future `bpcr serve` ingestion path.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_SA_PROFILEVERIFY_H
#define BPCR_SA_PROFILEVERIFY_H

#include "ir/Module.h"
#include "sa/Diagnostic.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace bpcr {

class ColumnarTrace;

namespace sa {

class Pass;

/// Executions of one conditional branch.
struct BranchCounts {
  uint64_t Taken = 0;
  uint64_t NotTaken = 0;
  uint64_t total() const { return Taken + NotTaken; }
};

/// A per-branch profile, indexed by BranchId.
struct BranchProfileCounts {
  std::vector<BranchCounts> Counts;
  /// Events whose branch id was negative or >= NumBranches.
  uint64_t OutOfRange = 0;

  /// Aggregates a trace into counts for a module with \p NumBranches
  /// conditional branches, walking the id column plus packed direction
  /// words. Events with ids outside [0, NumBranches) are counted in
  /// OutOfRange only. Works on unfinalized traces.
  static BranchProfileCounts fromColumnar(size_t NumBranches,
                                          const ColumnarTrace &CT);
};

struct ProfileVerifyOptions {
  /// Times the module entry function is expected to run (one per recorded
  /// trace).
  uint64_t EntryExecutions = 1;
  /// Traces are capped (the paper's 1M-branch traces); a run cut off
  /// mid-flight leaves blocks entered but not yet exited, so in-flow
  /// exceeding a block's branch count is a note by default. Strict mode
  /// turns those into flow-mismatch errors for provably complete traces.
  bool Strict = false;
};

/// Checks flow conservation of \p P against \p M. Branch ids must be
/// assigned on the module.
std::vector<Diagnostic>
verifyProfileRealizability(const Module &M, const BranchProfileCounts &P,
                           const ProfileVerifyOptions &Opts = {});

/// Pass adapter capturing the profile, for PassManager/`bpcr lint
/// --profile` integration.
std::unique_ptr<Pass> createProfileVerifyPass(BranchProfileCounts P,
                                              ProfileVerifyOptions Opts = {});

} // namespace sa
} // namespace bpcr

#endif // BPCR_SA_PROFILEVERIFY_H
