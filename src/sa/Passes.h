//===- sa/Passes.h - Static analysis passes over the IR ---------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pass framework behind `bpcr lint` and the pipeline's self-checks: a
/// Pass analyzes one Module and appends Diagnostics; a PassManager runs a
/// registered sequence and aggregates the findings (recording `sa.*`
/// diagnostic-count gauges in the observability registry when it is
/// enabled). The standard passes:
///
///   ir-verify        structural validity (wraps ir/Verifier)
///   use-before-def   reaching-definitions dataflow: registers read on some
///                    path before any write (the interpreter zero-fills, so
///                    this is a warning, not an error)
///   dead-code        blocks unreachable from the entry and register writes
///                    no path ever reads
///   loop-shape       irreducible loops, headers without a dominating
///                    preheader, loops whose exits scatter over many blocks
///                    — the shapes that undermine LoopAwareProfiles' reset
///                    model and the loop replication transform
///   branch-hygiene   duplicate/missing branch ids and branches that can
///                    never execute but still own a profile slot
///   const-prop       interval propagation (sa/Dataflow.h): branches whose
///                    condition range excludes zero (or is exactly zero)
///                    are provably unidirectional; the pipeline folds the
///                    prediction and prunes them from the machine search
///   predictability   per-branch predictability class (proved /
///                    loop-exit-bounded / alternating / data-dependent)
///                    cross-checked against predict/StaticHeuristics
///   profile-verify   Kirchhoff flow conservation of an uploaded per-branch
///                    profile against the CFG (sa/ProfileVerify.h); needs
///                    counts, so it is registered explicitly, not standard
///
/// The replication soundness checker (sa/ReplicationSoundness.h) is the one
/// analysis that needs two modules; createReplicationSoundnessPass adapts
/// it to the single-module interface by capturing the original.
///
/// Function-local passes subclass FunctionPass; PassManager::run fans their
/// per-function work out over support/ThreadPool when given a jobs count,
/// writing diagnostics into per-function slots that are concatenated in
/// function order — the output is byte-identical to the serial run.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_SA_PASSES_H
#define BPCR_SA_PASSES_H

#include "ir/Module.h"
#include "sa/Diagnostic.h"

#include <memory>
#include <vector>

namespace bpcr {
namespace sa {

class FunctionPass;

/// One static analysis over a module.
class Pass {
public:
  virtual ~Pass() = default;

  /// Stable pass id; the PassId member of every diagnostic it emits.
  virtual const char *id() const = 0;

  /// One-line human description (SARIF rule metadata, docs).
  virtual const char *description() const = 0;

  /// Appends findings for \p M to \p Out. Must not mutate the module.
  virtual void run(const Module &M, std::vector<Diagnostic> &Out) const = 0;

  /// Non-null when the pass analyzes one function at a time and may be
  /// parallelized over functions (no RTTI in this codebase).
  virtual const FunctionPass *asFunctionPass() const { return nullptr; }
};

/// A pass whose work decomposes per function with no cross-function state.
/// run() is final: it iterates functions in index order, which is exactly
/// the order PassManager reassembles parallel per-function slots in.
class FunctionPass : public Pass {
public:
  void run(const Module &M, std::vector<Diagnostic> &Out) const final {
    for (uint32_t F = 0; F < M.Functions.size(); ++F)
      runOnFunction(M, F, Out);
  }

  /// Appends findings for function \p FuncIdx of \p M.
  virtual void runOnFunction(const Module &M, uint32_t FuncIdx,
                             std::vector<Diagnostic> &Out) const = 0;

  const FunctionPass *asFunctionPass() const override { return this; }
};

/// Runs a pass sequence and aggregates diagnostics.
class PassManager {
public:
  void add(std::unique_ptr<Pass> P) { Passes.push_back(std::move(P)); }

  const std::vector<std::unique_ptr<Pass>> &passes() const { return Passes; }

  /// Runs every pass over \p M in registration order. When the global
  /// observability registry is enabled, records per-severity gauges
  /// (sa.diags.errors/warnings/notes) and one sa.pass.<id> gauge per pass,
  /// and emits one "sa.pass"-category trace span per pass.
  ///
  /// \p Jobs is the shared --jobs knob: 0 = one worker per hardware core,
  /// 1 = serial. Function passes fan out over functions; diagnostics are
  /// reassembled in function order, so output is identical for every value.
  std::vector<Diagnostic> run(const Module &M, unsigned Jobs = 1) const;

private:
  std::vector<std::unique_ptr<Pass>> Passes;
};

// -- Standard pass factories -------------------------------------------------

std::unique_ptr<Pass> createVerifyPass();
std::unique_ptr<Pass> createUseBeforeDefPass();
std::unique_ptr<Pass> createDeadCodePass();
std::unique_ptr<Pass> createLoopShapePass();
std::unique_ptr<Pass> createBranchHygienePass();
std::unique_ptr<Pass> createConstPropPass();
std::unique_ptr<Pass> createPredictabilityPass();

/// Adapts the two-module replication soundness checker to the Pass
/// interface by capturing a copy of \p Original; running it over a module M
/// checks that M simulates Original.
std::unique_ptr<Pass> createReplicationSoundnessPass(Module Original);

/// Registers the standard single-module passes in canonical order.
void addStandardPasses(PassManager &PM);

} // namespace sa
} // namespace bpcr

#endif // BPCR_SA_PASSES_H
