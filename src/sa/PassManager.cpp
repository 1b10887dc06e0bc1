//===- sa/PassManager.cpp -------------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sa/Passes.h"

#include "ir/Verifier.h"
#include "obs/Metrics.h"
#include "obs/TraceSpans.h"
#include "support/ThreadPool.h"

#include <iterator>

using namespace bpcr;
using namespace bpcr::sa;

namespace {

/// Pass adapter over ir/Verifier so structural findings share the lint
/// schema and every lint run starts from well-formedness.
class VerifyPass : public Pass {
public:
  const char *id() const override { return "ir-verify"; }
  const char *description() const override {
    return "structural validity: complete blocks, in-range targets and "
           "registers, consistent call signatures, valid entry points";
  }
  void run(const Module &M, std::vector<Diagnostic> &Out) const override {
    std::vector<Diagnostic> Diags = verifyModuleDiags(M);
    Out.insert(Out.end(), std::make_move_iterator(Diags.begin()),
               std::make_move_iterator(Diags.end()));
  }
};

/// Replaces '-' with '_' so pass ids form one metric path segment each
/// ("sa.pass.use_before_def").
std::string metricSegment(const char *Id) {
  std::string Out(Id);
  for (char &C : Out)
    if (C == '-')
      C = '_';
  return Out;
}

} // namespace

std::unique_ptr<Pass> sa::createVerifyPass() {
  return std::make_unique<VerifyPass>();
}

void sa::addStandardPasses(PassManager &PM) {
  PM.add(createVerifyPass());
  PM.add(createUseBeforeDefPass());
  PM.add(createDeadCodePass());
  PM.add(createLoopShapePass());
  PM.add(createBranchHygienePass());
  PM.add(createConstPropPass());
  PM.add(createPredictabilityPass());
}

std::vector<Diagnostic> PassManager::run(const Module &M,
                                         unsigned Jobs) const {
  std::vector<Diagnostic> All;
  Registry &Reg = Registry::global();
  const bool ObsOn = Reg.enabled();
  unsigned Workers = ThreadPool::resolveJobs(Jobs);
  for (const std::unique_ptr<Pass> &P : Passes) {
    Span S(P->id(), "sa.pass");
    size_t Before = All.size();
    const FunctionPass *FP = P->asFunctionPass();
    if (FP && Workers > 1 && M.Functions.size() > 1) {
      // Per-function slots concatenated in function order: byte-identical
      // to the serial FunctionPass::run loop regardless of worker count.
      std::vector<std::vector<Diagnostic>> Slots(M.Functions.size());
      parallelForJobs(Workers, M.Functions.size(), [&](size_t F) {
        FP->runOnFunction(M, static_cast<uint32_t>(F), Slots[F]);
      });
      for (std::vector<Diagnostic> &Slot : Slots)
        All.insert(All.end(), std::make_move_iterator(Slot.begin()),
                   std::make_move_iterator(Slot.end()));
    } else {
      P->run(M, All);
    }
    S.arg("diags", static_cast<uint64_t>(All.size() - Before));
    if (ObsOn)
      Reg.gauge("sa.pass." + metricSegment(P->id()))
          .set(static_cast<double>(All.size() - Before));
  }
  if (ObsOn) {
    Reg.gauge("sa.diags.errors")
        .set(static_cast<double>(countSeverity(All, Severity::Error)));
    Reg.gauge("sa.diags.warnings")
        .set(static_cast<double>(countSeverity(All, Severity::Warning)));
    Reg.gauge("sa.diags.notes")
        .set(static_cast<double>(countSeverity(All, Severity::Note)));
  }
  return All;
}
