//===- workloads/Registry.cpp - Workload suite registry -------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "workloads/Workload.h"

#include "interp/Interpreter.h"
#include "obs/TraceSpans.h"

#include <algorithm>
#include <cassert>

using namespace bpcr;

const std::vector<Workload> &bpcr::allWorkloads() {
  static const std::vector<Workload> Suite = {
      {"abalone", "board game employing alpha-beta search", buildAbalone},
      {"c-compiler", "lcc-style compiler front end (lexer)", buildCCompiler},
      {"compress", "LZW file compression utility", buildCompress},
      {"ghostview", "PostScript-style operator interpreter", buildGhostview},
      {"predict", "branch trace profiling/analysis tool", buildPredictTool},
      {"prolog", "backtracking constraint search", buildProlog},
      {"scheduler", "list instruction scheduler", buildScheduler},
      {"doduc", "hydrocode simulation (fixed point)", buildDoduc},
  };
  return Suite;
}

Module bpcr::buildWorkload(const std::string &Name, uint64_t Seed) {
  for (const Workload &W : allWorkloads())
    if (Name == W.Name)
      return W.Build(Seed);
  assert(false && "unknown workload name");
  return Module();
}

ColumnarTrace bpcr::traceWorkloadColumnar(const Workload &W, uint64_t Seed,
                                          Module &OutModule,
                                          uint64_t MaxBranchEvents,
                                          unsigned Jobs) {
  Span S("workload.trace", "interp");
  S.arg("workload", W.Name);
  S.arg("seed", Seed);
  OutModule = W.Build(Seed);
  uint32_t NumBranches = OutModule.assignBranchIds();
  ColumnarTrace CT;
  // The cap is an upper bound on the trace length; short workloads leave
  // slack, but one oversized reservation beats ~20 growth copies of a
  // million-event column.
  CT.reserve(static_cast<size_t>(
      std::min<uint64_t>(MaxBranchEvents, 1u << 21)));
  ExecOptions Opts;
  Opts.MaxBranchEvents = MaxBranchEvents;
  ExecResult R = executeColumnar(OutModule, CT, /*UseOrigIds=*/false, Opts);
  assert(R.Ok && "workload execution failed");
  S.arg("branch_events", R.BranchEvents);
  (void)R;
  CT.finalize(NumBranches, Jobs);
  return CT;
}
