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
#include <cstdio>
#include <cstdlib>

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

size_t bpcr::traceReservation(uint64_t MaxBranchEvents) {
  return static_cast<size_t>(std::min<uint64_t>(MaxBranchEvents, 1u << 21));
}

ColumnarTrace bpcr::traceWorkloadColumnar(const Workload &W, uint64_t Seed,
                                          Module &OutModule,
                                          uint64_t MaxBranchEvents,
                                          unsigned Jobs, ExecResult *Run) {
  Span S("workload.trace", "interp");
  S.arg("workload", W.Name);
  S.arg("seed", Seed);
  OutModule = W.Build(Seed);
  uint32_t NumBranches = OutModule.assignBranchIds();
  ColumnarTrace CT;
  CT.reserve(traceReservation(MaxBranchEvents));
  ExecOptions Opts;
  Opts.MaxBranchEvents = MaxBranchEvents;
  ExecResult R = executeColumnar(OutModule, CT, /*UseOrigIds=*/false, Opts);
  if (!R.Ok && !Run) {
    // A caller that cannot hear about a failure must not get a truncated
    // trace that passes for a whole one.
    std::fprintf(stderr, "bpcr: fatal: the %s run failed: %s\n", W.Name,
                 R.Error.c_str());
    std::abort();
  }
  S.arg("branch_events", R.BranchEvents);
  if (!R.Ok)
    S.arg("error", R.Error);
  CT.finalize(NumBranches, Jobs);
  if (Run)
    *Run = std::move(R);
  return CT;
}
