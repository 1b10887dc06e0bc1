//===- examples/replication_explorer.cpp - Size/accuracy explorer ---------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Interactive-style exploration of the accuracy/size tradeoff (the paper's
// sec. 5): for one benchmark, sweep the per-branch state budget and the
// pipeline size budget, run the real replication every time, and print the
// realized misprediction rates — so one can see where the knee sits for a
// particular program.
//
//   $ ./replication_explorer [workload] [seed]
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "ir/Verifier.h"
#include "support/TablePrinter.h"
#include "trace/TraceStats.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace bpcr;

int main(int argc, char **argv) {
  std::string Name = argc > 1 ? argv[1] : "scheduler";
  uint64_t Seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;

  const Workload *W = nullptr;
  for (const Workload &Cand : allWorkloads())
    if (Name == Cand.Name)
      W = &Cand;
  if (!W) {
    std::printf("unknown workload '%s'\n", Name.c_str());
    return 1;
  }

  Module M;
  ColumnarTrace T = traceWorkloadColumnar(*W, Seed, M, 500'000);
  TraceStats Stats(static_cast<uint32_t>(M.conditionalBranchCount()));
  Stats.addTrace(T);
  PredictionStats Baseline = Stats.profilePredictions();
  std::printf("%s: profile baseline %.1f%% mispredicted (%llu instructions)"
              "\n\n",
              W->Name, Baseline.mispredictionPercent(),
              static_cast<unsigned long long>(M.instructionCount()));

  TablePrinter Table("Realized misprediction after replication, by state "
                     "budget (rows) and size budget (columns)");
  Table.setHeader({"states \\ size", "1.25x", "1.5x", "2x", "4x", "8x"});

  for (unsigned States : {2u, 3u, 4u, 6u, 8u}) {
    std::vector<std::string> Cells{std::to_string(States) + " states"};
    for (double SizeBudget : {1.25, 1.5, 2.0, 4.0, 8.0}) {
      PipelineOptions Opts;
      Opts.Strategy.MaxStates = States;
      Opts.Strategy.NodeBudget = 20'000;
      Opts.MaxSizeFactor = SizeBudget;
      PipelineResult PR = replicateModule(M, T, Opts);
      if (!verifyModule(PR.Transformed).empty()) {
        Cells.push_back("INVALID");
        continue;
      }
      char Buf[48];
      std::snprintf(Buf, sizeof(Buf), "%s (%.2fx)",
                    formatPercent(PR.Measured.mispredictionPercent()).c_str(),
                    PR.sizeFactor());
      Cells.push_back(Buf);
    }
    Table.addRow(std::move(Cells));
  }
  std::printf("%s", Table.render().c_str());
  std::printf("\nEach cell: realized misprediction %% (actual size factor "
              "reached).\n");
  return 0;
}
