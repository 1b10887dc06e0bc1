//===- bench/headline_replication.cpp - The paper's headline claim --------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// End-to-end validation of the abstract's claim: "the [misprediction rate]
// can almost be halved while the [code size] is increased by one third."
//
// For every benchmark the full pipeline runs (profile -> per-branch
// strategy selection -> code replication -> profile annotation of the
// rest), the replicated program is EXECUTED, and its realized semi-static
// misprediction rate is compared against the profile-annotated original
// (whose score follows exactly from the trace statistics). This is a real
// measurement on the transformed program, not a table-based estimate.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "core/Pipeline.h"
#include "ir/Verifier.h"
#include "obs/Metrics.h"
#include "obs/Report.h"
#include "support/TablePrinter.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace bpcr;

namespace {

/// Runs the pipeline over the suite at one size budget and prints the
/// resulting table.
void runRegime(const std::vector<WorkloadData> &Suite, double SizeBudget,
               unsigned Jobs) {
  char Title[128];
  std::snprintf(Title, sizeof(Title),
                "Headline: realized semi-static misprediction of the "
                "replicated programs (size budget %.2fx)",
                SizeBudget);
  TablePrinter Table(Title);
  Table.setHeader(suiteHeader("metric"));

  std::vector<std::string> ProfRow{"profile only (%)"};
  std::vector<std::string> ReplRow{"replicated (%)"};
  std::vector<std::string> RatioRow{"mispred ratio"};
  std::vector<std::string> SizeRow{"code size factor"};
  std::vector<std::string> LoopRow{"loop replications"};
  std::vector<std::string> JointRow{"joint replications"};
  std::vector<std::string> CorrRow{"corr replications"};

  double GeoRatio = 1.0;
  double MeanSize = 0.0;

  for (const WorkloadData &D : Suite) {
    PipelineOptions Opts;
    Opts.Strategy.MaxStates = 6;
    Opts.Strategy.NodeBudget = 30'000;
    Opts.Strategy.Jobs = Jobs;
    Opts.MaxSizeFactor = SizeBudget;
    PipelineResult PR = replicateModule(*D.M, D.T, Opts);
    if (!verifyModule(PR.Transformed).empty()) {
      std::printf("INVALID transformed module for %s\n", D.W->Name);
      std::exit(1);
    }

    const PredictionStats &Prof = PR.Baseline;
    const PredictionStats &Repl = PR.Measured;

    double Ratio = Prof.Mispredictions
                       ? static_cast<double>(Repl.Mispredictions) /
                             static_cast<double>(Prof.Mispredictions)
                       : 1.0;
    GeoRatio *= Ratio;
    MeanSize += PR.sizeFactor();

    // Per-workload trajectory gauges for the BENCH_*.json report.
    char Prefix[96];
    std::snprintf(Prefix, sizeof(Prefix), "headline.budget_%.2f.%s",
                  SizeBudget, D.W->Name);
    Registry &Obs = Registry::global();
    Obs.gauge(std::string(Prefix) + ".mispred_ratio").set(Ratio);
    Obs.gauge(std::string(Prefix) + ".mispred_pct")
        .set(Repl.mispredictionPercent());
    Obs.gauge(std::string(Prefix) + ".size_factor").set(PR.sizeFactor());
    // Concentration of the remaining misprediction cost: the share owed to
    // the single costliest branch, straight from the attribution ledger.
    if (!PR.Attribution.empty()) {
      auto Top1 = PR.Attribution.topByMispredictions(1);
      uint64_t TotalMiss = PR.Attribution.totalMispredictions();
      double Share = (TotalMiss && !Top1.empty())
                         ? static_cast<double>(Top1[0]->Mispredictions) /
                               static_cast<double>(TotalMiss)
                         : 0.0;
      Obs.gauge(std::string(Prefix) + ".top1_mispred_share").set(Share);
    }

    char Buf[32];
    ProfRow.push_back(formatPercent(Prof.mispredictionPercent()));
    ReplRow.push_back(formatPercent(Repl.mispredictionPercent()));
    std::snprintf(Buf, sizeof(Buf), "%.2f", Ratio);
    RatioRow.push_back(Buf);
    std::snprintf(Buf, sizeof(Buf), "%.2f", PR.sizeFactor());
    SizeRow.push_back(Buf);
    LoopRow.push_back(std::to_string(PR.LoopReplications));
    JointRow.push_back(std::to_string(PR.JointReplications));
    CorrRow.push_back(std::to_string(PR.CorrelatedReplications));
  }

  Table.addRow(std::move(ProfRow));
  Table.addRow(std::move(ReplRow));
  Table.addRow(std::move(RatioRow));
  Table.addSeparator();
  Table.addRow(std::move(SizeRow));
  Table.addRow(std::move(LoopRow));
  Table.addRow(std::move(JointRow));
  Table.addRow(std::move(CorrRow));
  std::printf("%s\n", Table.render().c_str());

  GeoRatio = std::pow(GeoRatio, 1.0 / static_cast<double>(Suite.size()));
  MeanSize /= static_cast<double>(Suite.size());
  std::printf("Suite geometric-mean misprediction ratio: %.2f "
              "(paper: ~0.5, 'almost halved')\n",
              GeoRatio);
  std::printf("Suite mean code size factor: %.2f (paper: ~1.33, "
              "'increased by one third')\n\n",
              MeanSize);

  char Prefix[64];
  std::snprintf(Prefix, sizeof(Prefix), "headline.budget_%.2f",
                SizeBudget);
  Registry &Obs = Registry::global();
  Obs.gauge(std::string(Prefix) + ".geomean_mispred_ratio").set(GeoRatio);
  Obs.gauge(std::string(Prefix) + ".mean_size_factor").set(MeanSize);
}

} // namespace

int main(int Argc, char **Argv) {
  BenchRunOptions Run;
  if (!parseBenchArgs(Argc, Argv, Run))
    return 2;
  // Collect phase timers, interpreter throughput and the per-workload
  // headline numbers into one machine-readable run report. The legacy
  // positional output path is kept for callers that predate --metrics.
  Registry::global().setEnabled(true);
  if (Run.MetricsOut.empty())
    Run.MetricsOut = Argc > 1 ? Argv[1] : "BENCH_headline_replication.json";

  std::vector<WorkloadData> Suite = loadSuite(Run.Seed, Run.Events, Run.Jobs);
  // The paper's regime ("code size increased by one third") and a looser
  // budget showing the remaining headroom.
  runRegime(Suite, 1.35, Run.Jobs);
  runRegime(Suite, 2.0, Run.Jobs);

  return finishBench(Run, "headline_replication");
}
