//===- examples/predictor_comparison.cpp - Predictor zoo demo -------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Runs every predictor in the library over one benchmark and prints a
// ranked comparison — including all nine Yeh/Patt two-level variants the
// paper cites.
//
//   $ ./predictor_comparison [workload] [seed]
//   $ ./predictor_comparison ghostview 7
//
//===----------------------------------------------------------------------===//

#include "predict/DynamicPredictors.h"
#include "predict/Evaluator.h"
#include "predict/SemiStaticPredictors.h"
#include "predict/StaticHeuristics.h"
#include "support/TablePrinter.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace bpcr;

int main(int argc, char **argv) {
  std::string Name = argc > 1 ? argv[1] : "ghostview";
  uint64_t Seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;

  const Workload *W = nullptr;
  for (const Workload &Cand : allWorkloads())
    if (Name == Cand.Name)
      W = &Cand;
  if (!W) {
    std::printf("unknown workload '%s'; choose one of:", Name.c_str());
    for (const Workload &Cand : allWorkloads())
      std::printf(" %s", Cand.Name);
    std::printf("\n");
    return 1;
  }

  Module M;
  ColumnarTrace T = traceWorkloadColumnar(*W, Seed, M, 1'000'000);
  std::printf("%s (seed %llu): %zu branch events, %llu static branches\n\n",
              W->Name, static_cast<unsigned long long>(Seed), T.size(),
              static_cast<unsigned long long>(M.conditionalBranchCount()));

  struct Entry {
    std::string Name;
    double Rate;
    const char *Class;
  };
  std::vector<Entry> Results;

  // Static heuristics.
  auto AddStatic = [&](const char *N, StaticPredictions (*Fn)(const Module &)) {
    Results.push_back(
        {N, evaluateStaticPredictions(Fn(M), T).mispredictionPercent(),
         "static"});
  };
  AddStatic("always taken", predictAlwaysTaken);
  AddStatic("backward taken (BTFN)", predictBackwardTaken);
  AddStatic("opcode heuristic", predictOpcode);
  AddStatic("Ball-Larus chain", predictBallLarus);

  // Dynamic predictors.
  {
    LastDirectionPredictor P;
    Results.push_back({P.name(), evaluatePredictor(P, T).mispredictionPercent(),
                       "dynamic"});
  }
  for (unsigned Bits : {1u, 2u, 3u}) {
    CounterPredictor P(Bits);
    Results.push_back({P.name(), evaluatePredictor(P, T).mispredictionPercent(),
                       "dynamic"});
  }
  for (Scope HS : {Scope::Global, Scope::Set, Scope::PerBranch})
    for (Scope PS : {Scope::Global, Scope::Set, Scope::PerBranch}) {
      TwoLevelConfig Cfg;
      Cfg.HistoryScope = HS;
      Cfg.PatternScope = PS;
      TwoLevelPredictor P(Cfg);
      Results.push_back({P.name(),
                         evaluatePredictor(P, T).mispredictionPercent(),
                         "dynamic"});
    }

  // Semi-static predictors.
  {
    ProfilePredictor P;
    Results.push_back({P.name(),
                       evaluateSelfTrained(P, T).mispredictionPercent(),
                       "semi-static"});
  }
  for (unsigned Bits : {1u, 2u, 4u}) {
    CorrelationPredictor P(Bits);
    Results.push_back({P.name(),
                       evaluateSelfTrained(P, T).mispredictionPercent(),
                       "semi-static"});
  }
  for (unsigned Bits : {1u, 4u, 9u}) {
    LoopHistoryPredictor P(Bits);
    Results.push_back({P.name(),
                       evaluateSelfTrained(P, T).mispredictionPercent(),
                       "semi-static"});
  }
  {
    LoopCorrelationPredictor P;
    Results.push_back({P.name(),
                       evaluateSelfTrained(P, T).mispredictionPercent(),
                       "semi-static"});
  }

  std::sort(Results.begin(), Results.end(),
            [](const Entry &A, const Entry &B) { return A.Rate < B.Rate; });

  TablePrinter Table("Predictors ranked by misprediction rate");
  Table.setHeader({"predictor", "class", "mispredict %"});
  for (const Entry &E : Results)
    Table.addRow({E.Name, E.Class, formatPercent(E.Rate)});
  std::printf("%s", Table.render().c_str());
  return 0;
}
