//===- bench/BenchCommon.cpp ----------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "obs/Ledger.h"
#include "obs/Metrics.h"
#include "obs/Report.h"
#include "obs/TraceSpans.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace bpcr;

std::vector<WorkloadData> bpcr::loadSuite(uint64_t Seed, uint64_t MaxEvents,
                                          unsigned Jobs) {
  const std::vector<Workload> &Suite = allWorkloads();
  std::vector<WorkloadData> Out(Suite.size());
  // Each workload's trace+analysis pipeline is independent; slots are
  // indexed by suite position, so the output order never depends on the
  // worker count.
  parallelForJobs(Jobs, Suite.size(), [&](size_t I) {
    const Workload &W = Suite[I];
    WorkloadData D;
    D.W = &W;
    D.M = std::make_unique<Module>();
    D.T = traceWorkloadColumnar(W, Seed, *D.M, MaxEvents);
    D.PA = std::make_unique<ProgramAnalysis>(*D.M);
    D.Plain = std::make_unique<ProfileSet>(D.PA->numBranches());
    D.Plain->addTrace(D.T);
    D.LoopAware =
        std::make_unique<ProfileSet>(buildLoopAwareProfiles(*D.PA, D.T));
    D.Stats = std::make_unique<TraceStats>(D.PA->numBranches());
    D.Stats->addTrace(D.T);
    Out[I] = std::move(D);
  });
  return Out;
}

std::vector<std::string> bpcr::suiteHeader(const std::string &RowLabel) {
  std::vector<std::string> H{RowLabel};
  for (const Workload &W : allWorkloads())
    H.push_back(W.Name);
  return H;
}

bool bpcr::parseBenchArgs(int &Argc, char **Argv, BenchRunOptions &Opts,
                          bool KeepUnknown) {
  std::string Error;
  if (!extractTraceOutFlag(Argc, Argv, Opts.TraceOut, Error)) {
    std::fprintf(stderr, "%s: error: %s\n", Argv[0], Error.c_str());
    return false;
  }

  auto ParseU64 = [](const char *V, uint64_t &Out) {
    char *End = nullptr;
    Out = std::strtoull(V, &End, 10);
    return *V != '\0' && End && *End == '\0';
  };

  int Kept = 1;
  for (int I = 1; I < Argc; ++I) {
    const char *Opt = Argv[I];
    auto Next = [&]() -> const char * {
      return (I + 1 < Argc) ? Argv[++I] : nullptr;
    };
    if (std::strcmp(Opt, "--seed") == 0) {
      const char *V = Next();
      if (!V || !ParseU64(V, Opts.Seed)) {
        std::fprintf(stderr,
                     "%s: error: option '--seed' needs an integer value\n",
                     Argv[0]);
        return false;
      }
    } else if (std::strcmp(Opt, "--events") == 0) {
      const char *V = Next();
      if (!V || !ParseU64(V, Opts.Events)) {
        std::fprintf(stderr,
                     "%s: error: option '--events' needs an integer value\n",
                     Argv[0]);
        return false;
      }
      Opts.EventsSet = true;
    } else if (std::strcmp(Opt, "--jobs") == 0) {
      const char *V = Next();
      uint64_t Jobs = 0;
      if (!V || !ParseU64(V, Jobs) || Jobs == 0 || Jobs > 1024) {
        std::fprintf(stderr,
                     "%s: error: option '--jobs' needs an integer value "
                     "between 1 and 1024\n",
                     Argv[0]);
        return false;
      }
      Opts.Jobs = static_cast<unsigned>(Jobs);
    } else if (std::strcmp(Opt, "--metrics") == 0) {
      const char *V = Next();
      if (!V) {
        std::fprintf(stderr,
                     "%s: error: option '--metrics' needs a file argument\n",
                     Argv[0]);
        return false;
      }
      Opts.MetricsOut = V;
    } else if (std::strcmp(Opt, "--ledger") == 0) {
      const char *V = Next();
      if (!V) {
        std::fprintf(stderr,
                     "%s: error: option '--ledger' needs a file argument\n",
                     Argv[0]);
        return false;
      }
      Opts.LedgerOut = V;
    } else if (Opt[0] == '-' && Opt[1] == '-') {
      if (KeepUnknown) {
        // Forwarded verbatim (google-benchmark flags like
        // --benchmark_filter carry their value after '=').
        Argv[Kept++] = Argv[I];
        continue;
      }
      std::fprintf(stderr, "%s: error: unknown option '%s'\n", Argv[0], Opt);
      return false;
    } else {
      // Positional argument (e.g. headline_replication's output path):
      // leave it for the caller.
      Argv[Kept++] = Argv[I];
    }
  }
  Argc = Kept;

  // Environment fallbacks let CI arm every bench invocation of a job
  // without threading flags through each runner's command line.
  if (Opts.MetricsOut.empty())
    if (const char *Env = std::getenv("BPCR_METRICS_OUT"))
      Opts.MetricsOut = Env;
  if (Opts.LedgerOut.empty())
    if (const char *Env = std::getenv("BPCR_LEDGER_OUT"))
      Opts.LedgerOut = Env;

  if (!Opts.MetricsOut.empty() || !Opts.LedgerOut.empty())
    Registry::global().setEnabled(true);
  return true;
}

int bpcr::finishBench(const BenchRunOptions &Opts, const char *Tool,
                      const char *Command, const char *Workload) {
  int RC = 0;
  if (!Opts.MetricsOut.empty() || !Opts.LedgerOut.empty()) {
    ReportMeta Meta;
    Meta.Tool = Tool;
    Meta.Command = Command;
    Meta.Workload = Workload;
    Meta.Seed = Opts.Seed;
    Meta.Events = Opts.Events;
    JsonValue Doc = buildReport(Meta, Registry::global());
    std::string Error;
    if (!Opts.MetricsOut.empty()) {
      if (!writeReportFile(Opts.MetricsOut, Doc, Error)) {
        std::fprintf(stderr, "%s: error: %s\n", Tool, Error.c_str());
        RC = 1;
      } else {
        std::printf("wrote metrics to %s\n", Opts.MetricsOut.c_str());
      }
    }
    if (!Opts.LedgerOut.empty()) {
      LedgerMeta LM = currentLedgerMeta();
      LM.Jobs = Opts.Jobs;
      if (!appendReportToLedger(Opts.LedgerOut, Doc, LM, Error)) {
        std::fprintf(stderr, "%s: error: %s\n", Tool, Error.c_str());
        RC = 1;
      } else {
        std::printf("appended run record to %s\n", Opts.LedgerOut.c_str());
      }
    }
  }
  if (!Opts.TraceOut.empty()) {
    int TraceRC = finishSpanTrace(Opts.TraceOut, Tool);
    if (RC == 0)
      RC = TraceRC;
  }
  return RC;
}
