//===- tools/bpcr.cpp - Command line driver -------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The library's command-line face, mirroring the paper's tooling (a tracer
// that writes branch traces plus an analyzer that turns them into tables):
//
//   bpcr list
//   bpcr dump <workload> [--seed N]
//   bpcr trace <workload> [--seed N] [--events N] [-o trace.bpct]
//   bpcr analyze <workload> [--seed N] [--events N]
//   bpcr replicate <workload> [--seed N] [--states N] [--budget X] [--dump]
//   bpcr report <workload> [--seed N] [--events N] [--states N] [--budget X]
//   bpcr sweep <workload> [--seed N] [--events N] [--states N] [--budget X]
//   bpcr explain <workload> [--top N] [--branch ID] [--format table|csv|json]
//                [--annotate]
//   bpcr timeline <workload> [--window N] [--branch ID] [--phases]
//                [--format table|csv|json] [--timeline-out FILE]
//   bpcr profile <replicate|report|sweep|timeline|lint> <workload>
//                [--format table|json] [--profile-out FILE] [--flame-out FILE]
//   bpcr lint <workload|module-file> [--seed N] [--format table|json|sarif]
//             [--fail-on warning|error] [--replicate] [--jobs N]
//             [--baseline FILE] [--profile TRACE]
//   bpcr compare OLD.json NEW.json [--threshold-file FILE]
//                [--format table|json]
//
// `trace`, `analyze`, `replicate`, `report`, `explain` and `timeline`
// accept --metrics FILE to write a machine-readable JSON run report (schema
// in docs/OBSERVABILITY.md); `report` prints the same data as tables.
// `explain` renders the misprediction attribution ledger: the Pareto table
// of the costliest branches, the per-branch selection reconstruction
// (--branch), and prediction-annotated IR (--annotate). `timeline` renders
// the windowed misprediction series of the transformed module's measurement
// run, its change-point phase segmentation (--phases) or one branch's
// series (--branch). Every command accepts --trace-out FILE to export a
// span timeline in Chrome Trace Event Format; pipeline runs merge the
// windowed misprediction rate into it as counter tracks. `compare` diffs
// two run reports and exits non-zero when a metric crosses its threshold —
// the CI perf-regression gate. `sweep` prints the greedy
// misprediction-vs-size curve (figures 6-13) for one workload; its output
// contains no timings, so it is byte-identical for every --jobs value —
// the determinism test relies on that, and `timeline` output holds to the
// same contract.
//
// The searching commands (replicate/report/explain/timeline/sweep and lint
// --replicate) accept --jobs N to fan the per-branch machine searches over
// a worker pool. Results never depend on the worker count.
//
// `lint` runs the static-analysis pass pipeline (including the const-prop
// proof engine and the predictability classifier) over a workload or a
// serialized module. --profile TRACE additionally admits a recorded branch
// trace through the profile-realizability verifier (Kirchhoff flow
// conservation against the CFG). --baseline FILE suppresses known findings:
// a missing file is written from the current findings (record mode), an
// existing one filters them and warns about stale entries. Lint output is
// deterministic and byte-identical for every --jobs value.
//
// `profile` wraps one of replicate/report/sweep/timeline/lint with the
// self-profiler armed and appends the collected profile (per-category
// self-vs-total span times, RSS and allocation accounting, pool.*
// utilization); --profile-out writes it as JSON and --flame-out writes a
// collapsed-stack flamegraph derived from the span tree. Its --format
// selects the profile rendering; the wrapped command keeps its default
// output.
//
//===----------------------------------------------------------------------===//

#include "core/LoopAwareProfiles.h"
#include "core/Pipeline.h"
#include "core/SizeSweep.h"
#include "core/TraceProfiles.h"
#include "ir/Printer.h"
#include "ir/Serializer.h"
#include "ir/Verifier.h"
#include "obs/Compare.h"
#include "obs/Ledger.h"
#include "obs/Metrics.h"
#include "obs/Profiler.h"
#include "obs/Report.h"
#include "obs/TimeSeries.h"
#include "obs/TraceSpans.h"
#include "obs/Trend.h"
#include "obs/Sarif.h"
#include "predict/DynamicPredictors.h"
#include "predict/Evaluator.h"
#include "predict/SemiStaticPredictors.h"
#include "support/TablePrinter.h"
#include "sa/Baseline.h"
#include "sa/Passes.h"
#include "sa/ProfileVerify.h"
#include "sa/ReplicationSoundness.h"
#include "trace/ColumnarTrace.h"
#include "trace/TraceFile.h"
#include "workloads/Workload.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace bpcr;

namespace {

struct Args {
  std::string Command;
  std::string Target;
  uint64_t Seed = 1;
  uint64_t Events = 1'000'000;
  unsigned States = 6;
  double Budget = 2.0;
  /// Worker threads for the machine searches (0 = one per hardware core).
  /// The command line only accepts >= 1; 0 is the programmatic default.
  unsigned Jobs = 0;
  bool BudgetSet = false;
  bool Dump = false;
  std::string Output;
  std::string Metrics;
  // explain options (Top also sizes the report's "branches" section).
  uint64_t Top = 10;
  int64_t Branch = -1;
  std::string Format = "table";
  bool Annotate = false;
  // timeline options.
  uint64_t Window = 0;
  bool Phases = false;
  std::string TimelineOut;
  // compare-only positionals and options.
  std::string CompareOld;
  std::string CompareNew;
  std::string ThresholdFile;
  // trend options (Ledger and Last are shared with compare --ledger).
  std::string Ledger;
  uint64_t Last = 0;
  std::string MetricGlob = "*";
  bool Sparkline = false;
  // lint options.
  std::string FailOn = "error";
  bool Replicate = false;
  std::string BaselinePath;
  std::string LintProfile;
  // profile options (the wrapped command and the artifact paths).
  std::string ProfileInner;
  std::string ProfileOut;
  std::string FlameOut;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: bpcr <command> [options]\n"
      "\n"
      "commands:\n"
      "  list                         list the benchmark workloads\n"
      "  dump <workload>              print the workload's IR\n"
      "  trace <workload>             run and write a branch trace\n"
      "  analyze <workload>           per-branch statistics and prediction\n"
      "                               rates\n"
      "  replicate <workload>         run the full replication pipeline\n"
      "  report <workload>            phase timings and per-branch\n"
      "                               replication decisions\n"
      "  sweep <workload>             greedy misprediction-vs-size curve\n"
      "                               (figures 6-13; deterministic output,\n"
      "                               byte-identical for every --jobs)\n"
      "  explain <workload>           misprediction attribution: Pareto\n"
      "                               table of the costliest branches, or\n"
      "                               one branch's selection decision\n"
      "  timeline <workload>          windowed misprediction time series of\n"
      "                               the replicated program, with phase\n"
      "                               segmentation (deterministic output,\n"
      "                               byte-identical for every --jobs)\n"
      "  profile <cmd> <workload>     run replicate/report/sweep/timeline/\n"
      "                               lint with the self-profiler armed and\n"
      "                               append the profile: per-category\n"
      "                               self-vs-total span times (wall + CPU),\n"
      "                               RSS/allocation accounting, pool\n"
      "                               utilization\n"
      "  lint <workload|module-file>  run the static-analysis passes and\n"
      "                               report diagnostics (exit 1 when any\n"
      "                               reach the --fail-on severity)\n"
      "  compare OLD.json NEW.json    diff two run reports and gate the\n"
      "                               deltas. exit codes: 0 all gates\n"
      "                               passed, 1 at least one metric\n"
      "                               regressed, 2 unreadable report or\n"
      "                               schema mismatch. With --ledger FILE,\n"
      "                               takes one NEW.json and gates it\n"
      "                               against the rolling median +- k*MAD\n"
      "                               band of the ledger history instead\n"
      "                               of a single baseline file\n"
      "  trend                        cross-run trend analytics over a run\n"
      "                               ledger (--ledger FILE): per-metric\n"
      "                               rolling median/MAD bands, outlier\n"
      "                               runs, and step changes found by the\n"
      "                               change-point detector across runs.\n"
      "                               exit codes: 0 clean, 1 latest run is\n"
      "                               an outlier on a gated metric, 2 step\n"
      "                               regression or unreadable ledger\n"
      "\n"
      "options:\n"
      "  --seed N       workload input seed (default 1)\n"
      "  --events N     branch-event cap (default 1000000)\n"
      "  --states N     per-branch state budget for replicate (default 6)\n"
      "  --budget X     code-size factor budget for replicate (default 2.0;\n"
      "                 sweep default 16.0)\n"
      "  --jobs N       worker threads for the machine searches (replicate/\n"
      "                 report/explain/timeline/sweep/lint; default: one\n"
      "                 per hardware core). Results never depend on N\n"
      "  --dump         also print the transformed IR (replicate)\n"
      "  --top N        Pareto entries to show/report (explain/report/\n"
      "                 timeline, default 10)\n"
      "  --branch ID    explain one branch's strategy selection in detail,\n"
      "                 or show one branch's windowed series (timeline)\n"
      "  --window N     timeline window width in branch events (power of\n"
      "                 two between 16 and 67108864; default 1024). When\n"
      "                 the run outgrows the window budget, adjacent\n"
      "                 windows merge and the width doubles\n"
      "  --phases       timeline also prints the detected phases and the\n"
      "                 per-phase split of the top branches (conflicts\n"
      "                 with --branch)\n"
      "  --format F     output format: table (default), csv, or json\n"
      "                 (explain/timeline; report and sweep accept table\n"
      "                 and csv; compare accepts table and json; lint\n"
      "                 accepts table, json and sarif; profile accepts\n"
      "                 table and json, applied to the profile rendering)\n"
      "  --fail-on S    lint severity threshold for exit code 1: warning\n"
      "                 or error (default error)\n"
      "  --replicate    lint also runs the replication pipeline and checks\n"
      "                 the transformed module's simulation relation\n"
      "                 (workload targets only)\n"
      "  --baseline FILE\n"
      "                 lint known-findings baseline. Missing file: record\n"
      "                 the current findings and exit 0. Existing file:\n"
      "                 suppress matching findings; entries matching\n"
      "                 nothing raise lint-baseline.stale-entry warnings\n"
      "  --profile TRACE\n"
      "                 lint also verifies the recorded branch trace\n"
      "                 (.bpct) is flow-realizable on the target's CFG\n"
      "                 (profile-verify pass; see docs/STATIC_ANALYSIS.md)\n"
      "  --annotate     print the transformed IR with per-branch strategy\n"
      "                 and measured miss-rate annotations (explain)\n"
      "  --metrics FILE write a JSON run report (trace/analyze/replicate/\n"
      "                 report/sweep/explain/timeline)\n"
      "  --timeline-out FILE\n"
      "                 write the timeline document as JSON (timeline)\n"
      "  --trace-out FILE\n"
      "                 write a span timeline (Chrome Trace Format JSON,\n"
      "                 loadable in Perfetto / chrome://tracing); pipeline\n"
      "                 runs add windowed miss-rate counter tracks\n"
      "  --profile-out FILE\n"
      "                 write the collected profile as JSON (profile)\n"
      "  --flame-out FILE\n"
      "                 write a collapsed-stack flamegraph (speedscope,\n"
      "                 flamegraph.pl) derived from the span tree (profile)\n"
      "  --threshold-file FILE\n"
      "                 relative-delta thresholds for compare and trend\n"
      "                 (JSON; see docs/OBSERVABILITY.md)\n"
      "  --ledger FILE  run ledger (JSONL, appended by the bench runners;\n"
      "                 see docs/OBSERVABILITY.md) to analyze (trend) or\n"
      "                 gate against (compare)\n"
      "  --last N       analyze only the newest N ledger records\n"
      "                 (trend/compare --ledger; default: all)\n"
      "  --metric GLOB  only analyze metrics matching GLOB (trend;\n"
      "                 default '*')\n"
      "  --sparkline    add a unicode sparkline column to the trend table\n"
      "  -o FILE        output file (trace: .bpct; dump/replicate: module\n"
      "                 text; sweep: curve table)\n");
  return 2;
}

/// Prints a parse error to stderr; the caller follows up with usage().
bool parseError(const std::string &Msg) {
  std::fprintf(stderr, "bpcr: error: %s\n", Msg.c_str());
  return false;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  if (Argc < 2)
    return parseError("no command given");
  A.Command = Argv[1];

  static const char *Known[] = {"list",   "dump",    "trace",    "analyze",
                                "replicate", "report", "sweep", "explain",
                                "timeline", "lint",   "compare", "profile",
                                "trend"};
  bool KnownCommand = false;
  for (const char *C : Known)
    KnownCommand |= A.Command == C;
  if (!KnownCommand)
    return parseError("unknown command '" + A.Command + "'");

  int I = 2;
  if (A.Command == "compare") {
    // One or two leading report positionals; which count is legal depends
    // on --ledger, so it is validated after the option loop.
    while (I < Argc && Argv[I][0] != '-' && A.CompareNew.empty()) {
      if (A.CompareOld.empty())
        A.CompareOld = Argv[I++];
      else
        A.CompareNew = Argv[I++];
    }
  } else if (A.Command == "profile") {
    if (I >= Argc || Argv[I][0] == '-')
      return parseError(
          "command 'profile' needs a command argument: "
          "profile <replicate|report|sweep|timeline|lint> <workload>");
    A.ProfileInner = Argv[I++];
    static const char *Wrappable[] = {"replicate", "report", "sweep",
                                      "timeline", "lint"};
    bool CanWrap = false;
    for (const char *C : Wrappable)
      CanWrap |= A.ProfileInner == C;
    if (!CanWrap)
      return parseError("command 'profile' wraps replicate, report, sweep, "
                        "timeline or lint, not '" +
                        A.ProfileInner + "'");
    if (I >= Argc || Argv[I][0] == '-')
      return parseError("command 'profile' needs a workload argument");
    A.Target = Argv[I++];
  } else if (A.Command != "list" && A.Command != "trend") {
    if (I >= Argc || Argv[I][0] == '-')
      return parseError("command '" + A.Command +
                        "' needs a workload argument");
    A.Target = Argv[I++];
  }

  // Option applicability under `profile` follows the wrapped command, so
  // `profile timeline x --phases` parses exactly like `timeline x --phases`.
  const std::string Eff = A.Command == "profile" ? A.ProfileInner : A.Command;
  for (; I < Argc; ++I) {
    std::string Opt = Argv[I];
    auto Next = [&]() -> const char * {
      return (I + 1 < Argc) ? Argv[++I] : nullptr;
    };
    // Numeric values are validated in full: "abc", "10x" or an empty
    // string are parse failures, not silent zeros.
    auto ParseU64 = [&](const char *V, uint64_t &Out) {
      char *End = nullptr;
      Out = std::strtoull(V, &End, 10);
      return *V != '\0' && End && *End == '\0';
    };
    if (Opt == "--seed") {
      const char *V = Next();
      if (!V || !ParseU64(V, A.Seed))
        return parseError("option '--seed' needs an integer value");
    } else if (Opt == "--events") {
      const char *V = Next();
      if (!V || !ParseU64(V, A.Events))
        return parseError("option '--events' needs an integer value");
    } else if (Opt == "--states") {
      const char *V = Next();
      uint64_t N = 0;
      if (!V || !ParseU64(V, N) || N == 0)
        return parseError("option '--states' needs a positive integer value");
      A.States = static_cast<unsigned>(N);
    } else if (Opt == "--budget") {
      const char *V = Next();
      char *End = nullptr;
      A.Budget = V ? std::strtod(V, &End) : 0.0;
      if (!V || *V == '\0' || !End || *End != '\0')
        return parseError("option '--budget' needs a numeric value");
      if (A.Budget < 1.0)
        return parseError("option '--budget' must be at least 1.0");
      A.BudgetSet = true;
    } else if (Opt == "--jobs") {
      const char *V = Next();
      uint64_t N = 0;
      if (!V || !ParseU64(V, N) || N == 0 || N > 1024)
        return parseError(
            "option '--jobs' needs an integer value between 1 and 1024");
      static const char *Searching[] = {"replicate", "report",   "sweep",
                                        "explain",   "timeline", "lint"};
      bool Ok = false;
      for (const char *C : Searching)
        Ok |= Eff == C;
      if (!Ok)
        return parseError("option '--jobs' only applies to the replicate, "
                          "report, sweep, explain, timeline and lint "
                          "commands");
      A.Jobs = static_cast<unsigned>(N);
    } else if (Opt == "--dump") {
      A.Dump = true;
    } else if (Opt == "--top") {
      const char *V = Next();
      if (!V || !ParseU64(V, A.Top) || A.Top == 0)
        return parseError("option '--top' needs a positive integer value");
    } else if (Opt == "--branch") {
      const char *V = Next();
      uint64_t N = 0;
      if (!V || !ParseU64(V, N) || N > INT32_MAX)
        return parseError("option '--branch' needs a branch id");
      if (Eff != "explain" && Eff != "timeline")
        return parseError("option '--branch' only applies to the explain "
                          "and timeline commands");
      A.Branch = static_cast<int64_t>(N);
    } else if (Opt == "--window") {
      const char *V = Next();
      uint64_t N = 0;
      if (!V || !ParseU64(V, N))
        return parseError("option '--window' needs an integer value");
      if (Eff != "timeline")
        return parseError(
            "option '--window' only applies to the timeline command");
      if (!isPowerOfTwo(N) || N < 16 || N > (uint64_t{1} << 26))
        return parseError("option '--window' must be a power of two "
                          "between 16 and 67108864");
      A.Window = N;
    } else if (Opt == "--phases") {
      if (Eff != "timeline")
        return parseError(
            "option '--phases' only applies to the timeline command");
      A.Phases = true;
    } else if (Opt == "--timeline-out") {
      const char *V = Next();
      if (!V)
        return parseError("option '--timeline-out' needs a file argument");
      if (Eff != "timeline")
        return parseError(
            "option '--timeline-out' only applies to the timeline command");
      A.TimelineOut = V;
    } else if (Opt == "--format") {
      const char *V = Next();
      if (!V)
        return parseError("option '--format' needs a value");
      A.Format = V;
      if (A.Command == "profile") {
        if (A.Format != "table" && A.Format != "json")
          return parseError("profile '--format' must be table or json");
      } else if (A.Command == "lint") {
        if (A.Format != "table" && A.Format != "json" && A.Format != "sarif")
          return parseError(
              "lint '--format' must be table, json or sarif");
      } else if (A.Command == "compare") {
        if (A.Format != "table" && A.Format != "json")
          return parseError("compare '--format' must be table or json");
      } else if (A.Command == "trend") {
        if (A.Format != "table" && A.Format != "csv" && A.Format != "json")
          return parseError("trend '--format' must be table, csv or json");
      } else {
        if (A.Format != "table" && A.Format != "csv" && A.Format != "json")
          return parseError("option '--format' must be table, csv or json");
        if (A.Command != "explain" && A.Command != "report" &&
            A.Command != "sweep" && A.Command != "timeline")
          return parseError("option '--format' only applies to explain, "
                            "timeline, report, sweep, compare and lint");
        if ((A.Command == "report" || A.Command == "sweep") &&
            A.Format == "json")
          return parseError(A.Command + " emits JSON via --metrics; "
                            "--format accepts table or csv");
      }
    } else if (Opt == "--fail-on") {
      const char *V = Next();
      if (!V)
        return parseError("option '--fail-on' needs a value");
      if (Eff != "lint")
        return parseError("option '--fail-on' only applies to the lint "
                          "command");
      A.FailOn = V;
      if (A.FailOn != "warning" && A.FailOn != "error")
        return parseError("option '--fail-on' must be warning or error");
    } else if (Opt == "--replicate") {
      if (Eff != "lint")
        return parseError(
            "option '--replicate' only applies to the lint command");
      A.Replicate = true;
    } else if (Opt == "--baseline") {
      const char *V = Next();
      if (!V)
        return parseError("option '--baseline' needs a file argument");
      if (Eff != "lint")
        return parseError(
            "option '--baseline' only applies to the lint command");
      A.BaselinePath = V;
    } else if (Opt == "--profile") {
      const char *V = Next();
      if (!V)
        return parseError("option '--profile' needs a trace-file argument");
      if (Eff != "lint")
        return parseError(
            "option '--profile' only applies to the lint command");
      A.LintProfile = V;
    } else if (Opt == "--annotate") {
      if (A.Command != "explain")
        return parseError(
            "option '--annotate' only applies to the explain command");
      A.Annotate = true;
    } else if (Opt == "--metrics") {
      const char *V = Next();
      if (!V)
        return parseError("option '--metrics' needs a file argument");
      A.Metrics = V;
    } else if (Opt == "--profile-out") {
      const char *V = Next();
      if (!V)
        return parseError("option '--profile-out' needs a file argument");
      if (A.Command != "profile")
        return parseError(
            "option '--profile-out' only applies to the profile command");
      A.ProfileOut = V;
    } else if (Opt == "--flame-out") {
      const char *V = Next();
      if (!V)
        return parseError("option '--flame-out' needs a file argument");
      if (A.Command != "profile")
        return parseError(
            "option '--flame-out' only applies to the profile command");
      A.FlameOut = V;
    } else if (Opt == "--threshold-file") {
      const char *V = Next();
      if (!V)
        return parseError("option '--threshold-file' needs a file argument");
      if (A.Command != "compare" && A.Command != "trend")
        return parseError("option '--threshold-file' only applies to the "
                          "compare and trend commands");
      A.ThresholdFile = V;
    } else if (Opt == "--ledger") {
      const char *V = Next();
      if (!V)
        return parseError("option '--ledger' needs a file argument");
      if (A.Command != "compare" && A.Command != "trend")
        return parseError("option '--ledger' only applies to the compare "
                          "and trend commands");
      A.Ledger = V;
    } else if (Opt == "--last") {
      const char *V = Next();
      if (!V || !ParseU64(V, A.Last) || A.Last == 0)
        return parseError("option '--last' needs a positive integer value");
      if (A.Command != "compare" && A.Command != "trend")
        return parseError(
            "option '--last' only applies to the compare and trend commands");
    } else if (Opt == "--metric") {
      const char *V = Next();
      if (!V || *V == '\0')
        return parseError("option '--metric' needs a glob argument");
      if (A.Command != "trend")
        return parseError(
            "option '--metric' only applies to the trend command");
      A.MetricGlob = V;
    } else if (Opt == "--sparkline") {
      if (A.Command != "trend")
        return parseError(
            "option '--sparkline' only applies to the trend command");
      A.Sparkline = true;
    } else if (Opt == "-o") {
      const char *V = Next();
      if (!V)
        return parseError("option '-o' needs a file argument");
      A.Output = V;
    } else {
      return parseError("unknown option '" + Opt + "'");
    }
  }
  if (Eff == "timeline" && A.Phases && A.Branch >= 0)
    return parseError("options '--phases' and '--branch' are mutually "
                      "exclusive: phase splits already cover the top "
                      "branches (pick one view)");
  if (A.Command == "compare") {
    if (!A.Ledger.empty()) {
      if (A.CompareOld.empty() || !A.CompareNew.empty())
        return parseError("'compare --ledger' takes one run-report "
                          "argument: compare NEW.json --ledger FILE");
      // The single positional is the fresh report being gated.
      A.CompareNew = A.CompareOld;
      A.CompareOld.clear();
    } else if (A.CompareOld.empty() || A.CompareNew.empty()) {
      return parseError("command 'compare' needs two run-report arguments: "
                        "compare OLD.json NEW.json (or one with --ledger)");
    }
  }
  if (A.Command == "trend" && A.Ledger.empty())
    return parseError("command 'trend' needs a ledger: trend --ledger FILE");
  return true;
}

const Workload *findWorkload(const std::string &Name) {
  for (const Workload &W : allWorkloads())
    if (Name == W.Name)
      return &W;
  std::fprintf(stderr, "bpcr: error: unknown workload '%s'; try 'bpcr list'\n",
               Name.c_str());
  return nullptr;
}

/// Writes the JSON run report when --metrics was given. \returns false on
/// I/O failure.
bool writeMetrics(const Args &A, const PipelineResult *PR) {
  if (A.Metrics.empty())
    return true;
  ReportMeta Meta;
  Meta.Tool = "bpcr";
  Meta.Command = A.Command;
  Meta.Workload = A.Target;
  Meta.Seed = A.Seed;
  Meta.Events = A.Events;
  Meta.BranchTopK = static_cast<unsigned>(A.Top);
  JsonValue Doc = buildReport(Meta, Registry::global(), PR);
  std::string Error;
  if (!writeReportFile(A.Metrics, Doc, Error)) {
    std::fprintf(stderr, "bpcr: error: %s\n", Error.c_str());
    return false;
  }
  std::printf("wrote metrics to %s\n", A.Metrics.c_str());
  return true;
}

/// Slurps \p Path into \p Out. \returns false and sets \p Error on failure.
bool readFile(const std::string &Path, std::string &Out, std::string &Error) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Error = "cannot open '" + Path + "' for reading";
    return false;
  }
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  bool Ok = std::ferror(F) == 0;
  std::fclose(F);
  if (!Ok)
    Error = "read error on '" + Path + "'";
  return Ok;
}

bool loadReport(const std::string &Path, JsonValue &Doc) {
  std::string Text, Error;
  if (!readFile(Path, Text, Error)) {
    std::fprintf(stderr, "bpcr: error: %s\n", Error.c_str());
    return false;
  }
  Doc = parseJson(Text, Error);
  if (!Error.empty()) {
    std::fprintf(stderr, "bpcr: error: %s: %s\n", Path.c_str(),
                 Error.c_str());
    return false;
  }
  return true;
}

bool loadThresholdFile(const std::string &Path, CompareOptions &Opts) {
  if (Path.empty())
    return true;
  std::string Text, Error;
  if (!readFile(Path, Text, Error)) {
    std::fprintf(stderr, "bpcr: error: %s\n", Error.c_str());
    return false;
  }
  if (!parseThresholdRules(Text, Opts, Error)) {
    std::fprintf(stderr, "bpcr: error: %s: %s\n", Path.c_str(),
                 Error.c_str());
    return false;
  }
  return true;
}

int cmdCompare(const Args &A) {
  JsonValue NewDoc;
  if (!loadReport(A.CompareNew, NewDoc))
    return 2;
  CompareOptions Opts;
  if (!loadThresholdFile(A.ThresholdFile, Opts))
    return 2;

  CompareResult R;
  if (!A.Ledger.empty()) {
    std::vector<LedgerRecord> History;
    std::vector<std::string> Warnings;
    std::string Error;
    if (!readLedger(A.Ledger, History, Warnings, Error)) {
      std::fprintf(stderr, "bpcr: error: %s\n", Error.c_str());
      return 2;
    }
    TrendOptions TOpts;
    TOpts.LastN = A.Last;
    TOpts.Rules = Opts;
    R = compareAgainstLedger(History, NewDoc, TOpts);
    R.Warnings.insert(R.Warnings.begin(), Warnings.begin(), Warnings.end());
  } else {
    JsonValue OldDoc;
    if (!loadReport(A.CompareOld, OldDoc))
      return 2;
    R = compareReports(OldDoc, NewDoc, Opts);
  }

  if (A.Format == "json")
    std::printf("%s\n", compareResultJson(R).dump(2).c_str());
  else
    std::printf("%s", renderCompareResult(R).c_str());
  if (!R.Errors.empty())
    return 2;
  return R.Regressions ? 1 : 0;
}

int cmdTrend(const Args &A) {
  std::vector<LedgerRecord> Records;
  std::vector<std::string> Warnings;
  std::string Error;
  if (!readLedger(A.Ledger, Records, Warnings, Error)) {
    std::fprintf(stderr, "bpcr: error: %s\n", Error.c_str());
    return 2;
  }
  CompareOptions Opts;
  if (!loadThresholdFile(A.ThresholdFile, Opts))
    return 2;

  TrendOptions TOpts;
  TOpts.MetricGlob = A.MetricGlob;
  TOpts.LastN = A.Last;
  TOpts.Rules = Opts;
  TrendResult R = analyzeTrends(Records, TOpts);
  R.Warnings.insert(R.Warnings.begin(), Warnings.begin(), Warnings.end());

  if (A.Format == "json")
    std::printf("%s\n", trendJson(R).dump(2).c_str());
  else if (A.Format == "csv")
    std::printf("%s", renderTrendCsv(R).c_str());
  else
    std::printf("%s", renderTrendTable(R, A.Sparkline).c_str());

  if (!R.Errors.empty() || R.Regressions)
    return 2;
  return R.LatestOutliers ? 1 : 0;
}

int cmdList() {
  TablePrinter Table("Benchmark workloads (paper sec. 3)");
  Table.setHeader({"name", "description"});
  for (const Workload &W : allWorkloads())
    Table.addRow({W.Name, W.Description});
  std::printf("%s", Table.render().c_str());
  return 0;
}

int cmdDump(const Args &A) {
  const Workload *W = findWorkload(A.Target);
  if (!W)
    return 1;
  Module M = W->Build(A.Seed);
  M.assignBranchIds();
  if (!A.Output.empty()) {
    if (!writeModuleFile(A.Output, M)) {
      std::fprintf(stderr, "bpcr: error: cannot write %s\n",
                   A.Output.c_str());
      return 1;
    }
    std::printf("wrote %s (parseable module format)\n", A.Output.c_str());
    return 0;
  }
  std::printf("%s", printModule(M).c_str());
  return 0;
}

/// Reports a workload run that stopped on an error (a truncated trace
/// must not pass for a whole one); \returns whether the run succeeded.
bool runSucceeded(const Workload &W, const ExecResult &Run) {
  if (!Run.Ok)
    std::fprintf(stderr, "bpcr: error: the %s run failed: %s\n", W.Name,
                 Run.Error.c_str());
  return Run.Ok;
}

int cmdTrace(const Args &A) {
  const Workload *W = findWorkload(A.Target);
  if (!W)
    return 1;
  Module M;
  ExecResult Run;
  ColumnarTrace T =
      traceWorkloadColumnar(*W, A.Seed, M, A.Events, /*Jobs=*/1, &Run);
  if (!runSucceeded(*W, Run))
    return 1;
  std::printf("%s seed=%llu: %zu branch events\n", W->Name,
              static_cast<unsigned long long>(A.Seed), T.size());
  std::string Out =
      A.Output.empty() ? (std::string(W->Name) + ".bpct") : A.Output;
  if (!writeTraceFile(Out, T)) {
    std::fprintf(stderr, "bpcr: error: cannot write %s\n", Out.c_str());
    return 1;
  }
  std::vector<uint8_t> Encoded = encodeTrace(T);
  std::printf("wrote %s (%zu bytes, %.2f bytes/event)\n", Out.c_str(),
              Encoded.size(),
              T.empty() ? 0.0
                        : static_cast<double>(Encoded.size()) /
                              static_cast<double>(T.size()));
  return writeMetrics(A, nullptr) ? 0 : 1;
}

int cmdAnalyze(const Args &A) {
  const Workload *W = findWorkload(A.Target);
  if (!W)
    return 1;
  Module M;
  ExecResult Run;
  ColumnarTrace T =
      traceWorkloadColumnar(*W, A.Seed, M, A.Events, /*Jobs=*/1, &Run);
  if (!runSucceeded(*W, Run))
    return 1;
  ProgramAnalysis PA(M);
  ProfileSet Profiles = buildLoopAwareProfiles(PA, T);

  std::printf("%s seed=%llu: %zu events, %u static branches, %llu "
              "instructions\n\n",
              W->Name, static_cast<unsigned long long>(A.Seed), T.size(),
              PA.numBranches(),
              static_cast<unsigned long long>(M.instructionCount()));

  TablePrinter Table("Per-branch statistics");
  Table.setHeader({"branch", "kind", "executions", "taken %",
                   "profile miss %", "resets"});
  for (uint32_t Id = 0; Id < PA.numBranches(); ++Id) {
    const BranchProfile &P = Profiles.branch(static_cast<int32_t>(Id));
    const BranchClass &C = PA.classOf(static_cast<int32_t>(Id));
    const char *Kind = C.Kind == BranchKind::IntraLoop  ? "intra-loop"
                       : C.Kind == BranchKind::LoopExit ? "loop-exit"
                                                        : "non-loop";
    double TakenPct =
        P.executions() ? 100.0 * static_cast<double>(P.takenCount()) /
                             static_cast<double>(P.executions())
                       : 0.0;
    double MissPct =
        P.executions() ? 100.0 * static_cast<double>(
                                     P.profileMispredictions()) /
                             static_cast<double>(P.executions())
                       : 0.0;
    Table.addRow({std::to_string(Id), Kind,
                  std::to_string(P.executions()), formatPercent(TakenPct),
                  formatPercent(MissPct),
                  std::to_string(P.ResetPositions.size())});
  }
  std::printf("%s\n", Table.render().c_str());

  TablePrinter Pred("Prediction rates on this trace (misprediction %)");
  Pred.setHeader({"strategy", "rate"});
  {
    ProfilePredictor P;
    Pred.addRow({"profile",
                 formatPercent(
                     evaluateSelfTrained(P, T).mispredictionPercent())});
  }
  {
    LoopCorrelationPredictor P;
    Pred.addRow({"loop-correlation",
                 formatPercent(
                     evaluateSelfTrained(P, T).mispredictionPercent())});
  }
  {
    TwoLevelPredictor P(TwoLevelConfig::paperDefault());
    Pred.addRow({"two level (dynamic)",
                 formatPercent(
                     evaluatePredictor(P, T).mispredictionPercent())});
  }
  std::printf("%s", Pred.render().c_str());
  return writeMetrics(A, nullptr) ? 0 : 1;
}

/// The pipeline options every command that replicates runs with.
PipelineOptions pipelineOptions(const Args &A) {
  PipelineOptions Opts;
  Opts.Strategy.MaxStates = A.States;
  Opts.Strategy.NodeBudget = 50'000;
  Opts.Strategy.Jobs = A.Jobs;
  Opts.MaxSizeFactor = A.Budget;
  Opts.TimelineWindowEvents = A.Window;
  return Opts;
}

/// The trace side of a replicating command: the streamed trace and the
/// profiles the pipeline reads. \returns false after a diagnostic when
/// the run failed.
bool tracePipelineInputs(const Args &A, const Workload &W, Module &M,
                         const PipelineOptions &Opts, TraceProfiles &TP) {
  TraceProfileOptions TO;
  TO.MaxBranchEvents = A.Events;
  TO.Jobs = A.Jobs;
  TO.MaxStates = Opts.Strategy.MaxStates;
  TO.UseProofs = true;
  traceProfiles(W, A.Seed, M, TO, TP);
  return runSucceeded(W, TP.Run);
}

/// Shared by replicate, report, explain and timeline: trace + pipeline +
/// verification.
bool runPipeline(const Args &A, const Workload &W, Module &M,
                 ColumnarTrace &T, PipelineResult &PR) {
  const PipelineOptions Opts = pipelineOptions(A);
  TraceProfiles TP;
  if (!tracePipelineInputs(A, W, M, Opts, TP))
    return false;
  PR = replicateModule(M, TP.Trace, Opts, TP);
  T = std::move(TP.Trace);
  if (!verifyModule(PR.Transformed).empty()) {
    std::fprintf(stderr,
                 "bpcr: error: transformed module failed verification\n");
    return false;
  }
  if (!PR.Soundness.empty()) {
    std::fprintf(stderr, "bpcr: error: replication soundness check failed "
                         "(%zu finding(s)):\n",
                 PR.Soundness.size());
    for (const sa::Diagnostic &D : PR.Soundness)
      std::fprintf(stderr, "  %s\n", D.render().c_str());
    return false;
  }
  return true;
}

int cmdReplicate(const Args &A) {
  const Workload *W = findWorkload(A.Target);
  if (!W)
    return 1;
  Module M;
  ColumnarTrace T;
  PipelineResult PR;
  if (!runPipeline(A, *W, M, T, PR))
    return 1;

  std::printf("%s seed=%llu (states<=%u, budget %.2fx)\n", W->Name,
              static_cast<unsigned long long>(A.Seed), A.States, A.Budget);
  std::printf("  replications: %u loop, %u joint, %u correlated "
              "(%u skipped for size, %u structurally)\n",
              PR.LoopReplications, PR.JointReplications,
              PR.CorrelatedReplications, PR.SkippedBudget,
              PR.SkippedStructure);
  std::printf("  code size: %llu -> %llu instructions (%.2fx)\n",
              static_cast<unsigned long long>(PR.OrigInstructions),
              static_cast<unsigned long long>(PR.NewInstructions),
              PR.sizeFactor());
  std::printf("  semi-static misprediction: %.1f%% -> %.1f%%\n",
              PR.Baseline.mispredictionPercent(),
              PR.Measured.mispredictionPercent());
  if (!A.Output.empty()) {
    if (!writeModuleFile(A.Output, PR.Transformed)) {
      std::fprintf(stderr, "bpcr: error: cannot write %s\n",
                   A.Output.c_str());
      return 1;
    }
    std::printf("  wrote transformed module to %s\n", A.Output.c_str());
  }
  if (A.Dump)
    std::printf("\n%s", printModule(PR.Transformed).c_str());
  return writeMetrics(A, &PR) ? 0 : 1;
}

/// Renders \p T as aligned text or CSV per --format.
void printTable(const TablePrinter &T, const Args &A) {
  if (A.Format == "csv")
    std::printf("%s", T.renderCsv().c_str());
  else
    std::printf("%s", T.render().c_str());
}

int cmdReport(const Args &A) {
  const Workload *W = findWorkload(A.Target);
  if (!W)
    return 1;
  Module M;
  ColumnarTrace T;
  PipelineResult PR;
  if (!runPipeline(A, *W, M, T, PR))
    return 1;

  Registry &Obs = Registry::global();
  const bool Csv = A.Format == "csv";

  if (!Csv)
    std::printf("%s seed=%llu: %zu events, pipeline with states<=%u, "
                "budget %.2fx\n\n",
                W->Name, static_cast<unsigned long long>(A.Seed), T.size(),
                A.States, A.Budget);

  char Buf[64];
  TablePrinter Phases("Pipeline phase wall time");
  Phases.setHeader({"phase", "runs", "total ms", "mean ms", "p95 ms"});
  for (const auto &[Name, H] : Obs.timers()) {
    std::string Label = Name;
    const std::string Prefix = "pipeline.phase.";
    if (Label.rfind(Prefix, 0) == 0)
      Label = Label.substr(Prefix.size());
    std::vector<std::string> Row{Label, std::to_string(H.count())};
    std::snprintf(Buf, sizeof(Buf), "%.3f", H.sum() / 1e6);
    Row.push_back(Buf);
    std::snprintf(Buf, sizeof(Buf), "%.3f", H.mean() / 1e6);
    Row.push_back(Buf);
    std::snprintf(Buf, sizeof(Buf), "%.3f", H.p95() / 1e6);
    Row.push_back(Buf);
    Phases.addRow(std::move(Row));
  }
  printTable(Phases, A);
  std::printf("\n");

  if (!Csv) {
    uint64_t Events = Obs.counter("interp.branch_events").value();
    uint64_t Insts = Obs.counter("interp.instructions").value();
    double EventRate = Obs.gauge("interp.events_per_sec").value();
    double InstRate = Obs.gauge("interp.instructions_per_sec").value();
    std::printf("Interpreter: %llu instructions, %llu branch events "
                "(last run: %.1fM insts/s, %.1fM events/s)\n\n",
                static_cast<unsigned long long>(Insts),
                static_cast<unsigned long long>(Events), InstRate / 1e6,
                EventRate / 1e6);
  }

  TablePrinter Decisions("Per-branch replication decisions");
  Decisions.setHeader({"branch", "strategy", "action", "gain", "cost",
                       "reason"});
  for (const BranchDecision &D : PR.Decisions.all())
    Decisions.addRow({std::to_string(D.BranchId), D.Strategy,
                      decisionActionName(D.Action),
                      std::to_string(D.EstimatedGain),
                      std::to_string(D.SizeCost), D.Reason});
  printTable(Decisions, A);

  if (!Csv)
    std::printf("\nSummary: %u loop, %u joint, %u correlated replications; "
                "code size %.2fx\n",
                PR.LoopReplications, PR.JointReplications,
                PR.CorrelatedReplications, PR.sizeFactor());
  return writeMetrics(A, &PR) ? 0 : 1;
}

/// Writes \p Text to \p Path, or stdout when \p Path is empty. \returns
/// false and sets \p Error (path + reason, e.g. the missing parent
/// directory's ENOENT) on failure.
bool emitText(const std::string &Path, const std::string &Text,
              std::string &Error) {
  if (Path.empty()) {
    std::printf("%s", Text.c_str());
    return true;
  }
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    Error =
        "cannot open '" + Path + "' for writing: " + std::strerror(errno);
    return false;
  }
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  Ok &= std::fclose(F) == 0;
  if (!Ok)
    Error = "short write to '" + Path + "'";
  return Ok;
}

int cmdSweep(const Args &A) {
  const Workload *W = findWorkload(A.Target);
  if (!W)
    return 1;
  Module M;
  TraceProfileOptions TO;
  TO.MaxBranchEvents = A.Events;
  TO.Jobs = A.Jobs;
  TO.MaxStates = A.States;
  TraceProfiles TP;
  traceProfiles(*W, A.Seed, M, TO, TP);
  if (!runSucceeded(*W, TP.Run))
    return 1;

  SweepOptions Opts;
  Opts.MaxStates = A.States;
  // The sweep wants to chart the whole curve, not enforce a deployment
  // budget, so its default is the figures' 16x (replicate keeps 2x).
  Opts.MaxSizeFactor = A.BudgetSet ? A.Budget : 16.0;
  Opts.NodeBudget = 50'000;
  Opts.Jobs = A.Jobs;
  std::vector<SweepPoint> Points =
      computeSizeSweep(*TP.PA, TP.Profiles, TP.Trace, Opts, TP.Paths);

  // Deliberately no timings or rates anywhere in this output: the
  // determinism test byte-compares it across --jobs values.
  TablePrinter Table(std::string(W->Name) +
                     " — misprediction rate vs. code size (states<=" +
                     std::to_string(A.States) + ")");
  Table.setHeader({"step", "size factor", "mispredict %", "grown branch",
                   "states"});
  char SF[32];
  for (size_t I = 0; I < Points.size(); ++I) {
    const SweepPoint &P = Points[I];
    std::snprintf(SF, sizeof(SF), "%.3f", P.SizeFactor);
    Table.addRow({std::to_string(I), SF, formatPercent(P.MispredictPercent),
                  P.BranchId < 0 ? "-" : std::to_string(P.BranchId),
                  std::to_string(P.NewStates)});
  }
  if (!A.Output.empty()) {
    std::string Text =
        A.Format == "csv" ? Table.renderCsv() : Table.render();
    std::string Error;
    if (!emitText(A.Output, Text, Error)) {
      std::fprintf(stderr, "bpcr: error: %s\n", Error.c_str());
      return 1;
    }
    std::printf("wrote %s\n", A.Output.c_str());
  } else {
    printTable(Table, A);
  }
  return writeMetrics(A, nullptr) ? 0 : 1;
}

/// Appends per-branch strategy and measured miss-rate comments to the IR
/// dump of the transformed module (`bpcr explain --annotate`).
std::string annotateBranch(const AttributionLedger &L, const Instruction &I) {
  if (!I.isConditionalBranch())
    return "";
  const BranchAttribution *B = L.maybeBranch(I.OrigBranchId);
  if (!B)
    return "";
  char Buf[128];
  for (const ReplicaStat &R : B->Replicas)
    if (R.ReplicaId == I.BranchId) {
      double Miss = R.Executions
                        ? 100.0 * static_cast<double>(R.Mispredictions) /
                              static_cast<double>(R.Executions)
                        : 0.0;
      std::snprintf(Buf, sizeof(Buf),
                    "strategy=%s exec=%llu miss=%.1f%%", B->Strategy.c_str(),
                    static_cast<unsigned long long>(R.Executions), Miss);
      return Buf;
    }
  std::snprintf(Buf, sizeof(Buf), "strategy=%s (not executed)",
                B->Strategy.c_str());
  return Buf;
}

/// JSON view of one branch's selection reconstruction.
JsonValue branchDetailJson(const BranchAttribution &B,
                           const BranchEvalStats &Dyn) {
  JsonValue Doc = JsonValue::object();
  Doc.set("branch", JsonValue::integer(static_cast<int64_t>(B.BranchId)));
  Doc.set("strategy", JsonValue::str(B.Strategy));
  Doc.set("action", JsonValue::str(B.Action));
  Doc.set("executions", JsonValue::integer(B.Executions));
  Doc.set("taken_percent", JsonValue::number(B.takenBiasPercent()));
  if (!B.RunnerUp.empty()) {
    Doc.set("runner_up", JsonValue::str(B.RunnerUp));
    Doc.set("runner_up_delta", JsonValue::integer(B.RunnerUpDelta));
  }
  JsonValue Cands = JsonValue::array();
  for (const CandidateScore &C : B.Candidates) {
    JsonValue J = JsonValue::object();
    J.set("strategy", JsonValue::str(C.Strategy));
    J.set("states", JsonValue::integer(static_cast<int64_t>(C.States)));
    J.set("train_correct", JsonValue::integer(C.Correct));
    J.set("train_total", JsonValue::integer(C.Total));
    J.set("hit_rate_percent", JsonValue::number(C.hitRatePercent()));
    J.set("chosen", JsonValue::boolean(C.Chosen));
    Cands.push(std::move(J));
  }
  Doc.set("candidates", std::move(Cands));
  JsonValue Measured = JsonValue::object();
  Measured.set("executions", JsonValue::integer(B.MeasuredExecutions));
  Measured.set("mispredictions", JsonValue::integer(B.Mispredictions));
  Measured.set("miss_rate_percent", JsonValue::number(B.missRatePercent()));
  Doc.set("measured", std::move(Measured));
  if (!B.Replicas.empty()) {
    JsonValue Reps = JsonValue::array();
    for (const ReplicaStat &R : B.Replicas) {
      JsonValue J = JsonValue::object();
      J.set("id", JsonValue::integer(static_cast<int64_t>(R.ReplicaId)));
      J.set("executions", JsonValue::integer(R.Executions));
      J.set("mispredictions", JsonValue::integer(R.Mispredictions));
      Reps.push(std::move(J));
    }
    Doc.set("replicas", std::move(Reps));
  }
  JsonValue TwoLevel = JsonValue::object();
  TwoLevel.set("executions", JsonValue::integer(Dyn.Executions));
  TwoLevel.set("mispredictions", JsonValue::integer(Dyn.Mispredictions));
  TwoLevel.set("miss_rate_percent", JsonValue::number(Dyn.missRatePercent()));
  Doc.set("two_level", std::move(TwoLevel));
  return Doc;
}

int cmdExplain(const Args &A) {
  const Workload *W = findWorkload(A.Target);
  if (!W)
    return 1;
  Module M;
  ColumnarTrace T;
  PipelineResult PR;
  if (!runPipeline(A, *W, M, T, PR))
    return 1;
  const AttributionLedger &L = PR.Attribution;
  if (L.empty()) {
    std::fprintf(stderr,
                 "bpcr: error: attribution ledger is empty (the workload "
                 "has no conditional branches?)\n");
    return 1;
  }

  if (A.Branch >= 0) {
    const BranchAttribution *B =
        L.maybeBranch(static_cast<int32_t>(A.Branch));
    if (!B) {
      std::fprintf(stderr,
                   "bpcr: error: branch %lld out of range (%zu static "
                   "branches)\n",
                   static_cast<long long>(A.Branch), L.size());
      return 1;
    }
    // The dynamic comparison column: how a two-level hardware predictor
    // fares on the same branch and trace.
    TwoLevelPredictor DP(TwoLevelConfig::paperDefault());
    std::vector<BranchEvalStats> Dyn = evaluatePredictorPerBranchDetailed(
        DP, T, static_cast<uint32_t>(L.size()));
    const BranchEvalStats &DB = Dyn[static_cast<size_t>(A.Branch)];

    if (A.Format == "json") {
      std::printf("%s", branchDetailJson(*B, DB).dump(2).c_str());
    } else {
      if (A.Format != "csv") {
        std::printf("branch %d: chosen strategy %s, action %s\n",
                    B->BranchId, B->Strategy.c_str(), B->Action.c_str());
        std::printf("  trained on %llu executions, %.1f%% taken\n",
                    static_cast<unsigned long long>(B->Executions),
                    B->takenBiasPercent());
        if (!B->RunnerUp.empty())
          std::printf("  won over %s by %llu correct training "
                      "predictions\n",
                      B->RunnerUp.c_str(),
                      static_cast<unsigned long long>(B->RunnerUpDelta));
        else
          std::printf("  no competing candidate was built\n");
        std::printf("\n");
      }
      TablePrinter Cands("Candidate strategies for branch " +
                         std::to_string(B->BranchId));
      Cands.setHeader({"strategy", "states", "train correct", "train total",
                       "hit rate %", "chosen"});
      for (const CandidateScore &C : B->Candidates)
        Cands.addRow({C.Strategy, std::to_string(C.States),
                      std::to_string(C.Correct), std::to_string(C.Total),
                      formatPercent(C.hitRatePercent()),
                      C.Chosen ? "*" : ""});
      printTable(Cands, A);
      if (A.Format != "csv") {
        std::printf("\nmeasured on the transformed program: %llu "
                    "executions, %llu mispredictions (%.1f%% miss)\n",
                    static_cast<unsigned long long>(B->MeasuredExecutions),
                    static_cast<unsigned long long>(B->Mispredictions),
                    B->missRatePercent());
        std::printf("two-level dynamic predictor on the same trace: "
                    "%.1f%% miss\n",
                    DB.missRatePercent());
      }
      if (B->Replicas.size() > 1) {
        if (A.Format != "csv")
          std::printf("\n");
        TablePrinter Reps("Replica copies of branch " +
                          std::to_string(B->BranchId));
        Reps.setHeader({"replica id", "executions", "mispredictions",
                        "miss %"});
        for (const ReplicaStat &R : B->Replicas) {
          double Miss = R.Executions
                            ? 100.0 * static_cast<double>(R.Mispredictions) /
                                  static_cast<double>(R.Executions)
                            : 0.0;
          Reps.addRow({std::to_string(R.ReplicaId),
                       std::to_string(R.Executions),
                       std::to_string(R.Mispredictions),
                       formatPercent(Miss)});
        }
        printTable(Reps, A);
      }
    }
  } else if (A.Format == "json") {
    std::printf("%s", attributionJson(L, static_cast<unsigned>(A.Top))
                          .dump(2)
                          .c_str());
  } else {
    auto Top = L.topByMispredictions(A.Top);
    const uint64_t TotalMiss = L.totalMispredictions();
    uint64_t Cum = 0;
    TablePrinter Table("Misprediction Pareto view: top " +
                       std::to_string(Top.size()) + " of " +
                       std::to_string(L.size()) + " branches");
    Table.setHeader({"rank", "branch", "strategy", "action", "executions",
                     "mispred", "miss %", "taken %", "cum %"});
    unsigned Rank = 1;
    for (const BranchAttribution *B : Top) {
      Cum += B->Mispredictions;
      double CumPct = TotalMiss ? 100.0 * static_cast<double>(Cum) /
                                      static_cast<double>(TotalMiss)
                                : 0.0;
      Table.addRow({std::to_string(Rank++), std::to_string(B->BranchId),
                    B->Strategy, B->Action,
                    std::to_string(B->MeasuredExecutions),
                    std::to_string(B->Mispredictions),
                    formatPercent(B->missRatePercent()),
                    formatPercent(B->takenBiasPercent()),
                    formatPercent(CumPct)});
    }
    printTable(Table, A);
    if (A.Format != "csv")
      std::printf("\ntop %zu branches cover %llu of %llu mispredictions "
                  "(%.1f%%)\n",
                  Top.size(), static_cast<unsigned long long>(Cum),
                  static_cast<unsigned long long>(TotalMiss),
                  TotalMiss ? 100.0 * static_cast<double>(Cum) /
                                  static_cast<double>(TotalMiss)
                            : 0.0);
  }

  if (A.Annotate) {
    std::printf("\n%s",
                printModule(PR.Transformed,
                            [&L](const Instruction &I) {
                              return annotateBranch(L, I);
                            })
                    .c_str());
  }
  return writeMetrics(A, &PR) ? 0 : 1;
}

/// Phase index per window, for the series table's phase column.
std::vector<uint32_t> phaseOfWindow(const TimeSeriesData &TS,
                                    const std::vector<PhaseSegment> &Phases) {
  std::vector<uint32_t> Out(TS.Windows.size(), 0);
  for (size_t P = 0; P < Phases.size(); ++P)
    for (uint32_t W = Phases[P].FirstWindow; W <= Phases[P].LastWindow; ++W)
      Out[W] = static_cast<uint32_t>(P);
  return Out;
}

/// The timeline document for `--format json` and `--timeline-out`: run
/// context plus the same "timeline" object the v3 report embeds.
JsonValue timelineDoc(const Args &A, const PipelineResult &PR) {
  std::vector<int32_t> TopIds;
  for (const BranchAttribution *B :
       PR.Attribution.topByMispredictions(A.Top))
    TopIds.push_back(B->BranchId);
  JsonValue Doc = JsonValue::object();
  Doc.set("tool", JsonValue::str("bpcr"));
  Doc.set("command", JsonValue::str("timeline"));
  Doc.set("workload", JsonValue::str(A.Target));
  Doc.set("seed", JsonValue::integer(A.Seed));
  Doc.set("events", JsonValue::integer(A.Events));
  Doc.set("timeline", timelineJson(PR.Timeline, TopIds));
  return Doc;
}

int cmdTimeline(const Args &A) {
  const Workload *W = findWorkload(A.Target);
  if (!W)
    return 1;
  Module M;
  ColumnarTrace T;
  PipelineResult PR;
  if (!runPipeline(A, *W, M, T, PR))
    return 1;
  const TimeSeriesData &TS = PR.Timeline;
  if (TS.empty()) {
    std::fprintf(stderr, "bpcr: error: timeline is empty (the workload "
                         "produced no branch events?)\n");
    return 1;
  }
  if (A.Branch >= 0 && static_cast<uint64_t>(A.Branch) >= TS.NumBranches) {
    std::fprintf(stderr,
                 "bpcr: error: branch %lld out of range (%u static "
                 "branches)\n",
                 static_cast<long long>(A.Branch), TS.NumBranches);
    return 1;
  }

  // Everything printed below is derived from event counts alone — no
  // timings, no rates-per-second — so the output is byte-identical for
  // every --jobs value; the determinism test relies on that.
  std::vector<PhaseSegment> Phases = segmentPhases(TS);
  if (A.Format == "json") {
    std::printf("%s\n", timelineDoc(A, PR).dump(2).c_str());
  } else {
    if (A.Format != "csv")
      std::printf("%s seed=%llu: %llu events, window %llu events, %zu "
                  "windows, %zu phases, warmup %llu events\n\n",
                  W->Name, static_cast<unsigned long long>(A.Seed),
                  static_cast<unsigned long long>(TS.TotalEvents),
                  static_cast<unsigned long long>(TS.WindowEvents),
                  TS.Windows.size(), Phases.size(),
                  static_cast<unsigned long long>(
                      estimateWarmupEvents(TS, Phases)));

    if (A.Branch >= 0) {
      TablePrinter Table("Branch " + std::to_string(A.Branch) +
                         " windowed series (window " +
                         std::to_string(TS.WindowEvents) + " events)");
      Table.setHeader({"window", "start event", "executions", "taken %",
                       "miss %"});
      for (size_t I = 0; I < TS.Windows.size(); ++I) {
        const TimeSeriesWindow &Win = TS.Windows[I];
        TimeSeriesCell C;
        if (static_cast<size_t>(A.Branch) < Win.Branches.size())
          C = Win.Branches[static_cast<size_t>(A.Branch)];
        Table.addRow(
            {std::to_string(I), std::to_string(I * TS.WindowEvents),
             std::to_string(C.Events),
             formatPercent(TimeSeriesData::percent(C.Taken, C.Events)),
             formatPercent(
                 TimeSeriesData::percent(C.Mispredictions, C.Events))});
      }
      printTable(Table, A);
    } else {
      std::vector<uint32_t> PhaseOf = phaseOfWindow(TS, Phases);
      TablePrinter Table("Windowed misprediction series (window " +
                         std::to_string(TS.WindowEvents) + " events)");
      Table.setHeader({"window", "start event", "events", "taken %",
                       "miss %", "phase"});
      for (size_t I = 0; I < TS.Windows.size(); ++I) {
        const TimeSeriesWindow &Win = TS.Windows[I];
        Table.addRow(
            {std::to_string(I), std::to_string(I * TS.WindowEvents),
             std::to_string(Win.Events),
             formatPercent(TimeSeriesData::percent(Win.Taken, Win.Events)),
             formatPercent(
                 TimeSeriesData::percent(Win.Mispredictions, Win.Events)),
             std::to_string(PhaseOf[I])});
      }
      printTable(Table, A);
    }

    if (A.Phases) {
      if (A.Format != "csv")
        std::printf("\n");
      uint64_t Warmup = estimateWarmupEvents(TS, Phases);
      TablePrinter PT("Phases (change points of the windowed "
                      "misprediction rate)");
      PT.setHeader({"phase", "windows", "start event", "events", "taken %",
                    "miss %", "note"});
      for (size_t P = 0; P < Phases.size(); ++P) {
        const PhaseSegment &S = Phases[P];
        const char *Note = "";
        if (Phases.size() > 1) {
          if (P + 1 == Phases.size())
            Note = "steady";
          else if (Warmup > 0 && S.StartEvent < Warmup)
            Note = "warmup";
        }
        PT.addRow({std::to_string(P),
                   std::to_string(S.FirstWindow) + "-" +
                       std::to_string(S.LastWindow),
                   std::to_string(S.StartEvent), std::to_string(S.Events),
                   formatPercent(S.takenPercent()),
                   formatPercent(S.missRatePercent()), Note});
      }
      printTable(PT, A);

      // Per-phase split of the attribution ledger's top branches: where in
      // the run each suspect actually pays its mispredictions.
      auto Top = PR.Attribution.topByMispredictions(A.Top);
      if (!Top.empty()) {
        if (A.Format != "csv")
          std::printf("\n");
        TablePrinter BT("Per-phase split of the top " +
                        std::to_string(Top.size()) + " branches");
        BT.setHeader({"phase", "branch", "executions", "mispred",
                      "miss %"});
        for (size_t P = 0; P < Phases.size(); ++P) {
          const PhaseSegment &S = Phases[P];
          for (const BranchAttribution *B : Top) {
            if (B->BranchId < 0 ||
                static_cast<uint32_t>(B->BranchId) >= TS.NumBranches)
              continue;
            TimeSeriesCell C;
            for (uint32_t WI = S.FirstWindow; WI <= S.LastWindow; ++WI) {
              const TimeSeriesWindow &Win = TS.Windows[WI];
              if (static_cast<uint32_t>(B->BranchId) <
                  Win.Branches.size()) {
                const TimeSeriesCell &Cell =
                    Win.Branches[static_cast<uint32_t>(B->BranchId)];
                C.Events += Cell.Events;
                C.Taken += Cell.Taken;
                C.Mispredictions += Cell.Mispredictions;
              }
            }
            BT.addRow({std::to_string(P), std::to_string(B->BranchId),
                       std::to_string(C.Events),
                       std::to_string(C.Mispredictions),
                       formatPercent(TimeSeriesData::percent(
                           C.Mispredictions, C.Events))});
          }
        }
        printTable(BT, A);
      }
    }
  }

  if (!A.TimelineOut.empty()) {
    std::string Error;
    if (!emitText(A.TimelineOut, timelineDoc(A, PR).dump(2) + "\n", Error)) {
      std::fprintf(stderr, "bpcr: error: %s\n", Error.c_str());
      return 1;
    }
    std::printf("wrote timeline to %s\n", A.TimelineOut.c_str());
  }
  return writeMetrics(A, &PR) ? 0 : 1;
}

// -- profile ------------------------------------------------------------------

int cmdLint(const Args &A);

/// Wraps one searching command with the self-profiler armed, then renders
/// the collected profile and optionally writes the JSON profile
/// (--profile-out) and a collapsed-stack flamegraph (--flame-out).
int cmdProfile(const Args &A) {
  Profiler::global().setEnabled(true);

  Args Inner = A;
  Inner.Command = A.ProfileInner;
  // --format under profile selects the profile rendering; the wrapped
  // command runs with its default output format.
  Inner.Format = "table";
  int RC;
  if (Inner.Command == "replicate")
    RC = cmdReplicate(Inner);
  else if (Inner.Command == "report")
    RC = cmdReport(Inner);
  else if (Inner.Command == "sweep")
    RC = cmdSweep(Inner);
  else if (Inner.Command == "lint")
    RC = cmdLint(Inner);
  else
    RC = cmdTimeline(Inner);
  // Lint's exit code carries finding severity, not failure; keep profiling
  // output for it. Everything else treats nonzero as a hard error.
  if (RC != 0 && Inner.Command != "lint")
    return RC;

  Profiler::global().sampleRss("profile.end");
  ProfileData P = Profiler::global().collect();
  Registry &Obs = Registry::global();

  if (A.Format == "json")
    std::printf("%s\n", profileJson(P, &Obs).dump(2).c_str());
  else
    std::printf("\n%s", profileTable(P, &Obs).c_str());

  std::string Error;
  if (!A.ProfileOut.empty()) {
    if (!writeProfileText(A.ProfileOut, profileJson(P, &Obs).dump(2) + "\n",
                          "profile", Error)) {
      std::fprintf(stderr, "bpcr: error: %s\n", Error.c_str());
      return 1;
    }
    std::printf("wrote profile to %s\n", A.ProfileOut.c_str());
  }
  if (!A.FlameOut.empty()) {
    if (!writeProfileText(A.FlameOut, collapsedStacks(SpanTracer::global()),
                          "flamegraph", Error)) {
      std::fprintf(stderr, "bpcr: error: %s\n", Error.c_str());
      return 1;
    }
    std::printf("wrote flamegraph to %s\n", A.FlameOut.c_str());
  }
  return RC;
}

int cmdLint(const Args &A) {
  // Resolve the target: a workload name first, then a module file in the
  // textual serializer format.
  const Workload *W = nullptr;
  for (const Workload &Cand : allWorkloads())
    if (A.Target == Cand.Name)
      W = &Cand;
  Module M;
  std::string ArtifactUri;
  if (W) {
    M = W->Build(A.Seed);
    ArtifactUri = "workload:" + A.Target;
  } else {
    std::string Error;
    if (!readModuleFile(A.Target, M, Error)) {
      std::fprintf(stderr,
                   "bpcr: error: '%s' is neither a workload (try 'bpcr "
                   "list') nor a readable module file (%s)\n",
                   A.Target.c_str(), Error.c_str());
      return 2;
    }
    ArtifactUri = A.Target;
  }

  // Assign branch ids only when the module carries none at all, so ids
  // stored in a file — including deliberately broken ones — stay visible
  // to the branch-hygiene pass.
  bool AnyId = false;
  for (const Function &F : M.Functions)
    for (const BasicBlock &BB : F.Blocks)
      for (const Instruction &I : BB.Insts)
        AnyId |= I.isConditionalBranch() && I.BranchId != NoBranchId;
  if (!AnyId)
    M.assignBranchIds();

  // Enable the registry before the passes run so the sa.pass.<id> and
  // sa.diags.* gauges land in the --metrics report.
  if (!A.Metrics.empty())
    Registry::global().setEnabled(true);

  sa::PassManager PM;
  sa::addStandardPasses(PM);

  // --profile TRACE: admit the recorded branch trace through the
  // realizability verifier alongside the standard passes.
  if (!A.LintProfile.empty()) {
    // Run-length groups land directly in the packed id/direction columns
    // and the counts come from one pass over those.
    ColumnarTrace CT;
    std::string Error;
    if (!readTraceFileColumnar(A.LintProfile, CT, Error)) {
      // Error already names the file.
      std::fprintf(stderr, "bpcr: error: cannot read trace: %s\n",
                   Error.c_str());
      return 2;
    }
    sa::BranchProfileCounts P =
        sa::BranchProfileCounts::fromColumnar(M.conditionalBranchCount(), CT);
    PM.add(sa::createProfileVerifyPass(std::move(P)));
  }

  std::vector<sa::Diagnostic> Diags = PM.run(M, A.Jobs);

  std::vector<SarifRuleInfo> Rules;
  for (const auto &P : PM.passes())
    Rules.push_back({P->id(), P->description()});

  if (A.Replicate) {
    if (!W) {
      std::fprintf(stderr, "bpcr: error: '--replicate' needs a workload "
                           "target (a module file has no input trace)\n");
      return 2;
    }
    Module Traced;
    const PipelineOptions Opts = pipelineOptions(A);
    TraceProfiles TP;
    if (!tracePipelineInputs(A, *W, Traced, Opts, TP))
      return 1;
    PipelineResult PR = replicateModule(Traced, TP.Trace, Opts, TP);
    Rules.push_back(
        {"replication-soundness",
         "the replicated module simulates its original: paired blocks run "
         "identical computations, out-edges project onto the original's, "
         "and every copy folds onto the branch it simulates"});
    for (sa::Diagnostic &D : PR.Soundness)
      Diags.push_back(std::move(D));
  }

  // --baseline FILE: an existing baseline suppresses the findings it lists
  // (stale entries surface as warnings); a missing one is recorded from the
  // current findings so the next run starts clean.
  if (!A.BaselinePath.empty()) {
    std::string Text, Error;
    if (readFile(A.BaselinePath, Text, Error)) {
      sa::LintBaseline BL;
      if (!sa::LintBaseline::parse(Text, BL, Error)) {
        std::fprintf(stderr, "bpcr: error: baseline '%s': %s\n",
                     A.BaselinePath.c_str(), Error.c_str());
        return 2;
      }
      Diags = BL.apply(std::move(Diags));
      Rules.push_back(
          {"lint-baseline",
           "baseline hygiene: a baseline entry that matches no current "
           "finding is stale — the underlying issue is fixed, so the line "
           "should be removed from the ledger"});
    } else {
      sa::LintBaseline BL = sa::LintBaseline::fromDiagnostics(Diags);
      std::string EmitError;
      if (!emitText(A.BaselinePath, BL.serialize(), EmitError)) {
        std::fprintf(stderr, "bpcr: error: %s\n", EmitError.c_str());
        return 2;
      }
      std::printf("recorded %zu baseline entr%s to %s\n", BL.Keys.size(),
                  BL.Keys.size() == 1 ? "y" : "ies",
                  A.BaselinePath.c_str());
      Diags.clear();
    }
  }

  std::string Out;
  if (A.Format == "json") {
    Out = diagnosticsJson(Diags).dump(2) + "\n";
  } else if (A.Format == "sarif") {
    Out = sarifLog(Diags, ArtifactUri, Rules).dump(2) + "\n";
  } else {
    for (const sa::Diagnostic &D : Diags)
      Out += D.render() + "\n";
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  "%s: %zu error(s), %zu warning(s), %zu note(s)\n",
                  A.Target.c_str(),
                  countSeverity(Diags, sa::Severity::Error),
                  countSeverity(Diags, sa::Severity::Warning),
                  countSeverity(Diags, sa::Severity::Note));
    Out += Buf;
  }
  std::string EmitError;
  if (!emitText(A.Output, Out, EmitError)) {
    std::fprintf(stderr, "bpcr: error: %s\n", EmitError.c_str());
    return 2;
  }
  if (!A.Output.empty())
    std::printf("wrote %s\n", A.Output.c_str());
  if (!writeMetrics(A, nullptr))
    return 2;

  const sa::Severity Threshold = A.FailOn == "warning"
                                     ? sa::Severity::Warning
                                     : sa::Severity::Error;
  return anyAtOrAbove(Diags, Threshold) ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // Span tracing is orthogonal to the subcommands: the flag is spliced out
  // before command parsing and the timeline is written after the command
  // finishes, whatever it was.
  std::string TraceOut, TraceError;
  if (!extractTraceOutFlag(Argc, Argv, TraceOut, TraceError)) {
    std::fprintf(stderr, "bpcr: error: %s\n", TraceError.c_str());
    return usage();
  }

  Args A;
  if (!parseArgs(Argc, Argv, A))
    return usage();

  // Metrics collection stays off unless this invocation reports, so the
  // plain commands keep the zero-overhead path. explain and timeline need
  // it on: the attribution ledger and the windowed series are only filled
  // behind the enabled() guard.
  if (!A.Metrics.empty() || A.Command == "report" ||
      A.Command == "explain" || A.Command == "timeline" ||
      A.Command == "profile")
    Registry::global().setEnabled(true);

  int RC = 2;
  if (A.Command == "list")
    RC = cmdList();
  else if (A.Command == "dump")
    RC = cmdDump(A);
  else if (A.Command == "trace")
    RC = cmdTrace(A);
  else if (A.Command == "analyze")
    RC = cmdAnalyze(A);
  else if (A.Command == "replicate")
    RC = cmdReplicate(A);
  else if (A.Command == "report")
    RC = cmdReport(A);
  else if (A.Command == "sweep")
    RC = cmdSweep(A);
  else if (A.Command == "explain")
    RC = cmdExplain(A);
  else if (A.Command == "timeline")
    RC = cmdTimeline(A);
  else if (A.Command == "profile")
    RC = cmdProfile(A);
  else if (A.Command == "lint")
    RC = cmdLint(A);
  else if (A.Command == "compare")
    RC = cmdCompare(A);
  else if (A.Command == "trend")
    RC = cmdTrend(A);
  else
    return usage();

  if (!TraceOut.empty()) {
    int TraceRC = finishSpanTrace(TraceOut, "bpcr");
    if (RC == 0)
      RC = TraceRC;
  }
  return RC;
}
