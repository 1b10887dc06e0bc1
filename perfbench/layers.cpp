//===- perfbench/layers.cpp - Traced per-layer pass and output checks -----===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Helper binary of the end-to-end benchmark (perfbench/run.py). It links the
// bpcr libraries directly, so it can time each layer's public call in
// process and inspect the CLI's artifacts:
//
//   perfbench_layers calibrate
//     Times a fixed interpreter-shaped loop (about 60 ms). run.py divides
//     the end-to-end times by it to factor out the machine's current speed.
//
//   perfbench_layers check <program> <seed> [MODULE]
//     Executes the program's original module under the 1M-event cap and
//     reports its branch events and instruction count (run.py's weights).
//     With MODULE, a module written by `bpcr replicate -o`: reloads it
//     through the serializer, verifies it, co-executes it with the
//     original under identical ExecOptions (return value and memory image
//     must match), and measures the realized misprediction of its branch
//     annotations.
//
//   perfbench_layers trace <replicate|sweep> <seed,seed,...> <seconds>
//                          <jobs> <program>...
//     The traced pass. One repetition runs, per program, the calls the CLI
//     command makes (tools/bpcr.cpp runPipeline + cmdReplicate, or
//     cmdSweep) with the same options, plus the pipeline's inner layer calls
//     timed on their own. Repetitions cycle through the seeds until
//     <seconds> have passed and every seed ran once; every metric is the
//     median over repetitions of the per-repetition sum across programs,
//     and each program's results on each seed's first repetition are
//     reported for comparison with the CLI. The metrics registry stays off,
//     so replicateModule does exactly the CLI's work (no attribution run).
//     The machine-search cache is cleared before every searching call.
//
// Each prints one JSON object on stdout.
//
//===----------------------------------------------------------------------===//

#include "core/JointMachine.h"
#include "core/LoopAwareProfiles.h"
#include "core/Pipeline.h"
#include "core/Replication.h"
#include "core/SearchCache.h"
#include "core/SizeSweep.h"
#include "interp/Interpreter.h"
#include "ir/Serializer.h"
#include "ir/Verifier.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "sa/Dataflow.h"
#include "sa/ReplicationSoundness.h"
#include "trace/ColumnarTrace.h"
#include "trace/TraceStats.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <string>
#include <vector>

using namespace bpcr;

namespace {

/// The paper's trace cap, as `bpcr --events` defaults to.
constexpr uint64_t EventCap = 1'000'000;
/// `bpcr replicate` defaults: --states 6, --budget 2.0.
constexpr unsigned MaxStates = 6;
constexpr double ReplicateBudget = 2.0;
/// `bpcr sweep` charts up to 16x by default.
constexpr double SweepBudget = 16.0;
/// Node budget tools/bpcr.cpp passes to every search.
constexpr uint64_t NodeBudget = 50'000;
/// Pipeline.cpp profiles joint loops with suffixes up to this length.
constexpr unsigned JointMaxLen = 4;

/// Per-repetition raw sums, keyed "<layer>.<quantity>".
using Sums = std::map<std::string, double>;

double processCpuMs() {
  timespec TS{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &TS);
  return static_cast<double>(TS.tv_sec) * 1e3 +
         static_cast<double>(TS.tv_nsec) / 1e6;
}

/// Wall and process CPU time (all threads) of one layer call.
class Stopwatch {
public:
  /// Adds the elapsed times to "<Layer>.ms" and "<Layer>.cpu_ms".
  void stop(Sums &S, const std::string &Layer) const {
    std::chrono::duration<double, std::milli> Wall =
        std::chrono::steady_clock::now() - WallStart;
    S[Layer + ".ms"] += Wall.count();
    S[Layer + ".cpu_ms"] += processCpuMs() - CpuStart;
  }

private:
  std::chrono::steady_clock::time_point WallStart =
      std::chrono::steady_clock::now();
  double CpuStart = processCpuMs();
};

const Workload *findWorkload(const std::string &Name) {
  for (const Workload &W : allWorkloads())
    if (Name == W.Name)
      return &W;
  return nullptr;
}

/// What the traced pass saw of one program, for run.py to hold against the
/// CLI's output lines.
struct ProgramRecord {
  std::string Name;
  uint64_t Seed = 0;
  PipelineResult Replicated; // replicate only
  size_t SweepPoints = 0;    // sweep only

  std::string label() const { return Name + " seed " + std::to_string(Seed); }
};

/// Failures of the traced pass: a check that would make `bpcr` exit
/// non-zero, or a warm search cache.
struct Failures {
  uint64_t Count = 0;
  std::vector<std::string> Messages;

  void add(const std::string &Msg) {
    ++Count;
    if (Messages.size() < 16)
      Messages.push_back(Msg);
  }
};

/// Search-cache hits per (program, seed, call) on their first repetition,
/// right after a clear: the cold value. A later repetition that hits more
/// means the cache was not cleared.
class ColdHits {
public:
  void check(const std::string &Key, uint64_t Hits, Sums &S, Failures &F) {
    S["search.cache.hits"] += static_cast<double>(Hits);
    auto [It, Inserted] = Cold.emplace(Key, Hits);
    if (!Inserted && Hits > It->second)
      F.add(Key + ": " + std::to_string(Hits) +
            " search-cache hits exceed the cold run's " +
            std::to_string(It->second));
  }

private:
  std::map<std::string, uint64_t> Cold;
};

/// Correlated-path candidates with selectStrategies' (replicate) or
/// computeSizeSweep's (sweep) eligibility: warm enough, not proven, paths
/// through jumps, length min(states, 4).
std::vector<std::vector<BranchPath>>
pathCandidates(const ProgramAnalysis &PA, const ProfileSet &Profiles,
               uint64_t MinExecutions, const sa::BranchProofs *Proofs) {
  std::vector<std::vector<BranchPath>> Candidates(PA.numBranches());
  for (uint32_t Id = 0; Id < PA.numBranches(); ++Id) {
    const int32_t B = static_cast<int32_t>(Id);
    if (Profiles.branch(B).executions() < MinExecutions)
      continue;
    if (Proofs && Proofs->proven(B))
      continue;
    Candidates[Id] = PA.backwardPaths(B, std::min(MaxStates, 4u),
                                      /*ThroughJumps=*/true);
  }
  return Candidates;
}

/// Times core.paths: candidate enumeration plus the path-profiling pass.
void tracePaths(const ProgramAnalysis &PA, const ProfileSet &Profiles,
                const ColumnarTrace &CT, uint64_t MinExecutions,
                const sa::BranchProofs *Proofs, Sums &S) {
  Stopwatch SW;
  std::vector<std::vector<BranchPath>> Candidates =
      pathCandidates(PA, Profiles, MinExecutions, Proofs);
  std::vector<PathProfile> Paths =
      profilePaths(Candidates, CT, std::min(MaxStates, 4u));
  SW.stop(S, "core.paths");
  for (const std::vector<BranchPath> &C : Candidates)
    S["core.paths.candidates"] += static_cast<double>(C.size());
  S["core.paths.events"] += static_cast<double>(CT.size());
}

/// Times core.joint, Pipeline.cpp's joint planning: per loop group of >= 2
/// loop-machine strategies, profileJointLoop (also timed alone as
/// core.joint.profile) and then buildJointLoopMachine, shrinking the state
/// budget until the machine's loop copies fit the size budget.
void traceJoint(const ProgramAnalysis &PA,
                const std::vector<BranchStrategy> &Strategies,
                const ColumnarTrace &CT, const PipelineOptions &Opts,
                Sums &S) {
  const Module &M = PA.module();
  const uint64_t OrigSize = M.instructionCount();
  const auto SizeCap = static_cast<uint64_t>(
      static_cast<double>(OrigSize) * Opts.MaxSizeFactor);
  std::map<std::pair<uint32_t, int32_t>, std::vector<int32_t>> Groups;
  for (const BranchStrategy &St : Strategies)
    if (St.Kind == StrategyKind::IntraLoop ||
        St.Kind == StrategyKind::LoopExit)
      Groups[{PA.ref(St.BranchId).FuncIdx, PA.classOf(St.BranchId).LoopIdx}]
          .push_back(St.BranchId);
  for (const auto &[Key, Members] : Groups) {
    if (Members.size() < 2)
      continue;
    S["core.joint.groups"] += 1;
    // Each group's profile reads the whole trace once.
    S["core.joint.events"] += static_cast<double>(CT.size());
    Stopwatch SW;
    JointProfile JP = profileJointLoop(PA, Members, CT, JointMaxLen);
    SW.stop(S, "core.joint.profile");
    if (JP.Executions != 0) {
      const Loop &L = PA.loopInfoFor(Members.front())
                          .loops()[static_cast<size_t>(Key.second)];
      uint64_t LoopSize = 0;
      for (uint32_t B : L.Blocks)
        LoopSize += M.Functions[Key.first].Blocks[B].Insts.size();
      JointOptions JO;
      JO.MaxLen = JointMaxLen;
      JO.Exhaustive = Opts.Strategy.Exhaustive;
      JO.NodeBudget = Opts.Strategy.NodeBudget;
      for (unsigned States = Opts.JointMaxStates; States >= 3; --States) {
        JO.MaxStates = States;
        JointLoopMachine JM = buildJointLoopMachine(Members, JP, JO);
        const unsigned N = JM.numStates();
        if (OrigSize + LoopSize * (N > 1 ? N - 1 : 1) <= SizeCap)
          break;
      }
    }
    SW.stop(S, "core.joint");
  }
}

/// One program of a replicate workload: runPipeline + cmdReplicate's calls,
/// with the pipeline's layers also timed one by one.
void traceReplicate(const Workload &W, uint64_t Seed, unsigned Jobs,
                    Sums &S, ColdHits &Hits, Failures &F, ProgramRecord &Rec) {
  SearchCache &Cache = SearchCache::global();
  Module M;
  Stopwatch SWTrace;
  ColumnarTrace CT = traceWorkloadColumnar(W, Seed, M, EventCap);
  SWTrace.stop(S, "interp.trace");
  S["interp.trace.events"] += static_cast<double>(CT.size());

  Stopwatch SWAnalysis;
  ProgramAnalysis PA(M);
  SWAnalysis.stop(S, "analysis");
  S["analysis.branches"] += PA.numBranches();

  Stopwatch SWProofs;
  sa::BranchProofs Proofs = sa::computeBranchProofs(M);
  SWProofs.stop(S, "sa.proofs");
  S["sa.proofs.proven"] += static_cast<double>(Proofs.provenCount());

  Stopwatch SWProfiles;
  ProfileSet Profiles = buildLoopAwareProfiles(PA, CT, /*MaxBits=*/9, &Proofs);
  SWProfiles.stop(S, "core.profiles");
  S["core.profiles.events"] += static_cast<double>(CT.size());

  PipelineOptions Opts;
  Opts.Strategy.MaxStates = MaxStates;
  Opts.Strategy.NodeBudget = NodeBudget;
  Opts.Strategy.Jobs = Jobs;
  Opts.MaxSizeFactor = ReplicateBudget;
  StrategyOptions SearchOpts = Opts.Strategy;
  SearchOpts.Proofs = &Proofs;

  tracePaths(PA, Profiles, CT, SearchOpts.MinExecutions, &Proofs, S);

  Cache.clear();
  Stopwatch SWSearch;
  std::vector<BranchStrategy> Strategies =
      selectStrategies(PA, Profiles, CT, SearchOpts);
  SWSearch.stop(S, "core.search");
  S["core.search.cache_misses"] += static_cast<double>(Cache.stats().Misses);
  Hits.check(Rec.label() + " selectStrategies", Cache.stats().Hits, S, F);
  for (const BranchStrategy &St : Strategies) {
    const BranchProfile &P = Profiles.branch(St.BranchId);
    if (P.executions() < SearchOpts.MinExecutions || Proofs.proven(St.BranchId))
      continue;
    S["core.search.searched"] += 1;
    if (St.Kind != StrategyKind::Profile)
      S["core.search.useful"] += 1;
  }

  traceJoint(PA, Strategies, CT, Opts, S);

  if (Registry::global().enabled())
    F.add(Rec.label() + ": metrics registry is on; replicateModule would "
                        "add an attribution run the CLI does not make");
  Cache.clear();
  Stopwatch SWReplicate;
  Rec.Replicated = replicateModule(M, CT, Opts);
  SWReplicate.stop(S, "core.replicate");
  Hits.check(Rec.label() + " replicateModule", Cache.stats().Hits, S, F);
  const PipelineResult &PR = Rec.Replicated;
  const double Applied = PR.LoopReplications + PR.JointReplications +
                         PR.CorrelatedReplications;
  S["core.replicate.applied"] += Applied;
  S["core.replicate.skipped_structure"] += PR.SkippedStructure;
  S["core.replicate.skipped_budget"] += PR.SkippedBudget;
  if (!verifyModule(PR.Transformed).empty())
    F.add(Rec.label() + ": transformed module failed verification");
  if (!PR.Soundness.empty())
    F.add(Rec.label() + ": replication soundness findings");

  // The pipeline's final soundness pass, with the copy -> original map.
  std::vector<int32_t> CopyToOrig;
  for (const BranchRef &Ref : PR.Transformed.branchLocations())
    CopyToOrig.push_back(PR.Transformed.Functions[Ref.FuncIdx]
                             .Blocks[Ref.BlockIdx]
                             .Insts[Ref.InstIdx]
                             .OrigBranchId);
  Stopwatch SWSound;
  std::vector<sa::Diagnostic> Diags =
      sa::checkReplicationSoundness(M, PR.Transformed, &CopyToOrig);
  SWSound.stop(S, "sa.soundness");
  for (const Function &Fn : PR.Transformed.Functions)
    S["sa.soundness.blocks"] += static_cast<double>(Fn.Blocks.size());
  if (!Diags.empty())
    F.add(Rec.label() + ": soundness check of the transformed module failed");

  // cmdReplicate: misprediction before (profile-annotated original) and
  // after (transformed), both under the event cap.
  TraceStats Stats(static_cast<uint32_t>(M.conditionalBranchCount()));
  Stats.addTrace(CT);
  Module Annotated = M;
  annotateProfilePredictions(Annotated, Stats);
  ExecOptions EO;
  EO.MaxBranchEvents = EventCap;
  Stopwatch SWMeasure;
  PredictionStats Before = measureAnnotatedPredictions(Annotated, EO);
  PredictionStats After = measureAnnotatedPredictions(PR.Transformed, EO);
  SWMeasure.stop(S, "interp.measure");
  S["interp.measure.events"] +=
      static_cast<double>(Before.Predictions + After.Predictions);
}

/// One program of the sweep workload: cmdSweep's calls, with path profiling
/// also timed on its own.
void traceSweep(const Workload &W, uint64_t Seed, unsigned Jobs, Sums &S,
                ColdHits &Hits, Failures &F, ProgramRecord &Rec) {
  SearchCache &Cache = SearchCache::global();
  Module M;
  Stopwatch SWTrace;
  ColumnarTrace CT = traceWorkloadColumnar(W, Seed, M, EventCap);
  SWTrace.stop(S, "interp.trace");
  S["interp.trace.events"] += static_cast<double>(CT.size());

  Stopwatch SWAnalysis;
  ProgramAnalysis PA(M);
  SWAnalysis.stop(S, "analysis");
  S["analysis.branches"] += PA.numBranches();

  Stopwatch SWProfiles;
  ProfileSet Profiles = buildLoopAwareProfiles(PA, CT);
  SWProfiles.stop(S, "core.profiles");
  S["core.profiles.events"] += static_cast<double>(CT.size());

  SweepOptions Opts;
  Opts.MaxStates = MaxStates;
  Opts.MaxSizeFactor = SweepBudget;
  Opts.NodeBudget = NodeBudget;
  Opts.Jobs = Jobs;

  tracePaths(PA, Profiles, CT, Opts.MinExecutions, nullptr, S);

  Cache.clear();
  Stopwatch SWSweep;
  std::vector<SweepPoint> Points = computeSizeSweep(PA, Profiles, CT, Opts);
  SWSweep.stop(S, "core.sweep");
  Hits.check(Rec.label() + " computeSizeSweep", Cache.stats().Hits, S, F);
  S["core.sweep.points"] += static_cast<double>(Points.size());
  Rec.SweepPoints = Points.size();
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

/// Turns one repetition's sums into the reported per-layer metrics. Layers
/// the command never calls read 0.
std::map<std::string, double> layerMetrics(Sums &S) {
  auto PerSecond = [&S](const char *Count, const char *Layer) {
    return ratio(S[Count], S[std::string(Layer) + ".ms"] / 1e3);
  };
  return {
      {"interp.trace.ms", S["interp.trace.ms"]},
      {"interp.trace.events", S["interp.trace.events"]},
      {"interp.trace.events_per_s",
       PerSecond("interp.trace.events", "interp.trace")},
      {"interp.measure.ms", S["interp.measure.ms"]},
      {"interp.measure.events_per_s",
       PerSecond("interp.measure.events", "interp.measure")},
      {"analysis.ms", S["analysis.ms"]},
      {"analysis.branches", S["analysis.branches"]},
      {"sa.proofs.ms", S["sa.proofs.ms"]},
      {"sa.proofs.proven", S["sa.proofs.proven"]},
      {"sa.soundness.ms", S["sa.soundness.ms"]},
      {"sa.soundness.blocks_per_s",
       PerSecond("sa.soundness.blocks", "sa.soundness")},
      {"core.profiles.ms", S["core.profiles.ms"]},
      {"core.profiles.events_per_s",
       PerSecond("core.profiles.events", "core.profiles")},
      {"core.paths.ms", S["core.paths.ms"]},
      {"core.paths.candidates", S["core.paths.candidates"]},
      {"core.paths.events_per_s",
       PerSecond("core.paths.events", "core.paths")},
      {"core.search.ms", S["core.search.ms"]},
      {"core.search.cpu_ms", S["core.search.cpu_ms"]},
      {"core.search.cache_misses", S["core.search.cache_misses"]},
      {"core.search.useful_ratio",
       ratio(S["core.search.useful"], S["core.search.searched"])},
      {"core.joint.ms", S["core.joint.ms"]},
      {"core.joint.profile_ms", S["core.joint.profile.ms"]},
      {"core.joint.groups", S["core.joint.groups"]},
      {"core.joint.events_per_s",
       PerSecond("core.joint.events", "core.joint.profile")},
      {"core.replicate.ms", S["core.replicate.ms"]},
      {"core.replicate.cpu_ms", S["core.replicate.cpu_ms"]},
      {"core.replicate.applied", S["core.replicate.applied"]},
      {"core.replicate.skipped_structure",
       S["core.replicate.skipped_structure"]},
      {"core.replicate.skipped_budget", S["core.replicate.skipped_budget"]},
      {"core.replicate.applied_ratio",
       ratio(S["core.replicate.applied"],
             S["core.replicate.applied"] +
                 S["core.replicate.skipped_structure"] +
                 S["core.replicate.skipped_budget"])},
      {"core.sweep.ms", S["core.sweep.ms"]},
      {"core.sweep.cpu_ms", S["core.sweep.cpu_ms"]},
      {"core.sweep.points", S["core.sweep.points"]},
      {"search.cache.hits", S["search.cache.hits"]},
  };
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

JsonValue programJson(const ProgramRecord &Rec, bool Replicate) {
  JsonValue J = JsonValue::object();
  J.set("program", JsonValue::str(Rec.Name));
  J.set("seed", JsonValue::integer(Rec.Seed));
  if (!Replicate) {
    J.set("sweep_points", JsonValue::integer(uint64_t{Rec.SweepPoints}));
    return J;
  }
  const PipelineResult &PR = Rec.Replicated;
  J.set("orig_instructions", JsonValue::integer(PR.OrigInstructions));
  J.set("new_instructions", JsonValue::integer(PR.NewInstructions));
  J.set("loop", JsonValue::integer(uint64_t{PR.LoopReplications}));
  J.set("joint", JsonValue::integer(uint64_t{PR.JointReplications}));
  J.set("correlated", JsonValue::integer(uint64_t{PR.CorrelatedReplications}));
  J.set("skipped_budget", JsonValue::integer(uint64_t{PR.SkippedBudget}));
  J.set("skipped_structure",
        JsonValue::integer(uint64_t{PR.SkippedStructure}));
  return J;
}

bool parseU64(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(Text, &End, 10);
  return *Text != '\0' && End && *End == '\0';
}

/// Parses "1,2,3" into \p Out; false on an empty or malformed list.
bool parseSeeds(const std::string &Text, std::vector<uint64_t> &Out) {
  size_t Pos = 0;
  while (true) {
    size_t Comma = Text.find(',', Pos);
    uint64_t Seed = 0;
    if (!parseU64(Text.substr(Pos, Comma - Pos).c_str(), Seed))
      return false;
    Out.push_back(Seed);
    if (Comma == std::string::npos)
      return true;
    Pos = Comma + 1;
  }
}

int cmdTrace(int Argc, char **Argv) {
  const std::string Mode = Argv[2];
  std::vector<uint64_t> Seeds;
  uint64_t Seconds = 0, Jobs = 0;
  if ((Mode != "replicate" && Mode != "sweep") ||
      !parseSeeds(Argv[3], Seeds) || !parseU64(Argv[4], Seconds) ||
      !parseU64(Argv[5], Jobs) || Jobs == 0) {
    std::fprintf(stderr, "perfbench_layers: bad trace arguments\n");
    return 2;
  }
  std::vector<const Workload *> Programs;
  for (int I = 6; I < Argc; ++I) {
    const Workload *W = findWorkload(Argv[I]);
    if (!W) {
      std::fprintf(stderr, "perfbench_layers: unknown program '%s'\n",
                   Argv[I]);
      return 2;
    }
    Programs.push_back(W);
  }
  const bool Replicate = Mode == "replicate";

  std::map<std::string, std::vector<double>> Samples;
  std::vector<ProgramRecord> FirstRuns;
  ColdHits Hits;
  Failures F;
  uint64_t Attempted = 0;
  const auto Start = std::chrono::steady_clock::now();
  const std::chrono::duration<double> Budget(static_cast<double>(Seconds));
  // Repetitions cycle through the input seeds; every seed runs at least
  // once.
  for (size_t Rep = 0;
       Rep < Seeds.size() || std::chrono::steady_clock::now() - Start < Budget;
       ++Rep) {
    const uint64_t Seed = Seeds[Rep % Seeds.size()];
    Sums S;
    for (const Workload *W : Programs) {
      ProgramRecord Rec;
      Rec.Name = W->Name;
      Rec.Seed = Seed;
      ++Attempted;
      const uint64_t Before = F.Count;
      if (Replicate)
        traceReplicate(*W, Seed, static_cast<unsigned>(Jobs), S, Hits, F,
                       Rec);
      else
        traceSweep(*W, Seed, static_cast<unsigned>(Jobs), S, Hits, F, Rec);
      // A program counts once however many of its checks failed.
      F.Count = std::min(F.Count, Before + 1);
      if (Rep < Seeds.size())
        FirstRuns.push_back(std::move(Rec));
    }
    for (const auto &[Name, Value] : layerMetrics(S))
      Samples[Name].push_back(Value);
  }

  JsonValue Doc = JsonValue::object();
  Doc.set("repetitions",
          JsonValue::integer(uint64_t{Samples.begin()->second.size()}));
  Doc.set("attempted", JsonValue::integer(Attempted));
  Doc.set("failed", JsonValue::integer(F.Count));
  JsonValue Errors = JsonValue::array();
  for (const std::string &M : F.Messages)
    Errors.push(JsonValue::str(M));
  Doc.set("errors", std::move(Errors));
  JsonValue Metrics = JsonValue::object();
  for (const auto &[Name, Values] : Samples)
    Metrics.set(Name, JsonValue::number(median(Values)));
  Doc.set("metrics", std::move(Metrics));
  JsonValue Progs = JsonValue::array();
  for (const ProgramRecord &Rec : FirstRuns)
    Progs.push(programJson(Rec, Replicate));
  Doc.set("programs", std::move(Progs));
  std::printf("%s\n", Doc.dump(0).c_str());
  return 0;
}

/// A fixed workload shaped like the interpreter's hot loop: opcode
/// dispatch, a register file, data-dependent branches and a small heap.
/// run.py times it between passes to factor the machine's current speed out
/// of the end-to-end times. It belongs to the benchmark, so no change to
/// bpcr moves it.
int cmdCalibrate() {
  enum Op : uint8_t { Add, Xor, Shl, Load, Store, Br, Dec };
  struct Inst {
    Op O;
    uint8_t A, B;
    uint32_t Target;
  };
  // r1 = mem[lcg]; r2 = r1 ^ (r3 >> 7); r3 = r2 << 3; r1 += r3;
  // if (r1 <= 0) mem[r2] = r1; r4 += r1; loop while --r5 > 0.
  static const Inst Prog[] = {{Load, 1, 0, 0}, {Xor, 2, 1, 0}, {Shl, 3, 2, 0},
                              {Add, 1, 3, 0},  {Br, 1, 0, 6},  {Store, 1, 2, 0},
                              {Add, 4, 1, 0},  {Dec, 5, 0, 0}, {Br, 5, 0, 0}};
  constexpr uint32_t End = sizeof(Prog) / sizeof(Prog[0]);
  const auto Start = std::chrono::steady_clock::now();
  std::vector<uint64_t> Mem(1 << 14);
  for (size_t I = 0; I < Mem.size(); ++I)
    Mem[I] = I * 2654435761u;
  uint64_t R[8] = {0, 0, 0, 88172645463325252ull, 0, 0, 0, 0};
  for (int Round = 0; Round < 30; ++Round) {
    R[5] = 100'000;
    for (uint32_t PC = 0; PC < End;) {
      const Inst &In = Prog[PC++];
      switch (In.O) {
      case Add:
        R[In.A] += R[In.B];
        break;
      case Xor:
        R[In.A] = R[In.B] ^ (R[3] >> 7);
        break;
      case Shl:
        R[In.A] = R[In.B] << 3;
        break;
      case Load:
        R[In.A] = Mem[R[3] & (Mem.size() - 1)];
        R[3] = R[3] * 6364136223846793005ull + 1442695040888963407ull;
        break;
      case Store:
        Mem[R[In.B] & (Mem.size() - 1)] = R[In.A];
        break;
      case Br:
        if (static_cast<int64_t>(R[In.A]) > 0)
          PC = In.Target;
        break;
      case Dec:
        --R[In.A];
        break;
      }
    }
  }
  std::chrono::duration<double, std::milli> Ms =
      std::chrono::steady_clock::now() - Start;
  JsonValue Doc = JsonValue::object();
  Doc.set("ms", JsonValue::number(Ms.count()));
  Doc.set("checksum", JsonValue::integer(R[4]));
  std::printf("%s\n", Doc.dump(0).c_str());
  return 0;
}

int cmdCheck(int Argc, char **Argv) {
  const Workload *W = findWorkload(Argv[2]);
  uint64_t Seed = 0;
  if (!W || !parseU64(Argv[3], Seed)) {
    std::fprintf(stderr, "perfbench_layers: bad check arguments\n");
    return 2;
  }
  JsonValue Doc = JsonValue::object();
  std::string Error;
  Module M = W->Build(Seed);
  M.assignBranchIds();
  ExecOptions EO;
  EO.MaxBranchEvents = EventCap;
  ExecResult Orig = execute(M, nullptr, EO);
  Doc.set("events", JsonValue::integer(Orig.BranchEvents));
  Doc.set("orig_instructions", JsonValue::integer(M.instructionCount()));
  if (!Orig.Ok)
    Error = "original module failed to execute: " + Orig.Error;

  if (Argc > 4 && Error.empty()) {
    Module R;
    std::string LoadError;
    if (!readModuleFile(Argv[4], R, LoadError)) {
      Error = "cannot reload the replicated module: " + LoadError;
    } else if (std::vector<std::string> V = verifyModule(R); !V.empty()) {
      Error = "replicated module failed verification: " + V.front();
    } else {
      ExecResult Rep = execute(R, nullptr, EO);
      if (!Rep.Ok)
        Error = "replicated module failed to execute: " + Rep.Error;
      else if (Rep.ReturnValue != Orig.ReturnValue)
        Error = "replicated module returned a different value";
      else if (Rep.Memory != Orig.Memory)
        Error = "replicated module left a different memory image";
      PredictionStats PS = measureAnnotatedPredictions(R, EO);
      Doc.set("new_instructions", JsonValue::integer(R.instructionCount()));
      Doc.set("predictions", JsonValue::integer(PS.Predictions));
      Doc.set("mispredictions", JsonValue::integer(PS.Mispredictions));
    }
  }
  Doc.set("ok", JsonValue::boolean(Error.empty()));
  Doc.set("error", JsonValue::str(Error));
  std::printf("%s\n", Doc.dump(0).c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  const std::string Cmd = Argc > 1 ? Argv[1] : "";
  if (Cmd == "check" && (Argc == 4 || Argc == 5))
    return cmdCheck(Argc, Argv);
  if (Cmd == "trace" && Argc >= 7)
    return cmdTrace(Argc, Argv);
  if (Cmd == "calibrate" && Argc == 2)
    return cmdCalibrate();
  std::fprintf(stderr,
               "usage: perfbench_layers calibrate\n"
               "       perfbench_layers check <program> <seed> [MODULE]\n"
               "       perfbench_layers trace <replicate|sweep> "
               "<seed,seed,...> <seconds> <jobs> <program>...\n");
  return 2;
}
