//===- core/Pipeline.cpp --------------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"

#include "core/BranchProfiles.h"
#include "core/JointMachine.h"
#include "core/LoopAwareProfiles.h"
#include "core/TraceProfiles.h"
#include "interp/TimelineSink.h"
#include "obs/Metrics.h"
#include "obs/Profiler.h"
#include "obs/TimeSeries.h"
#include "obs/TraceSpans.h"
#include "sa/Dataflow.h"
#include "sa/ReplicationSoundness.h"
#include "trace/ColumnarTrace.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>

using namespace bpcr;

namespace {

/// Minimum training-trace gain (extra correct predictions) a machine must
/// deliver before its branch is replicated. A joint plan must exceed it, a
/// per-branch machine must reach it; reconciling the two tests belongs
/// with the paper's sec. 5 cost function.
constexpr uint64_t MinGain = 1;

/// Mirrors the timeline's windowed misprediction rate onto Chrome Trace
/// counter tracks so the rate curve renders on the span timeline. Uses the
/// wall-clock samples the sink stamped during the measurement run; windows
/// without a sample (tracer enabled mid-run, merged tails) are skipped. A
/// no-op unless the tracer is live.
void publishTimelineCounters(const TimeSeriesData &TS) {
  SpanTracer &Tracer = SpanTracer::global();
  if (!Tracer.enabled() || TS.empty())
    return;
  std::vector<CounterSample> Rate, Events;
  for (const TimeSeriesWindow &W : TS.Windows) {
    if (W.WallNs == 0)
      continue;
    Rate.push_back(
        {W.WallNs, TimeSeriesData::percent(W.Mispredictions, W.Events)});
    Events.push_back({W.WallNs, static_cast<double>(W.Events)});
  }
  Tracer.addCounterTrack("timeline.miss_rate_percent", std::move(Rate));
  Tracer.addCounterTrack("timeline.window_events", std::move(Events));
}

/// Locates the first instance of \p OrigId in the transformed module \p M:
/// its function \p F and, when \p L is non-null, the innermost loop around
/// it. \returns why a transform of the branch is skipped, or nullptr.
const char *locateInstance(Module &M, int32_t OrigId, Function *&F,
                           Loop *L) {
  for (Function &Fn : M.Functions)
    for (uint32_t BI = 0; BI < Fn.Blocks.size(); ++BI) {
      if (!Fn.Blocks[BI].isComplete())
        continue;
      const Instruction &T = Fn.Blocks[BI].terminator();
      if (!T.isConditionalBranch() || T.OrigBranchId != OrigId)
        continue;
      F = &Fn;
      if (!L)
        return nullptr;
      CFG G(Fn);
      Dominators D(G);
      LoopInfo LI(G, D);
      int32_t LoopIdx = LI.innermostLoop(BI);
      if (LoopIdx < 0)
        return "no innermost loop around the branch instance";
      *L = LI.loops()[static_cast<size_t>(LoopIdx)];
      return nullptr;
    }
  return "branch instance vanished from the transformed module";
}

/// replicateModule, analyzing and profiling \p T itself or reading the
/// analysis, proofs and profiles of a streamed trace run from \p Pre.
PipelineResult replicate(const Module &M, const ColumnarTrace &T,
                         const PipelineOptions &Opts,
                         const TraceProfiles *Pre) {
  assert((!Pre || Pre->HasProofs) &&
         "the trace run did not compute the branch proofs");
  PipelineResult R;
  R.Transformed = M;
  R.OrigInstructions = M.instructionCount();

  Span PipeSpan("pipeline.replicate", "pipeline");
  PipeSpan.arg("orig_instructions", R.OrigInstructions);

  const bool ObsOn = Registry::global().enabled();
  if (ObsOn)
    Registry::global().counter("pipeline.runs").inc();

  // Re-verifies the simulation relation between the original module and the
  // current transformed state. Runs after every applied transform so a
  // soundness break is pinned to the step that introduced it, and once more
  // after annotation with the copy->original branch map; findings
  // accumulate in R.Soundness for callers to fail fast on.
  auto CheckSoundness = [&R, &M, ObsOn](
                            const char *Stage,
                            const std::vector<int32_t> *CopyToOrig = nullptr) {
    Span SSound("pipeline.phase.soundness");
    std::vector<sa::Diagnostic> Diags =
        sa::checkReplicationSoundness(M, R.Transformed, CopyToOrig);
    if (ObsOn) {
      Registry::global().counter("sa.soundness.checks").inc();
      if (!Diags.empty())
        Registry::global().counter("sa.soundness.failures").inc();
    }
    for (sa::Diagnostic &D : Diags) {
      D.note(sa::Location{},
             std::string("detected after the ") + Stage + " step");
      R.Soundness.push_back(std::move(D));
    }
  };

  // Profile and select strategies on the original module. Loop-aware
  // profiles keep the machine scores faithful to the replicated program
  // (the machine state resets on loop re-entry).
  Profiler::global().sampleRss("pipeline.start");

  Span SLoops("pipeline.phase.loop_analysis");
  std::unique_ptr<ProgramAnalysis> OwnPA;
  if (!Pre)
    OwnPA = std::make_unique<ProgramAnalysis>(M);
  const ProgramAnalysis &PA = Pre ? *Pre->PA : *OwnPA;
  SLoops.arg("branches", static_cast<uint64_t>(PA.numBranches()));
  SLoops.end();
  Profiler::global().sampleRss("loop_analysis");

  // Branch-direction proofs: interval propagation over the original module
  // proves some branches unidirectional before any profiling happens. The
  // proofs prune the pattern-table fill and the machine search below and
  // fold the static prediction after annotation.
  Span SProof("pipeline.phase.proof_analysis");
  sa::BranchProofs OwnProofs;
  if (!Pre)
    OwnProofs = sa::computeBranchProofs(M);
  const sa::BranchProofs &Proofs = Pre ? Pre->Proofs : OwnProofs;
  SProof.arg("proven", static_cast<uint64_t>(Proofs.provenCount()));
  SProof.end();
  if (ObsOn)
    Registry::global()
        .gauge("sa.proofs.pruned_branches")
        .set(static_cast<double>(Proofs.provenCount()));
  Profiler::global().sampleRss("proof_analysis");

  Span SProfile("pipeline.phase.profiling");
  ProfileSet OwnProfiles(0);
  if (!Pre)
    OwnProfiles = buildLoopAwareProfiles(PA, T, /*MaxBits=*/9, &Proofs,
                                         Opts.Strategy.Jobs);
  const ProfileSet &Profiles = Pre ? Pre->Profiles : OwnProfiles;
  TraceStats Stats(PA.numBranches());
  Stats.addTrace(T);
  SProfile.end();
  Profiler::global().sampleRss("profiling");

  Span SSearch("pipeline.phase.machine_search");
  SelectionTrace SelTrace;
  StrategyOptions StratOpts = Opts.Strategy;
  StratOpts.Proofs = &Proofs;
  R.Strategies = selectStrategies(PA, Profiles, T, StratOpts,
                                  ObsOn ? &SelTrace : nullptr,
                                  Pre ? &Pre->Paths : nullptr);
  SSearch.arg("strategies", static_cast<uint64_t>(R.Strategies.size()));
  SSearch.end();
  Profiler::global().sampleRss("machine_search");

  // Estimated instructions a strategy's replication adds: the paper's cost
  // function weighing accuracy gain against code growth.
  auto EstimateCost = [&](const BranchStrategy &S) -> uint64_t {
    if (S.Kind == StrategyKind::Correlated)
      return correlatedReplicationCost(*S.Corr, PA);
    const BranchClass &C = PA.classOf(S.BranchId);
    if (C.LoopIdx < 0 || !S.Machine)
      return 1;
    const Loop &L = PA.loopInfoFor(S.BranchId)
                        .loops()[static_cast<size_t>(C.LoopIdx)];
    return loopCopyCost(
        loopInstructionCount(M.Functions[PA.ref(S.BranchId).FuncIdx], L),
        BranchLoopMachine(*S.Machine, S.BranchId).reachableStateCount());
  };

  auto Gain = [&R, &Profiles](size_t I) -> uint64_t {
    const BranchStrategy &S = R.Strategies[I];
    const BranchProfile &P = Profiles.branch(S.BranchId);
    uint64_t ProfCorrect = P.executions() - P.profileMispredictions();
    return S.Correct > ProfCorrect ? S.Correct - ProfCorrect : 0;
  };

  // Joint machines (paper sec. 6): when several branches of one loop earn
  // loop machines, one joint machine replaces the multiplicative product of
  // their per-branch copies. Members handled jointly leave the per-branch
  // ordering below.
  struct JointPlan {
    std::vector<int32_t> Members;
    std::vector<size_t> StrategyIndices;
    JointLoopMachine Machine;
    uint64_t Gain = 0;
    uint64_t Cost = 1;
  };
  const uint64_t SizeCap = static_cast<uint64_t>(
      static_cast<double>(R.OrigInstructions) * Opts.MaxSizeFactor);

  std::vector<JointPlan> JointPlans;
  std::vector<bool> HandledJointly(R.Strategies.size(), false);
  Span SJoint("pipeline.phase.joint_planning");
  std::map<std::pair<uint32_t, int32_t>, std::vector<size_t>> Groups;
  for (size_t I = 0; I < R.Strategies.size(); ++I) {
    const BranchStrategy &S = R.Strategies[I];
    if (S.Kind != StrategyKind::IntraLoop && S.Kind != StrategyKind::LoopExit)
      continue;
    const BranchClass &C = PA.classOf(S.BranchId);
    Groups[{PA.ref(S.BranchId).FuncIdx, C.LoopIdx}].push_back(I);
  }
  for (const auto &[Key, Indices] : Groups) {
    if (Indices.size() < 2)
      continue;
    JointPlan Plan;
    uint64_t ProfCorrect = 0;
    for (size_t I : Indices) {
      Plan.Members.push_back(R.Strategies[I].BranchId);
      const BranchProfile &P = Profiles.branch(R.Strategies[I].BranchId);
      ProfCorrect += P.executions() - P.profileMispredictions();
    }
    JointOptions JO;
    JO.MaxStates = Opts.JointMaxStates;
    JO.MaxLen = 4;
    JO.Exhaustive = Opts.Strategy.Exhaustive;
    JO.NodeBudget = Opts.Strategy.NodeBudget;
    JointProfile JP = profileJointLoop(PA, Plan.Members, T, JO.MaxLen);
    if (JP.Executions == 0)
      continue;

    // The loop every member shares (for budget-aware machine sizing and
    // the cost below).
    const Loop &GroupLoop =
        PA.loopInfoFor(Plan.Members[0])
            .loops()[static_cast<size_t>(Key.second)];
    const uint64_t LoopSize =
        loopInstructionCount(M.Functions[Key.first], GroupLoop);

    // Shrink the machine until its copies fit the size budget.
    bool Fits = false;
    for (unsigned States = Opts.JointMaxStates; States >= 3; --States) {
      JO.MaxStates = States;
      Plan.Machine = buildJointLoopMachine(Plan.Members, JP, JO);
      if (R.OrigInstructions +
              loopCopyCost(LoopSize, Plan.Machine.numStates()) <=
          SizeCap) {
        Fits = true;
        break;
      }
    }
    if (!Fits || Plan.Machine.Correct <= ProfCorrect + MinGain)
      continue;
    Plan.Gain = Plan.Machine.Correct - ProfCorrect;

    // Compete with the per-branch alternative on gain per instruction:
    // separate machines pay the PRODUCT of their sizes in loop copies
    // (paper sec. 6), the joint machine pays only its own state count.
    uint64_t PerBranchGain = 0;
    uint64_t PerBranchStatesProduct = 1;
    for (size_t I : Indices) {
      PerBranchGain += Gain(I);
      PerBranchStatesProduct *= std::max(1u, R.Strategies[I].States);
    }

    // Cost: one loop copy per additional *reachable* state.
    Plan.Cost = std::max<uint64_t>(
        loopCopyCost(LoopSize, Plan.Machine.reachableStateCount()), 1);
    uint64_t PerBranchCost = std::max<uint64_t>(
        loopCopyCost(LoopSize, PerBranchStatesProduct), 1);
    double JointRatio = static_cast<double>(Plan.Gain) /
                        static_cast<double>(Plan.Cost);
    double SeparateRatio = static_cast<double>(PerBranchGain) /
                           static_cast<double>(PerBranchCost);
    if (JointRatio < SeparateRatio)
      continue; // separate machines are the better deal here

    Plan.StrategyIndices.assign(Indices.begin(), Indices.end());
    for (size_t I : Indices)
      HandledJointly[I] = true;
    JointPlans.push_back(std::move(Plan));
  }
  SJoint.arg("plans", static_cast<uint64_t>(JointPlans.size()));
  SJoint.end();
  Profiler::global().sampleRss("joint_planning");

  Span SRepl("pipeline.phase.replication");

  // Records one decision about the strategy at index \p I.
  auto LogStrategy = [&R](size_t I, DecisionAction Action, uint64_t Gained,
                          uint64_t Cost, std::string Reason) {
    const BranchStrategy &S = R.Strategies[I];
    BranchDecision D;
    D.BranchId = S.BranchId;
    D.Strategy = strategyKindName(S.Kind);
    D.Action = Action;
    D.EstimatedGain = Gained;
    D.SizeCost = Cost;
    D.Reason = std::move(Reason);
    R.Decisions.add(std::move(D));
  };

  // Joint plans first, best gain-per-instruction leading. A plan that is
  // skipped releases its members back to the per-branch path below.
  std::sort(JointPlans.begin(), JointPlans.end(),
            [](const JointPlan &A, const JointPlan &B) {
              return static_cast<double>(A.Gain) /
                         static_cast<double>(A.Cost) >
                     static_cast<double>(B.Gain) /
                         static_cast<double>(B.Cost);
            });
  for (const JointPlan &Plan : JointPlans) {
    Span SApplyJoint("pipeline.apply.joint", "replicate");
    SApplyJoint.arg("members", static_cast<uint64_t>(Plan.Members.size()));
    SApplyJoint.arg("gain", Plan.Gain);
    SApplyJoint.arg("cost", Plan.Cost);
    Function *F = nullptr;
    Loop L;
    const bool OverBudget =
        R.Transformed.instructionCount() + Plan.Cost > SizeCap;
    const char *SkipReason =
        OverBudget ? "joint machine copies exceed the code-size budget"
                   : locateInstance(R.Transformed, Plan.Members[0], F, &L);
    if (!SkipReason) {
      applyLoopReplication(*F, L.Blocks, Plan.Machine);
      ++R.JointReplications;
      CheckSoundness("joint replication");
      std::string Reason = "joint loop machine over " +
                           std::to_string(Plan.Members.size()) + " branches";
      for (size_t I : Plan.StrategyIndices)
        LogStrategy(I, DecisionAction::AppliedJoint, Plan.Gain, Plan.Cost,
                    Reason);
      continue;
    }
    ++(OverBudget ? R.SkippedBudget : R.SkippedStructure);
    BranchDecision D;
    D.BranchId = Plan.Members[0];
    D.Strategy = "joint";
    D.Action = OverBudget ? DecisionAction::SkippedBudget
                          : DecisionAction::SkippedStructure;
    D.EstimatedGain = Plan.Gain;
    D.SizeCost = Plan.Cost;
    D.Reason = std::string(SkipReason) +
               "; members fall back to per-branch machines";
    R.Decisions.add(std::move(D));
    for (size_t I : Plan.StrategyIndices)
      HandledJointly[I] = false;
  }

  // Apply the best gain-per-instruction per-branch machines next.
  std::vector<size_t> Order;
  for (size_t I = 0; I < R.Strategies.size(); ++I)
    if (R.Strategies[I].Kind != StrategyKind::Profile && !HandledJointly[I])
      Order.push_back(I);
  std::vector<uint64_t> Costs(R.Strategies.size(), 1);
  for (size_t I : Order)
    Costs[I] = std::max<uint64_t>(EstimateCost(R.Strategies[I]), 1);
  std::sort(Order.begin(), Order.end(),
            [&R, &Gain, &Costs](size_t A, size_t B) {
              double RA = static_cast<double>(Gain(A)) /
                          static_cast<double>(Costs[A]);
              double RB = static_cast<double>(Gain(B)) /
                          static_cast<double>(Costs[B]);
              if (RA != RB)
                return RA > RB;
              return R.Strategies[A].BranchId < R.Strategies[B].BranchId;
            });

  for (size_t I : Order) {
    const BranchStrategy &S = R.Strategies[I];
    Span SApply("pipeline.apply", "replicate");
    SApply.arg("branch", static_cast<int64_t>(S.BranchId));
    SApply.arg("strategy", strategyKindName(S.Kind));
    SApply.arg("gain", Gain(I));
    if (Gain(I) < MinGain) {
      LogStrategy(I, DecisionAction::SkippedGain, Gain(I), Costs[I],
                  "gain " + std::to_string(Gain(I)) + " below minimum " +
                      std::to_string(MinGain));
      continue;
    }

    // Loop machines act on the instance's innermost loop in the
    // *transformed* function.
    const bool Correlated = S.Kind == StrategyKind::Correlated;
    Function *F = nullptr;
    Loop L;
    if (const char *Why = locateInstance(R.Transformed, S.BranchId, F,
                                         Correlated ? nullptr : &L)) {
      ++R.SkippedStructure;
      LogStrategy(I, DecisionAction::SkippedStructure, Gain(I), Costs[I],
                  Why);
      continue;
    }

    if (Correlated) {
      if (R.Transformed.instructionCount() + Costs[I] > SizeCap) {
        ++R.SkippedBudget;
        LogStrategy(I, DecisionAction::SkippedBudget, Gain(I), Costs[I],
                    "path copies exceed the code-size budget");
        continue;
      }
      ReplicationStats RS =
          applyCorrelatedReplication(*F, S.BranchId, *S.Corr);
      if (RS.Applied) {
        ++R.CorrelatedReplications;
        CheckSoundness("correlated replication");
        LogStrategy(I, DecisionAction::Applied, Gain(I), Costs[I],
                    "tail-duplicated " + std::to_string(RS.BlocksAdded) +
                        " blocks for the selected paths");
      } else {
        ++R.SkippedStructure;
        LogStrategy(I, DecisionAction::SkippedStructure, Gain(I), Costs[I],
                    "correlated transform could not locate the paths");
      }
      continue;
    }

    // Budget check against the *current* loop size: replicating a loop a
    // second branch shares multiplies the copies (paper sec. 6).
    const BranchLoopMachine Machine(*S.Machine, S.BranchId);
    uint64_t Cost = loopCopyCost(loopInstructionCount(*F, L),
                                 Machine.reachableStateCount());
    if (R.Transformed.instructionCount() + Cost > SizeCap) {
      ++R.SkippedBudget;
      LogStrategy(I, DecisionAction::SkippedBudget, Gain(I), Cost,
                  "loop copies exceed the code-size budget");
      continue;
    }

    ReplicationStats RS = applyLoopReplication(*F, L.Blocks, Machine);
    ++R.LoopReplications;
    CheckSoundness("loop replication");
    LogStrategy(I, DecisionAction::Applied, Gain(I), Cost,
                "materialized " + std::to_string(RS.StatesMaterialized) +
                    " machine states as loop copies");
  }

  // Branches that kept the profile strategy close out the decision log.
  for (size_t I = 0; I < R.Strategies.size(); ++I) {
    const BranchStrategy &S = R.Strategies[I];
    if (S.Kind != StrategyKind::Profile)
      continue;
    uint64_t Execs = Profiles.branch(S.BranchId).executions();
    LogStrategy(I, DecisionAction::KeptProfile, 0, 0,
                Execs < Opts.Strategy.MinExecutions
                    ? "cold branch (" + std::to_string(Execs) +
                          " executions)"
                    : "no machine beat the profile prediction");
  }
  SRepl.arg("loop", static_cast<uint64_t>(R.LoopReplications));
  SRepl.arg("joint", static_cast<uint64_t>(R.JointReplications));
  SRepl.arg("correlated", static_cast<uint64_t>(R.CorrelatedReplications));
  SRepl.end();
  Profiler::global().sampleRss("replication");

  Span SAnnotate("pipeline.phase.annotation");
  annotateProfilePredictions(R.Transformed, Stats);
  R.Transformed.assignBranchIds();

  if (Proofs.provenCount() > 0) {
    // Fold the proofs into the static predictions. For executed proven
    // branches the trace majority already equals the proven direction, so
    // this is an identity rewrite; for proven branches the training trace
    // never reached it upgrades the annotation from a guess to a fact.
    for (Function &F : R.Transformed.Functions)
      for (BasicBlock &BB : F.Blocks)
        for (Instruction &I : BB.Insts)
          if (I.isConditionalBranch() && Proofs.proven(I.OrigBranchId))
            I.Predicted = Proofs.dirOf(I.OrigBranchId);

    // Re-validate every fold: a single training-trace event disagreeing
    // with a proof means the interval analysis is unsound somewhere, which
    // is a soundness error, not a quality regression.
    for (uint32_t Id = 0; Id < PA.numBranches(); ++Id) {
      if (!Proofs.proven(static_cast<int32_t>(Id)))
        continue;
      const BranchStats &BS = Stats.branch(static_cast<int32_t>(Id));
      Prediction Dir = Proofs.dirOf(static_cast<int32_t>(Id));
      uint64_t Contradicting = Dir == Prediction::Taken
                                   ? BS.Executions - BS.TakenCount
                                   : BS.TakenCount;
      if (Contradicting == 0)
        continue;
      sa::Location Loc;
      R.Soundness.push_back(sa::makeDiag(
          sa::Severity::Error, "const-prop", "proof-contradicted-by-trace",
          Loc,
          "branch #" + std::to_string(Id) + " is proven " +
              (Dir == Prediction::Taken ? "always-taken" : "never-taken") +
              " but the training trace records " +
              std::to_string(Contradicting) +
              " executions in the other direction"));
    }
  }
  SAnnotate.end();
  Profiler::global().sampleRss("annotation");

  // Final soundness pass over the annotated module, this time also
  // cross-validating the materialized copy→original branch map (every
  // replica's OrigBranchId flattened in BranchId order) against the
  // simulation relation.
  std::vector<int32_t> CopyToOrig;
  for (const BranchRef &Ref : R.Transformed.branchLocations())
    CopyToOrig.push_back(R.Transformed.Functions[Ref.FuncIdx]
                             .Blocks[Ref.BlockIdx]
                             .Insts[Ref.InstIdx]
                             .OrigBranchId);
  CheckSoundness("annotation", &CopyToOrig);
  if (ObsOn)
    Registry::global()
        .gauge("sa.soundness.diags")
        .set(static_cast<double>(R.Soundness.size()));

  // The run's one measurement. The baseline follows from the trace
  // statistics; the transformed module executes once, capped at the training
  // trace's event count so both scores cover the same events. With the
  // registry on, the misprediction attribution ledger (selection candidates
  // and runner-up deltas from the strategy trace, the pipeline's verdict from
  // the decision log, measured per-replica correctness) and the timeline
  // ride along on that run.
  R.Baseline = Stats.profilePredictions();
  Span SAttr("pipeline.phase.attribution");
  if (ObsOn) {
    R.Attribution.resize(PA.numBranches());
    for (uint32_t Id = 0; Id < PA.numBranches(); ++Id) {
      BranchAttribution &A = R.Attribution.branch(static_cast<int32_t>(Id));
      const BranchStats &BS = Stats.branch(static_cast<int32_t>(Id));
      A.Executions = BS.Executions;
      A.TakenCount = BS.TakenCount;
      const BranchStrategy &S = R.Strategies[Id];
      A.Strategy = strategyKindName(S.Kind);
      A.TrainCorrect = S.Correct;
      A.TrainTotal = S.Total;
      A.Candidates = std::move(SelTrace.PerBranch[Id]);
      const CandidateScore *BestLoser = nullptr;
      for (const CandidateScore &C : A.Candidates) {
        if (C.Chosen)
          continue;
        if (!BestLoser || C.Correct > BestLoser->Correct)
          BestLoser = &C;
      }
      if (BestLoser) {
        A.RunnerUp = BestLoser->Strategy;
        A.RunnerUpDelta = S.Correct > BestLoser->Correct
                              ? S.Correct - BestLoser->Correct
                              : 0;
      }
    }
    // The pipeline's verdict: the last per-branch record wins (joint-plan
    // skip records carry the "joint" strategy and describe the plan, not
    // the branch).
    for (const BranchDecision &D : R.Decisions.all()) {
      if (D.Strategy == "joint" || D.BranchId < 0 ||
          static_cast<size_t>(D.BranchId) >= R.Attribution.size())
        continue;
      R.Attribution.branch(D.BranchId).Action = decisionActionName(D.Action);
    }
  }
  ExecOptions EO;
  EO.MaxBranchEvents = T.size();
  // Every branch event of the run lands in an event-indexed timeline
  // window, so the windowed series sums to the attribution totals.
  TimeSeriesOptions TSO;
  if (Opts.TimelineWindowEvents != 0)
    TSO.WindowEvents = Opts.TimelineWindowEvents;
  TimeSeries TS(TSO, PA.numBranches());
  TimelineSink TLSink(TS);
  for (const ReplicaMeasurement &C : measureAnnotatedPerReplica(
           R.Transformed, EO, ObsOn ? &TLSink : nullptr)) {
    R.Measured.Predictions += C.Executions;
    R.Measured.Mispredictions += C.Mispredictions;
    if (!ObsOn || C.OrigBranchId < 0 ||
        static_cast<size_t>(C.OrigBranchId) >= R.Attribution.size())
      continue;
    BranchAttribution &A = R.Attribution.branch(C.OrigBranchId);
    A.MeasuredExecutions += C.Executions;
    A.Mispredictions += C.Mispredictions;
    A.Replicas.push_back({C.ReplicaId, C.Executions, C.Mispredictions});
  }
  SAttr.arg("measured_executions", R.Measured.Predictions);
  SAttr.arg("mispredictions", R.Measured.Mispredictions);
  if (ObsOn) {
    R.Timeline = TS.take();
    publishTimelineCounters(R.Timeline);
    SAttr.arg("timeline_windows",
              static_cast<uint64_t>(R.Timeline.Windows.size()));
  }
  SAttr.end();

  R.NewInstructions = R.Transformed.instructionCount();
  PipeSpan.arg("new_instructions", R.NewInstructions);
  PipeSpan.arg("size_factor", R.sizeFactor());
  return R;
}

} // namespace

PipelineResult bpcr::replicateModule(const Module &M, const ColumnarTrace &CT,
                                     const PipelineOptions &Opts) {
  return replicate(M, CT, Opts, nullptr);
}

PipelineResult bpcr::replicateModule(const Module &M, const ColumnarTrace &CT,
                                     const PipelineOptions &Opts,
                                     const TraceProfiles &Pre) {
  return replicate(M, CT, Opts, &Pre);
}
