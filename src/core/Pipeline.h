//===- core/Pipeline.h - Profile -> replicate -> annotate -------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end optimizer of paper sec. 5: profile a module, choose the
/// best prediction strategy per branch, replicate code for the branches
/// where the accuracy gain justifies the size increase ("an optimizer using
/// code replication ... will not improve the whole program, but only
/// certain branches. ... A cost function will calculate whether the
/// increase in [code size] is worth the gain"), and annotate every
/// remaining branch with its profile prediction.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_CORE_PIPELINE_H
#define BPCR_CORE_PIPELINE_H

#include "core/Replication.h"
#include "core/StrategySelection.h"
#include "ir/Module.h"
#include "obs/Attribution.h"
#include "obs/DecisionLog.h"
#include "obs/TimeSeries.h"
#include "sa/Diagnostic.h"

namespace bpcr {

class ColumnarTrace;
struct TraceProfiles;

/// Pipeline parameters.
struct PipelineOptions {
  StrategyOptions Strategy;
  /// Replication stops when the transformed module would exceed this factor
  /// of the original instruction count.
  double MaxSizeFactor = 4.0;
  /// State budget for joint machines. When several branches of one loop
  /// earn machines, a single joint machine for the whole loop competes with
  /// the product of their per-branch copies (the paper's "Further Work"
  /// sec. 6; see bench/ablation_joint).
  unsigned JointMaxStates = 8;
  /// Event-window width for the timeline series recorded during the
  /// measurement run (power of two; 0 keeps the
  /// TimeSeriesOptions default of 1024). Surfaced as `bpcr timeline
  /// --window`.
  uint64_t TimelineWindowEvents = 0;
};

/// Outcome of replicateModule.
struct PipelineResult {
  Module Transformed;
  std::vector<BranchStrategy> Strategies;
  unsigned LoopReplications = 0;
  unsigned JointReplications = 0;
  unsigned CorrelatedReplications = 0;
  unsigned SkippedBudget = 0;
  unsigned SkippedStructure = 0;
  uint64_t OrigInstructions = 0;
  uint64_t NewInstructions = 0;
  /// The profile-annotated original's realized score over the training
  /// trace (paper sec. 5's baseline), computed from the trace statistics
  /// without executing it.
  PredictionStats Baseline;
  /// The transformed module's realized score: one execution of it, capped
  /// at the training trace's event count so it compares with Baseline.
  PredictionStats Measured;
  /// Why each branch was or was not replicated, in pipeline order (joint
  /// plans first, then per-branch strategies by gain per instruction, then
  /// the branches that kept the profile strategy).
  DecisionLog Decisions;
  /// Per-branch misprediction attribution (candidate scores, runner-up
  /// deltas, measured per-replica correctness from the run that fills
  /// Measured). Filled only when the global observability registry is
  /// enabled; empty otherwise.
  AttributionLedger Attribution;
  /// Windowed time-series telemetry of the transformed module's measurement
  /// run (global and per-original-branch taken/misprediction counts per
  /// event window). Filled alongside Attribution when the registry is
  /// enabled; empty otherwise. Feeds `bpcr timeline`, the report's
  /// `timeline` section and the trace viewer's counter tracks.
  TimeSeriesData Timeline;
  /// Findings from the replication soundness checker
  /// (sa/ReplicationSoundness.h), which re-verifies the simulation relation
  /// against the original module after every applied transform and once
  /// more after annotation. Empty means every replicated block provably
  /// simulates its original; tests and `bpcr` fail fast on anything here.
  std::vector<sa::Diagnostic> Soundness;

  double sizeFactor() const {
    return OrigInstructions
               ? static_cast<double>(NewInstructions) /
                     static_cast<double>(OrigInstructions)
               : 1.0;
  }
};

/// Profiles \p M with trace \p CT, replicates the profitable branches,
/// annotates everything else with profile predictions and measures the
/// result once (PipelineResult::Measured). \p M must have
/// branch ids assigned, \p CT must stem from it and be finalized for the
/// module's branch count.
///
/// The const-prop proof engine (sa/Dataflow.h) runs first: proven branches
/// skip the pattern-table fill and the machine search (counted in
/// `search.pruned_by_proof`; proven total in the
/// `sa.proofs.pruned_branches` gauge), their static prediction is folded
/// from the proof after annotation, and the soundness report gains an
/// error if the training trace ever contradicts a proof. Pruning only skips
/// work that could not have changed the outcome.
PipelineResult replicateModule(const Module &M, const ColumnarTrace &CT,
                               const PipelineOptions &Opts);

/// The same pipeline reading the program analysis, the branch proofs, the
/// loop-aware profiles and the path profiles from a streamed trace run of
/// \p M (core/TraceProfiles.h) instead of computing them from \p CT; \p
/// Pre must have been taken with the proofs and with
/// Opts.Strategy.MaxStates.
PipelineResult replicateModule(const Module &M, const ColumnarTrace &CT,
                               const PipelineOptions &Opts,
                               const TraceProfiles &Pre);

} // namespace bpcr

#endif // BPCR_CORE_PIPELINE_H
