//===- obs/Report.h - Machine-readable run reports --------------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes a metrics Registry — and, for pipeline runs, the
/// PipelineResult with its per-branch DecisionLog — into a stable JSON
/// schema. `bpcr --metrics`, `bpcr report` and the bench binaries all emit
/// this format, so BENCH_*.json files are comparable across PRs. The schema
/// is versioned (ReportSchemaVersion, "schema_version" in the output) and
/// documented in docs/OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_OBS_REPORT_H
#define BPCR_OBS_REPORT_H

#include "obs/Json.h"
#include "obs/Metrics.h"

#include <string>

namespace bpcr {

struct PipelineResult;

/// Bump when the report layout changes incompatibly.
/// Version history:
///   1 — metrics + pipeline sections.
///   2 — adds the "branches" attribution section (top-K Pareto view plus
///       per-branch "by_id" leaves) to pipeline reports.
///   3 — adds the "timeline" section (windowed misprediction series, phase
///       segmentation, warmup boundary, per-phase top-K branch splits) to
///       pipeline reports.
///   4 — adds the gated "profile" section (self-profiling: per-category
///       self/total wall+CPU span times with opened/recorded/dropped
///       counts, per-site stats, RSS samples, counting-allocator totals,
///       pool.* utilization) when the profiler is enabled.
constexpr int ReportSchemaVersion = 4;

/// Oldest report schema `bpcr compare` and the run ledger read. v1 reports
/// predate the "branches" section and v2 reports the ladder search, whose
/// counters.search.* the gates compare.
constexpr int MinReportSchemaVersion = 3;

/// Context describing the run being reported.
struct ReportMeta {
  /// Producing binary ("bpcr", "headline_replication", ...).
  std::string Tool = "bpcr";
  /// Subcommand or mode ("replicate", "bench", ...).
  std::string Command;
  /// Workload name when the run concerned a single workload.
  std::string Workload;
  uint64_t Seed = 0;
  /// Branch-event cap of the run (0 = not applicable).
  uint64_t Events = 0;
  /// Entries in the report's "branches.top" Pareto list.
  unsigned BranchTopK = 10;
};

/// The registry's counters/gauges/histograms/phase timers as one object.
JsonValue metricsJson(const Registry &R);

/// PipelineResult summary plus its decision log.
JsonValue pipelineJson(const PipelineResult &PR);

/// Full report document; \p PR adds the "pipeline" section when non-null
/// and the "branches" attribution section when its ledger is non-empty.
JsonValue buildReport(const ReportMeta &Meta, const Registry &R,
                      const PipelineResult *PR = nullptr);

/// Pretty-prints \p Report to \p Path. \returns false and sets \p Error on
/// I/O failure or when \p Report contains a non-finite number (the error
/// names the offending member's path).
bool writeReportFile(const std::string &Path, const JsonValue &Report,
                     std::string &Error);

} // namespace bpcr

#endif // BPCR_OBS_REPORT_H
