//===- obs/Ledger.h - Append-only cross-run perf ledger ---------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An append-only, versioned history of run reports: one JSONL line per
/// run, carrying the flattened metric leaves of a report (obs/Compare.h
/// naming) plus run metadata (tool, command, workload, seed, events, jobs,
/// git SHA, host, timestamp). The bench runners and CI append to it on
/// every run; `bpcr trend` and `bpcr compare --ledger` read it back to turn
/// single-shot baseline diffs into longitudinal, noise-aware regression
/// gates (obs/Trend.h).
///
/// Determinism contract: every field of a record except the trailing
/// volatile ones — `ts_ns`, `host`, `git_sha` and the `perf` object of
/// wall-clock metrics — is a pure function of (workload, seed, events), so
/// stripping those makes records byte-comparable across `--jobs` values,
/// mirroring the report determinism gates. The deterministic/wall-clock
/// split uses the same patterns as the built-in compare skip rules.
///
/// Reports with schema_version 3 are accepted as they are (their newer
/// sections are simply absent). Older reports count the machine search in
/// units from before the ladder rewrite; they are rejected on append and
/// skipped with a warning on read.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_OBS_LEDGER_H
#define BPCR_OBS_LEDGER_H

#include "obs/Json.h"

#include <string>
#include <vector>

namespace bpcr {

/// Bump when the record layout changes incompatibly. readLedger accepts
/// every version up to the current one and migrates old layouts forward.
constexpr int LedgerRecordVersion = 1;

/// Run metadata stamped on every record. GitSha/Host/TimestampNs are the
/// volatile fields the determinism contract excludes.
struct LedgerMeta {
  std::string Tool;
  std::string Command;
  std::string Workload;
  uint64_t Seed = 0;
  uint64_t Events = 0;
  unsigned Jobs = 0;
  std::string GitSha;
  std::string Host;
  uint64_t TimestampNs = 0;
};

/// One ledger line: a flattened report split into the deterministic metric
/// set and the wall-clock ("perf") set, plus run metadata.
struct LedgerRecord {
  int LedgerVersion = LedgerRecordVersion;
  /// schema_version of the source report (MinReportSchemaVersion..current).
  int SchemaVersion = 0;
  LedgerMeta Meta;
  /// Deterministic flattened metrics, in flattenReportMetrics order.
  std::vector<std::pair<std::string, double>> Metrics;
  /// Wall-clock/schedule-dependent metrics (timings, rates, RSS, pool).
  std::vector<std::pair<std::string, double>> Perf;
};

/// True when the flattened metric name is wall-clock or schedule dependent
/// (the built-in compare skip patterns): stored under "perf" and excluded
/// from the byte-identity contract.
bool isWallClockMetric(const std::string &Name);

/// Fills GitSha (from $BPCR_GIT_SHA, CI exports $GITHUB_SHA there), Host
/// (gethostname) and TimestampNs (system clock) — the volatile triple.
/// Tool/command/workload/seed/events/jobs stay for the caller.
LedgerMeta currentLedgerMeta();

/// Builds a record from a run report: validates schema_version, flattens
/// the metric leaves and partitions deterministic vs wall-clock. \returns
/// false and sets \p Error when the report is not a supported bpcr run
/// report.
bool makeLedgerRecord(const JsonValue &Report, const LedgerMeta &Meta,
                      LedgerRecord &Out, std::string &Error);

/// The record as one compact JSONL line (no trailing newline). Field order
/// is fixed with the volatile fields (`ts_ns`, `host`, `git_sha`) adjacent
/// and the `perf` object last, so determinism tests can strip them with a
/// line-level filter.
std::string ledgerRecordLine(const LedgerRecord &R);

/// Appends one record to \p Path (created when missing). \returns false
/// and sets \p Error on I/O failure.
bool appendLedgerRecord(const std::string &Path, const LedgerRecord &R,
                        std::string &Error);

/// Convenience for the run producers: build the record from \p Report +
/// \p Meta and append it. Reports the failure reason via \p Error.
bool appendReportToLedger(const std::string &Path, const JsonValue &Report,
                          const LedgerMeta &Meta, std::string &Error);

/// Reads every record of a JSONL ledger, oldest first. Malformed lines and
/// records with unsupported versions are skipped with a note in
/// \p Warnings — an append-only history must tolerate a bad line without
/// invalidating the rest. \returns false and sets \p Error only when the
/// file itself is unreadable.
bool readLedger(const std::string &Path, std::vector<LedgerRecord> &Out,
                std::vector<std::string> &Warnings, std::string &Error);

} // namespace bpcr

#endif // BPCR_OBS_LEDGER_H
