//===- obs/TimeSeries.h - Windowed trace telemetry --------------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Time-series telemetry over the dynamic branch-event stream. End-of-run
/// aggregates (metrics, attribution) hide how branch behaviour evolves over
/// a trace — warmup vs steady state, phase changes, loop-exit bursts — which
/// is exactly where semi-static prediction wins or loses. The TimeSeries
/// recorder buckets events into fixed-width windows (power-of-two event
/// counts) and keeps global plus per-branch taken/misprediction counts per
/// window.
///
/// Memory is bounded: when the event stream outgrows the window budget,
/// adjacent windows are merged pairwise and the window width doubles
/// (merge-on-overflow). Because the window index is derived from the event's
/// position in the trace — not from arrival order — the final series is a
/// pure function of the recorded (index, branch, taken, mispredicted)
/// tuples. Any thread interleaving, and any `--jobs` count, produces the
/// same snapshot byte for byte.
///
/// Like the other obs recording halves (Metrics.h, Attribution.h), the
/// recorder is header-only so core/interp code can fill it without linking
/// bpcr_obs; segmentation and JSON serialization live in TimeSeries.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_OBS_TIMESERIES_H
#define BPCR_OBS_TIMESERIES_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace bpcr {

class JsonValue;

/// Per-window counts for one branch (original branch id; replicas fold back
/// onto the branch they were cloned from, mirroring attribution semantics).
struct TimeSeriesCell {
  uint64_t Events = 0;
  uint64_t Taken = 0;
  uint64_t Mispredictions = 0;
};

/// One fixed-width event window of the series.
struct TimeSeriesWindow {
  uint64_t Events = 0;
  uint64_t Taken = 0;
  uint64_t Mispredictions = 0;
  /// Wall-clock sample (ns since epoch) of the latest event observed in this
  /// window, 0 when no sample was captured. Only used to place Chrome Trace
  /// counter events; never part of deterministic output.
  uint64_t WallNs = 0;
  /// Indexed by original branch id; empty when the recorder was built with
  /// zero branches.
  std::vector<TimeSeriesCell> Branches;
};

/// A finished, plain-data snapshot of the series. Copyable; carried on
/// PipelineResult.
struct TimeSeriesData {
  /// Final window width in events (after any merge-on-overflow doublings).
  uint64_t WindowEvents = 0;
  uint32_t NumBranches = 0;
  uint64_t TotalEvents = 0;
  uint64_t TotalTaken = 0;
  uint64_t TotalMispredictions = 0;
  std::vector<TimeSeriesWindow> Windows;

  bool empty() const { return Windows.empty(); }

  /// Percentage helper that maps 0/0 to 0 instead of NaN so series rows and
  /// report leaves stay finite.
  static double percent(uint64_t Part, uint64_t Whole) {
    return Whole == 0 ? 0.0 : 100.0 * double(Part) / double(Whole);
  }
};

/// Tuning for the recorder.
struct TimeSeriesOptions {
  /// Initial window width in events. Must be a power of two.
  uint64_t WindowEvents = 1024;
  /// Window budget; reaching it merges adjacent windows and doubles the
  /// width. 1024 windows of 1024 events cover the paper's 1M-event traces
  /// without a single merge.
  uint32_t MaxWindows = 1024;
};

/// One branch event for TimeSeries::recordBatch.
struct TimeSeriesEvent {
  int32_t BranchId = -1;
  bool Taken = false;
  bool Mispredicted = false;
  /// Wall-clock sample, or 0 for none (see TimeSeries::record).
  uint64_t WallNs = 0;
};

inline bool isPowerOfTwo(uint64_t N) { return N != 0 && (N & (N - 1)) == 0; }

/// Thread-safe windowed accumulator. Writers call record() concurrently;
/// the series is order-independent (see file comment), so concurrent use
/// cannot perturb the snapshot. A single mutex is deliberate: the recorder
/// runs on the measurement pass, not the search hot path, and the streaming
/// ingestion service this feeds will shard recorders per session anyway.
class TimeSeries {
public:
  explicit TimeSeries(const TimeSeriesOptions &Opts = TimeSeriesOptions(),
                      uint32_t NumBranches = 0)
      : NumBranches(NumBranches), MaxWindows(Opts.MaxWindows) {
    uint64_t W = isPowerOfTwo(Opts.WindowEvents) ? Opts.WindowEvents : 1024;
    Shift = 0;
    while ((uint64_t{1} << Shift) < W)
      ++Shift;
    if (MaxWindows == 0)
      MaxWindows = 1;
  }

  TimeSeries(const TimeSeries &) = delete;
  TimeSeries &operator=(const TimeSeries &) = delete;

  /// Records one branch event. \p EventIndex is the event's position in the
  /// trace (0-based); it alone decides the window, which is what makes the
  /// series independent of arrival order. Branch ids outside
  /// [0, NumBranches) contribute to the global counts only. \p WallNs, when
  /// non-zero, stamps the window with a wall-clock sample for trace-viewer
  /// counter tracks.
  void record(uint64_t EventIndex, int32_t BranchId, bool Taken,
              bool Mispredicted, uint64_t WallNs = 0) {
    std::lock_guard<std::mutex> Lock(Mu);
    recordLocked(EventIndex, BranchId, Taken, Mispredicted, WallNs);
  }

  /// Records \p N events at consecutive trace positions starting at
  /// \p FirstIndex, taking the lock once: the same series as N record()
  /// calls.
  void recordBatch(uint64_t FirstIndex, const TimeSeriesEvent *Events,
                   size_t N) {
    std::lock_guard<std::mutex> Lock(Mu);
    for (size_t I = 0; I < N; ++I)
      recordLocked(FirstIndex + I, Events[I].BranchId, Events[I].Taken,
                   Events[I].Mispredicted, Events[I].WallNs);
  }

  /// Copies the current state out as plain data.
  TimeSeriesData snapshot() const {
    std::lock_guard<std::mutex> Lock(Mu);
    TimeSeriesData D;
    D.WindowEvents = uint64_t{1} << Shift;
    D.NumBranches = NumBranches;
    D.TotalEvents = TotalEvents;
    D.TotalTaken = TotalTaken;
    D.TotalMispredictions = TotalMispredictions;
    D.Windows = Windows;
    return D;
  }

  /// Moves the state out, leaving the recorder empty (width is kept).
  TimeSeriesData take() {
    std::lock_guard<std::mutex> Lock(Mu);
    TimeSeriesData D;
    D.WindowEvents = uint64_t{1} << Shift;
    D.NumBranches = NumBranches;
    D.TotalEvents = TotalEvents;
    D.TotalTaken = TotalTaken;
    D.TotalMispredictions = TotalMispredictions;
    D.Windows = std::move(Windows);
    Windows.clear();
    TotalEvents = TotalTaken = TotalMispredictions = 0;
    return D;
  }

  uint64_t windowEvents() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return uint64_t{1} << Shift;
  }

private:
  void recordLocked(uint64_t EventIndex, int32_t BranchId, bool Taken,
                    bool Mispredicted, uint64_t WallNs) {
    uint64_t Idx = EventIndex >> Shift;
    while (Idx >= MaxWindows) {
      mergeAdjacentLocked();
      Idx = EventIndex >> Shift;
    }
    if (Idx >= Windows.size())
      Windows.resize(Idx + 1);
    TimeSeriesWindow &W = Windows[Idx];
    if (W.Branches.empty() && NumBranches > 0)
      W.Branches.resize(NumBranches);
    ++W.Events;
    ++TotalEvents;
    if (Taken) {
      ++W.Taken;
      ++TotalTaken;
    }
    if (Mispredicted) {
      ++W.Mispredictions;
      ++TotalMispredictions;
    }
    if (WallNs > W.WallNs)
      W.WallNs = WallNs;
    if (BranchId >= 0 && uint32_t(BranchId) < NumBranches) {
      TimeSeriesCell &C = W.Branches[uint32_t(BranchId)];
      ++C.Events;
      if (Taken)
        ++C.Taken;
      if (Mispredicted)
        ++C.Mispredictions;
    }
  }

  /// Halves the window count by summing adjacent pairs and doubles the
  /// width. Addition is associative, so overflow handling preserves
  /// order-independence.
  void mergeAdjacentLocked() {
    std::vector<TimeSeriesWindow> Merged;
    Merged.resize((Windows.size() + 1) / 2);
    for (size_t I = 0; I < Windows.size(); ++I) {
      TimeSeriesWindow &Dst = Merged[I / 2];
      TimeSeriesWindow &Src = Windows[I];
      Dst.Events += Src.Events;
      Dst.Taken += Src.Taken;
      Dst.Mispredictions += Src.Mispredictions;
      if (Src.WallNs > Dst.WallNs)
        Dst.WallNs = Src.WallNs;
      if (!Src.Branches.empty()) {
        if (Dst.Branches.empty())
          Dst.Branches.resize(NumBranches);
        for (size_t B = 0; B < Src.Branches.size(); ++B) {
          Dst.Branches[B].Events += Src.Branches[B].Events;
          Dst.Branches[B].Taken += Src.Branches[B].Taken;
          Dst.Branches[B].Mispredictions += Src.Branches[B].Mispredictions;
        }
      }
    }
    Windows = std::move(Merged);
    ++Shift;
  }

  mutable std::mutex Mu;
  uint32_t NumBranches;
  uint32_t MaxWindows;
  unsigned Shift = 10;
  uint64_t TotalEvents = 0;
  uint64_t TotalTaken = 0;
  uint64_t TotalMispredictions = 0;
  std::vector<TimeSeriesWindow> Windows;
};

/// One detected phase: a maximal run of windows whose misprediction rate is
/// internally stable. Window range is inclusive.
struct PhaseSegment {
  uint32_t FirstWindow = 0;
  uint32_t LastWindow = 0;
  uint64_t StartEvent = 0;
  uint64_t Events = 0;
  uint64_t Taken = 0;
  uint64_t Mispredictions = 0;

  double missRatePercent() const {
    return TimeSeriesData::percent(Mispredictions, Events);
  }
  double takenPercent() const {
    return TimeSeriesData::percent(Taken, Events);
  }
};

/// Knobs for the change-point detector (documented in
/// docs/OBSERVABILITY.md; defaults tuned for the paper's workloads).
struct SegmentationOptions {
  /// A split is kept only if the two sides' misprediction rates differ by at
  /// least this many percentage points.
  double MinDeltaPercent = 2.0;
  /// Minimum windows per phase; suppresses single-window noise phases.
  uint32_t MinWindows = 2;
  /// Upper bound on reported phases.
  uint32_t MaxPhases = 16;
};

/// Knobs for the generic weighted-series change-point core. Same algorithm
/// as SegmentationOptions, but in the value units of the series instead of
/// percentage points — the cross-run trend engine (obs/Trend.h) reuses the
/// detector over per-run metric values, where "percent" has no meaning.
struct SeriesSegmentationOptions {
  /// A split is kept only if the two sides' weighted means differ by at
  /// least this much (in the series' own units).
  double MinDelta = 0.0;
  /// Minimum points per segment; suppresses single-point noise segments.
  uint32_t MinSegment = 2;
  /// Upper bound on produced segments (cuts + 1).
  uint32_t MaxSegments = 16;
};

/// The binary-segmentation change-point core: recursively splits
/// [0, Values.size()) at the boundary with the largest reduction in
/// weight-weighted squared error. Deterministic (ties resolve to the lowest
/// split index; left half recurses first). \p Weights must be the same
/// length as \p Values; pass all-ones for an unweighted series. \returns
/// the sorted interior cut indices (a cut at i starts a new segment at
/// element i); empty when no split clears the gates.
std::vector<size_t> segmentSeries(const std::vector<double> &Values,
                                  const std::vector<double> &Weights,
                                  const SeriesSegmentationOptions &Opts);

/// Change-point detection on the windowed misprediction rate: recursive
/// binary segmentation choosing the split that maximally reduces the
/// event-weighted squared error. Deterministic (ties resolve to the lowest
/// split index). Returns at least one phase for a non-empty series.
std::vector<PhaseSegment>
segmentPhases(const TimeSeriesData &TS,
              const SegmentationOptions &Opts = SegmentationOptions());

/// Warmup-boundary estimate: the event offset where the series first enters
/// the steady-state regime. Scans phases from the end while their rates stay
/// within max(1 percentage point, 25% relative) of the final phase's rate;
/// warmup ends where that run begins. 0 when the whole run is steady.
uint64_t estimateWarmupEvents(const TimeSeriesData &TS,
                              const std::vector<PhaseSegment> &Phases);

/// Serializes the series, its phase segmentation, and per-phase splits for
/// \p SplitBranches (attribution's top-K original branch ids) as the
/// report's `timeline` section. Scalar leaves and the `phases` object are
/// flattened and gated by `bpcr compare`; the `windows` array is carried for
/// plotting but not gated.
JsonValue timelineJson(const TimeSeriesData &TS,
                       const std::vector<int32_t> &SplitBranches,
                       const SegmentationOptions &Opts = SegmentationOptions());

} // namespace bpcr

#endif // BPCR_OBS_TIMESERIES_H
