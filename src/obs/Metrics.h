//===- obs/Metrics.h - Counters, gauges, timers -----------------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lightweight registry of named counters, gauges, histograms and phase
/// timers that the pipeline layers report into. The registry is disabled by
/// default and every instrumentation site guards on enabled(), so the hot
/// paths pay one predictable branch per *run* (never per event) when
/// observability is off. Header-only so low-level libraries (interp, core)
/// can record metrics without a link dependency; the JSON report writer
/// lives in obs/Report.{h,cpp}.
///
/// Thread safety: the machine search and the trace walks fan work out over
/// fork-join rounds (support/ThreadPool.h), so every metric update is
/// lock-free — counters, gauges and histogram fields are relaxed atomics.
/// The registry's fetch-or-create accessors take a mutex, but they run once
/// per metric per phase, never per event; returned references stay valid
/// until clear().
/// Readers (report writers, tests) iterate the maps without a lock and must
/// be quiescent: no concurrent metric *creation* or clear(). That holds by
/// construction — reports are written after every round has joined.
///
/// Naming convention: dot-separated lowercase paths, coarse-to-fine
/// (`interp.branch_events`, `pipeline.phase.machine_search`). The full list
/// is documented in docs/OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_OBS_METRICS_H
#define BPCR_OBS_METRICS_H

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>

namespace bpcr {

/// Monotonically increasing event count. Updates are relaxed atomics:
/// totals are order-independent, which is what keeps parallel runs'
/// reports identical to serial ones.
struct Counter {
  std::atomic<uint64_t> Value{0};

  void inc() { Value.fetch_add(1, std::memory_order_relaxed); }
  void add(uint64_t N) { Value.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return Value.load(std::memory_order_relaxed); }
};

/// Last-written measurement (a rate or level computed at the end of a run).
struct Gauge {
  std::atomic<double> Value{0.0};

  void set(double V) { Value.store(V, std::memory_order_relaxed); }
  double value() const { return Value.load(std::memory_order_relaxed); }
};

/// Count/sum/min/max summary of a sample stream, plus fixed log-spaced
/// bucket counts for quantile estimates. Timers record into one of these
/// with nanosecond samples. No raw samples are retained: memory per
/// histogram is constant regardless of how many values are recorded.
///
/// record() is lock-free (relaxed atomics; Sum/Min/Max via CAS loops).
/// The summary accessors read the fields independently, so they are exact
/// only once recording has quiesced — fine for report time, which is the
/// only place they are read.
struct Histogram {
  /// Bucket 0 holds samples < 1 (including negatives); bucket i >= 1 holds
  /// [2^(i-1), 2^i). 63 power-of-two buckets cover the full positive range
  /// of nanosecond timings and counter-sized values.
  static constexpr unsigned NumBuckets = 64;

  std::atomic<uint64_t> CountA{0};
  std::atomic<double> SumA{0.0};
  /// +/-infinity sentinels until the first sample; min()/max() report 0
  /// for an empty histogram like the pre-threading implementation did.
  std::atomic<double> MinA{std::numeric_limits<double>::infinity()};
  std::atomic<double> MaxA{-std::numeric_limits<double>::infinity()};
  std::array<std::atomic<uint64_t>, NumBuckets> Buckets{};

  static unsigned bucketFor(double V) {
    if (!(V >= 1.0))
      return 0;
    int Exp = std::min(static_cast<int>(std::log2(V)), 62);
    // Guard the float boundary: log2(2^k - eps) can round up to k.
    if (Exp > 0 && V < std::ldexp(1.0, Exp))
      --Exp;
    return static_cast<unsigned>(Exp) + 1;
  }

  void record(double V) {
    // A single NaN/Inf sample would poison Sum and every quantile; drop it
    // so empty- and garbage-input histograms both report clean zeros.
    if (!std::isfinite(V))
      return;
    double Cur = MinA.load(std::memory_order_relaxed);
    while (V < Cur &&
           !MinA.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
      ;
    Cur = MaxA.load(std::memory_order_relaxed);
    while (V > Cur &&
           !MaxA.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
      ;
    CountA.fetch_add(1, std::memory_order_relaxed);
    Cur = SumA.load(std::memory_order_relaxed);
    while (!SumA.compare_exchange_weak(Cur, Cur + V,
                                       std::memory_order_relaxed))
      ;
    Buckets[bucketFor(V)].fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t count() const { return CountA.load(std::memory_order_relaxed); }
  double sum() const { return SumA.load(std::memory_order_relaxed); }
  double min() const {
    return count() ? MinA.load(std::memory_order_relaxed) : 0.0;
  }
  double max() const {
    return count() ? MaxA.load(std::memory_order_relaxed) : 0.0;
  }

  double mean() const {
    uint64_t N = count();
    return N ? sum() / static_cast<double>(N) : 0.0;
  }

  /// Estimates the \p Q quantile (Q in [0,1]) from the log buckets by
  /// linear interpolation inside the covering bucket, clamped to the
  /// observed [Min, Max]. Accuracy is bounded by the bucket width (a
  /// factor of two), which is plenty for "is p99 10x the median" style
  /// questions; exact ranks would require retaining samples.
  double quantile(double Q) const {
    uint64_t N = count();
    if (N == 0)
      return 0.0;
    double Lo0 = min(), Hi0 = max();
    double Target = Q * static_cast<double>(N);
    if (Target <= 1.0)
      return Lo0;
    uint64_t Cum = 0;
    for (unsigned I = 0; I < NumBuckets; ++I) {
      uint64_t B = Buckets[I].load(std::memory_order_relaxed);
      if (B == 0)
        continue;
      double Lo = I == 0 ? Lo0 : std::ldexp(1.0, static_cast<int>(I) - 1);
      double Hi = I == 0 ? 1.0 : std::ldexp(1.0, static_cast<int>(I));
      double Before = static_cast<double>(Cum);
      Cum += B;
      if (static_cast<double>(Cum) >= Target) {
        double Frac = (Target - Before) / static_cast<double>(B);
        double Est = Lo + Frac * (Hi - Lo);
        return std::min(std::max(Est, Lo0), Hi0);
      }
    }
    return Hi0;
  }

  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
};

/// Holds every metric by name. Instruments fetch-or-create entries under a
/// mutex (per run, not per event — cache the returned reference in a loop);
/// the metric objects themselves update lock-free. Readers (the report
/// writer, `bpcr report`) iterate the maps and require quiescence: no
/// concurrent creation or clear(), which report-time use satisfies.
class Registry {
public:
  /// The process-wide registry all built-in instrumentation reports to.
  static Registry &global() {
    static Registry R;
    return R;
  }

  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }
  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }

  Counter &counter(const std::string &Name) {
    std::lock_guard<std::mutex> Lock(Mu);
    return Counters[Name];
  }
  Gauge &gauge(const std::string &Name) {
    std::lock_guard<std::mutex> Lock(Mu);
    return Gauges[Name];
  }
  Histogram &histogram(const std::string &Name) {
    std::lock_guard<std::mutex> Lock(Mu);
    return Histograms[Name];
  }
  /// Phase timers are histograms of nanoseconds, kept separate so reports
  /// can render them as a wall-time breakdown. Every Span
  /// (obs/TraceSpans.h) feeds the timer named after it.
  Histogram &timer(const std::string &Name) {
    std::lock_guard<std::mutex> Lock(Mu);
    return Timers[Name];
  }

  const std::map<std::string, Counter> &counters() const { return Counters; }
  const std::map<std::string, Gauge> &gauges() const { return Gauges; }
  const std::map<std::string, Histogram> &histograms() const {
    return Histograms;
  }
  const std::map<std::string, Histogram> &timers() const { return Timers; }

  bool empty() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Counters.empty() && Gauges.empty() && Histograms.empty() &&
           Timers.empty();
  }

  /// Drops every metric; the enabled flag is left alone. Invalidates every
  /// reference previously handed out by the accessors.
  void clear() {
    std::lock_guard<std::mutex> Lock(Mu);
    Counters.clear();
    Gauges.clear();
    Histograms.clear();
    Timers.clear();
  }

private:
  std::atomic<bool> Enabled{false};
  mutable std::mutex Mu;
  std::map<std::string, Counter> Counters;
  std::map<std::string, Gauge> Gauges;
  std::map<std::string, Histogram> Histograms;
  std::map<std::string, Histogram> Timers;
};

} // namespace bpcr

#endif // BPCR_OBS_METRICS_H
