//===- obs/TraceSpans.h - Low-overhead span tracing -------------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A wall-clock span tracer for the whole pipeline. Instrumentation sites
/// open RAII Span objects (nested spans form a timeline tree per thread);
/// each completed span lands in a per-thread buffer and the accumulated
/// timeline exports as Chrome Trace Event Format JSON — loadable in
/// chrome://tracing and the Perfetto UI — via `--trace-out FILE` on every
/// `bpcr` subcommand and bench binary.
///
/// Span is also the only timing primitive: with the metrics registry
/// enabled, every span feeds the registry timer of the same name, so the
/// timeline and the `--metrics` phase breakdown share one namespace.
///
/// The tracer follows the metrics registry's overhead rule: disabled by
/// default, and with both switches off every site pays two predictable
/// branches (the Span constructor reads no clock and allocates nothing).
/// High-frequency sites (one span per candidate machine inside the search)
/// are additionally *sampled*: once a category's recorded-span count passes
/// the per-category limit, further spans in it are dropped from the
/// timeline and counted in the tracer's drop counter, mirrored to the
/// `obs.trace.spans_dropped` metrics counter when the registry is enabled.
/// A dropped span still feeds its timer.
///
/// Recording is header-only so low-level libraries (interp, core, cache)
/// can open spans without a link dependency on bpcr_obs; the JSON exporter
/// (spansJson/writeSpanTrace) lives in obs/TraceSpans.cpp. The span
/// taxonomy is documented in docs/OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_OBS_TRACESPANS_H
#define BPCR_OBS_TRACESPANS_H

#include "obs/Metrics.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace bpcr {

/// One key/value annotation on a span ("args" in the Chrome format).
struct SpanArg {
  enum class Kind : uint8_t { Int, Double, Str };
  std::string Key;
  Kind K = Kind::Int;
  int64_t I = 0;
  double D = 0.0;
  std::string S;
};

/// One completed span. Names and categories are static strings (the
/// instrumentation vocabulary); dynamic context goes into Args.
struct SpanEvent {
  const char *Name = "";
  const char *Category = "";
  /// Nanoseconds since the tracer was enabled.
  uint64_t StartNs = 0;
  uint64_t DurNs = 0;
  /// CPU nanoseconds the recording thread spent inside the span, from
  /// CLOCK_THREAD_CPUTIME_ID captured at open and close. Zero when the
  /// platform has no per-thread CPU clock.
  uint64_t CpuDurNs = 0;
  /// Tracer-local thread number (0 for the first thread).
  uint32_t Tid = 0;
  /// Nesting depth at open time (0 = top level on its thread).
  uint32_t Depth = 0;
  std::vector<SpanArg> Args;
};

/// Per-category span accounting. Opened counts every span constructed while
/// the tracer was enabled — including ones the sampling cap then dropped —
/// so it is a pure function of the work done, independent of thread count
/// and schedule. Recorded counts only the spans that landed in a buffer;
/// the difference is what sampling dropped.
struct SpanCategoryCount {
  uint64_t Opened = 0;
  uint64_t Recorded = 0;
};

/// One sample on a counter track ("ph":"C" in the Chrome format): a value
/// at a timestamp, rendered by trace viewers as a stacked rate curve.
struct CounterSample {
  /// Nanoseconds since the tracer was enabled (same epoch as SpanEvent).
  uint64_t Ns = 0;
  double Value = 0.0;
};

/// A named series of counter samples, e.g. the timeline layer's windowed
/// misprediction rate, drawn on the same timeline as the spans.
struct CounterTrack {
  std::string Name;
  std::vector<CounterSample> Samples;
};

/// Collects spans into per-thread buffers. Spans on one thread never touch
/// a lock; the mutex guards only thread registration, counter tracks and
/// export.
class SpanTracer {
public:
  /// The process-wide tracer all built-in instrumentation records to.
  static SpanTracer &global() {
    static SpanTracer T;
    return T;
  }

  SpanTracer() = default;
  SpanTracer(const SpanTracer &) = delete;
  SpanTracer &operator=(const SpanTracer &) = delete;

  /// The acquire pairs with setEnabled's release: a worker thread that
  /// observes Enabled also observes the epoch written before it, keeping
  /// the pair race-free when the pool's workers start recording.
  bool enabled() const { return Enabled.load(std::memory_order_acquire); }

  /// Enabling (re)sets the timeline epoch: span timestamps are nanoseconds
  /// since the last setEnabled(true).
  void setEnabled(bool On) {
    if (On)
      Epoch = std::chrono::steady_clock::now();
    Enabled.store(On, std::memory_order_release);
  }

  /// Per-category recorded-span cap; spans beyond it are dropped. The cap
  /// is per thread (buffers are thread-local), which bounds every thread's
  /// memory the same way.
  uint64_t sampleLimit() const {
    return SampleLimit.load(std::memory_order_relaxed);
  }
  void setSampleLimit(uint64_t N) {
    SampleLimit.store(N, std::memory_order_relaxed);
  }

  /// Spans dropped by sampling since the last clear().
  uint64_t droppedCount() const {
    return Dropped.load(std::memory_order_relaxed);
  }

  /// Per-category opened/recorded counts summed across all threads. Opened
  /// totals are schedule-independent (see SpanCategoryCount); Recorded
  /// totals depend on how work spread over threads once sampling kicks in.
  std::map<std::string, SpanCategoryCount, std::less<>> categoryCounts() const {
    std::lock_guard<std::mutex> Lock(Mu);
    std::map<std::string, SpanCategoryCount, std::less<>> Out;
    for (const auto &B : Buffers)
      for (const auto &[Cat, C] : B->CategoryCounts) {
        auto &Sum = Out[Cat];
        Sum.Opened += C.Opened;
        Sum.Recorded += C.Recorded;
      }
    return Out;
  }

  /// Snapshot of every thread's completed spans (export order: by thread,
  /// then completion order).
  std::vector<SpanEvent> snapshot() const {
    std::lock_guard<std::mutex> Lock(Mu);
    std::vector<SpanEvent> Out;
    for (const auto &B : Buffers)
      Out.insert(Out.end(), B->Events.begin(), B->Events.end());
    return Out;
  }

  size_t spanCount() const {
    std::lock_guard<std::mutex> Lock(Mu);
    size_t N = 0;
    for (const auto &B : Buffers)
      N += B->Events.size();
    return N;
  }

  /// Appends a whole counter track (bulk, not per-sample: producers batch
  /// their samples and hand them over once, so the mutex is off any hot
  /// path). Tracks with no samples are dropped.
  void addCounterTrack(std::string Name, std::vector<CounterSample> Samples) {
    if (Samples.empty())
      return;
    std::lock_guard<std::mutex> Lock(Mu);
    Tracks.push_back(CounterTrack{std::move(Name), std::move(Samples)});
  }

  std::vector<CounterTrack> counterTracks() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Tracks;
  }

  /// Nanoseconds since the tracer was enabled — the timestamp domain shared
  /// by SpanEvent and CounterSample, for producers stamping counter samples.
  uint64_t elapsedNs() const { return nowNs(); }

  /// Drops all recorded spans, counter tracks and the drop counter; the
  /// enabled flag and registered thread buffers are left alone.
  void clear() {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const auto &B : Buffers) {
      B->Events.clear();
      B->CategoryCounts.clear();
      B->Depth = 0;
    }
    Tracks.clear();
    Dropped.store(0, std::memory_order_relaxed);
  }

private:
  friend class Span;

  /// One thread's slice of the timeline. Owned by the tracer so the export
  /// outlives thread exit; the recording thread touches it lock-free.
  struct ThreadBuf {
    std::thread::id Owner;
    uint32_t Tid = 0;
    uint32_t Depth = 0;
    std::vector<SpanEvent> Events;
    /// Opened/recorded spans per category; Recorded drives the sampling cap.
    std::map<std::string, SpanCategoryCount, std::less<>> CategoryCounts;
  };

  /// Fetch-or-create the calling thread's buffer. A thread_local cache
  /// makes the steady-state lookup two loads; the lock is taken on the
  /// first span per (thread, tracer) pair and after cache eviction. The
  /// cache is keyed on a process-unique instance id, not the tracer's
  /// address: a new tracer reusing a destroyed one's address (stack-local
  /// tracers in tests) must not hit the stale buffer pointer.
  ThreadBuf &threadBuf() {
    thread_local uint64_t CachedInstance = 0;
    thread_local ThreadBuf *Cached = nullptr;
    if (CachedInstance == Instance && Cached)
      return *Cached;
    std::thread::id Me = std::this_thread::get_id();
    std::lock_guard<std::mutex> Lock(Mu);
    ThreadBuf *Found = nullptr;
    for (const auto &B : Buffers)
      if (B->Owner == Me)
        Found = B.get();
    if (!Found) {
      auto B = std::make_unique<ThreadBuf>();
      B->Owner = Me;
      B->Tid = static_cast<uint32_t>(Buffers.size());
      Buffers.push_back(std::move(B));
      Found = Buffers.back().get();
    }
    CachedInstance = Instance;
    Cached = Found;
    return *Found;
  }

  static uint64_t nextInstanceId() {
    static std::atomic<uint64_t> Next{0};
    return Next.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  uint64_t nowNs() const {
    return sinceEpochNs(std::chrono::steady_clock::now());
  }

  uint64_t sinceEpochNs(std::chrono::steady_clock::time_point P) const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(P - Epoch)
            .count());
  }

  const uint64_t Instance = nextInstanceId();
  std::atomic<bool> Enabled{false};
  std::atomic<uint64_t> Dropped{0};
  std::atomic<uint64_t> SampleLimit{512};
  std::chrono::steady_clock::time_point Epoch{};
  mutable std::mutex Mu;
  std::vector<std::unique_ptr<ThreadBuf>> Buffers;
  std::vector<CounterTrack> Tracks;
};

/// RAII span: the one way code times a region. A span reads the clock when
/// the tracer or the metrics registry is enabled at construction. When it
/// closes it records its wall nanoseconds into the registry timer named
/// after the span, whatever its category and even when the tracer's
/// sampling cap dropped it, so a timer's count is the number of spans
/// opened under that name while the registry was on. A sampled span also
/// lands on the tracer's timeline. With both switches off the clock is
/// never read and nothing allocates: two flag loads and a few stores.
class Span {
public:
  /// \p R is a test seam: built-in instrumentation uses the global registry.
  explicit Span(const char *Name, const char *Category = "pipeline",
                SpanTracer &T = SpanTracer::global(),
                Registry &R = Registry::global())
      : Name(Name) {
    if (R.enabled())
      Reg = &R;
    if (T.enabled())
      openOnTimeline(T, Category);
    if (!timed())
      return;
    Start = std::chrono::steady_clock::now();
    if (recording()) {
      Ev.StartNs = T.sinceEpochNs(Start);
      CpuStartNs = threadCpuNowNs();
    }
  }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  ~Span() { end(); }

  /// Attaches a key/value annotation; a no-op when not recording.
  void arg(const char *Key, int64_t V) {
    if (!recording())
      return;
    SpanArg A;
    A.Key = Key;
    A.K = SpanArg::Kind::Int;
    A.I = V;
    Ev.Args.push_back(std::move(A));
  }
  void arg(const char *Key, uint64_t V) { arg(Key, static_cast<int64_t>(V)); }
  void arg(const char *Key, unsigned V) { arg(Key, static_cast<int64_t>(V)); }
  void arg(const char *Key, double V) {
    if (!recording())
      return;
    SpanArg A;
    A.Key = Key;
    A.K = SpanArg::Kind::Double;
    A.D = V;
    Ev.Args.push_back(std::move(A));
  }
  void arg(const char *Key, const std::string &V) {
    if (!recording())
      return;
    SpanArg A;
    A.Key = Key;
    A.K = SpanArg::Kind::Str;
    A.S = V;
    Ev.Args.push_back(std::move(A));
  }
  void arg(const char *Key, const char *V) { arg(Key, std::string(V)); }

  /// Closes the span early; later ends (and the destructor) are no-ops.
  /// \returns the wall nanoseconds the span measured, or 0 when it measured
  /// nothing (both switches were off at construction, or it already ended).
  uint64_t end() {
    uint64_t Ns = 0;
    if (timed())
      Ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - Start)
              .count());
    if (Tracer) {
      if (Buf->Depth > 0)
        --Buf->Depth;
      if (Sampled) {
        Ev.DurNs = Ns;
        uint64_t CpuEnd = threadCpuNowNs();
        Ev.CpuDurNs = CpuEnd > CpuStartNs ? CpuEnd - CpuStartNs : 0;
        Buf->Events.push_back(std::move(Ev));
      }
      Tracer = nullptr;
    }
    if (Reg) {
      Reg->timer(Name).record(static_cast<double>(Ns));
      Reg = nullptr;
    }
    return Ns;
  }

  /// The calling thread's CPU clock, or 0 where the platform lacks one.
  static uint64_t threadCpuNowNs() {
#ifdef CLOCK_THREAD_CPUTIME_ID
    timespec Ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts) == 0)
      return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ull +
             static_cast<uint64_t>(Ts.tv_nsec);
#endif
    return 0;
  }

private:
  /// Counts the span in its category on \p T and, unless the category hit
  /// the sampling cap, prepares its timeline event. The span tracks nesting
  /// depth either way.
  void openOnTimeline(SpanTracer &T, const char *Category) {
    Tracer = &T;
    Buf = &T.threadBuf();
    auto It = Buf->CategoryCounts.find(std::string_view(Category));
    if (It == Buf->CategoryCounts.end())
      It = Buf->CategoryCounts.emplace(Category, SpanCategoryCount{}).first;
    SpanCategoryCount &Seen = It->second;
    ++Seen.Opened;
    if (Seen.Recorded >= T.sampleLimit()) {
      T.Dropped.fetch_add(1, std::memory_order_relaxed);
      if (Reg)
        Reg->counter("obs.trace.spans_dropped").inc();
      Sampled = false;
    } else {
      ++Seen.Recorded;
      Ev.Name = Name;
      Ev.Category = Category;
      Ev.Tid = Buf->Tid;
      Ev.Depth = Buf->Depth;
    }
    ++Buf->Depth;
  }

  bool recording() const { return Tracer && Sampled; }
  /// Whether the span read the clock at construction and has not ended.
  bool timed() const { return Reg || recording(); }

  const char *Name;
  SpanTracer *Tracer = nullptr;
  SpanTracer::ThreadBuf *Buf = nullptr;
  Registry *Reg = nullptr;
  bool Sampled = true;
  std::chrono::steady_clock::time_point Start{};
  uint64_t CpuStartNs = 0;
  SpanEvent Ev;
};

// -- Export (implemented in obs/TraceSpans.cpp, links bpcr_obs) -------------

class JsonValue;

/// The tracer's timeline as a Chrome Trace Event Format document
/// ({"traceEvents": [...]}) loadable in chrome://tracing and Perfetto.
JsonValue spansJson(const SpanTracer &T, const std::string &Tool);

/// Writes the Chrome Trace JSON to \p Path. \returns false and sets
/// \p Error on I/O failure.
bool writeSpanTrace(const std::string &Path, const SpanTracer &T,
                    const std::string &Tool, std::string &Error);

/// Scans argv for `--trace-out FILE`, splices the pair out of argv, falls
/// back to $BPCR_TRACE_OUT, and enables the global tracer when a path was
/// found. \returns false and sets \p Error when the flag has no value.
bool extractTraceOutFlag(int &Argc, char **Argv, std::string &Path,
                         std::string &Error);

/// Writes the global tracer's timeline to \p Path (no-op when empty),
/// reporting to stdout/stderr. \returns a process exit code (0 ok, 1 I/O
/// failure).
int finishSpanTrace(const std::string &Path, const char *Tool);

} // namespace bpcr

#endif // BPCR_OBS_TRACESPANS_H
