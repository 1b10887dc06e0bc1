//===- interp/TimelineSink.h - Windowed telemetry trace sink ----*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TraceSink adapter that streams the interpreter's branch events into a
/// TimeSeries recorder, taking the recorder's lock once per batch: one
/// window cell update per executed branch, keyed by the event's position
/// in the trace and the branch's *original* id (so a replicated program's
/// series lines up with attribution, which also folds replicas back onto
/// their source branch).
///
/// A static prediction is scored exactly like the interpreter's scoring
/// run (executeScored: anything but an explicit NotTaken annotation
/// predicts taken), so per-window misprediction counts sum to the same
/// totals attribution reports. When the span tracer is live, the sink
/// stamps a wall-clock
/// sample every 256 events so windows can anchor Chrome Trace counter
/// curves; the samples never reach deterministic output.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_INTERP_TIMELINESINK_H
#define BPCR_INTERP_TIMELINESINK_H

#include "interp/TraceSink.h"
#include "obs/TimeSeries.h"
#include "obs/TraceSpans.h"

#include <algorithm>
#include <iterator>

namespace bpcr {

/// Fills a TimeSeries from a single interpreter run. Not itself re-entrant
/// (the event index is sink-local state), but several sinks may share one
/// recorder: TimeSeries::record is thread-safe and order-independent.
class TimelineSink : public TraceSink {
public:
  explicit TimelineSink(TimeSeries &TS,
                        SpanTracer &Tracer = SpanTracer::global())
      : TS(TS), Tracer(Tracer), WallOn(Tracer.enabled()) {}

  void onBranch(const Instruction &Br, bool Taken) override {
    TimeSeriesEvent E = eventOf(Br, Taken, Index);
    TS.record(Index, E.BranchId, E.Taken, E.Mispredicted, E.WallNs);
    ++Index;
  }

  /// Records a whole batch under one TimeSeries lock, in chunks of a fixed
  /// stack buffer.
  void onBatch(const BranchBatchEvent *Ev, size_t N) override {
    TimeSeriesEvent Buf[256];
    for (size_t Done = 0; Done < N;) {
      size_t Chunk = std::min<size_t>(N - Done, std::size(Buf));
      for (size_t I = 0; I < Chunk; ++I)
        Buf[I] = eventOf(*Ev[Done + I].Br, Ev[Done + I].Taken, Index + I);
      TS.recordBatch(Index, Buf, Chunk);
      Index += Chunk;
      Done += Chunk;
    }
  }

  uint64_t eventCount() const { return Index; }

private:
  TimeSeriesEvent eventOf(const Instruction &Br, bool Taken, uint64_t At) {
    TimeSeriesEvent E;
    E.BranchId = Br.OrigBranchId;
    E.Taken = Taken;
    E.Mispredicted = (Br.Predicted != Prediction::NotTaken) != Taken;
    if (WallOn && (At & 255) == 0)
      E.WallNs = Tracer.elapsedNs();
    return E;
  }

  TimeSeries &TS;
  SpanTracer &Tracer;
  bool WallOn;
  uint64_t Index = 0;
};

} // namespace bpcr

#endif // BPCR_INTERP_TIMELINESINK_H
