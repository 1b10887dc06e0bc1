//===- trace/Sinks.h - Concrete trace sinks ---------------------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TraceSink implementations: collect events into a ColumnarTrace, count
/// them, or fan out to several sinks at once.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_TRACE_SINKS_H
#define BPCR_TRACE_SINKS_H

#include "interp/TraceSink.h"
#include "trace/ColumnarTrace.h"

#include <vector>

namespace bpcr {

/// Counts events without storing them.
class CountingSink : public TraceSink {
public:
  void onBranch(const Instruction &, bool Taken) override {
    ++Total;
    if (Taken)
      ++TakenCount;
  }

  void onBatch(const BranchBatchEvent *Ev, size_t N) override {
    Total += N;
    for (size_t I = 0; I < N; ++I)
      TakenCount += Ev[I].Taken ? 1 : 0;
  }

  uint64_t total() const { return Total; }
  uint64_t taken() const { return TakenCount; }

private:
  uint64_t Total = 0;
  uint64_t TakenCount = 0;
};

/// Forwards every event to each registered sink, in registration order.
class MultiSink : public TraceSink {
public:
  void add(TraceSink *S) { Sinks.push_back(S); }

  void onBranch(const Instruction &Br, bool Taken) override {
    for (TraceSink *S : Sinks)
      S->onBranch(Br, Taken);
  }

  /// Forwards whole batches so each child pays one virtual call per flush
  /// (children without an override expand them in registration order,
  /// preserving the exact per-event interleaving).
  void onBatch(const BranchBatchEvent *Ev, size_t N) override {
    for (TraceSink *S : Sinks)
      S->onBatch(Ev, N);
  }

private:
  std::vector<TraceSink *> Sinks;
};

/// Appends every event to a ColumnarTrace: the id column and the packed
/// direction bits, no per-event virtual call (batches arrive via
/// onBatch). Set \p UseOrigIds to record the *original* branch ids, so that
/// a replicated program produces a trace comparable with its source program.
class ColumnarSink : public TraceSink {
public:
  explicit ColumnarSink(bool UseOrigIds = false) : UseOrigIds(UseOrigIds) {}

  /// Pre-sizes the columns; callers that know the branch-event cap pass it
  /// here so the per-event append never reallocates.
  void reserve(size_t N) { Events.reserve(N); }

  void onBranch(const Instruction &Br, bool Taken) override {
    Events.append(UseOrigIds ? Br.OrigBranchId : Br.BranchId, Taken);
  }

  void onBatch(const BranchBatchEvent *Ev, size_t N) override {
    if (UseOrigIds)
      for (size_t I = 0; I < N; ++I)
        Events.append(Ev[I].Br->OrigBranchId, Ev[I].Taken);
    else
      for (size_t I = 0; I < N; ++I)
        Events.append(Ev[I].Br->BranchId, Ev[I].Taken);
  }

  const ColumnarTrace &trace() const { return Events; }
  ColumnarTrace takeTrace() { return std::move(Events); }

private:
  ColumnarTrace Events;
  bool UseOrigIds;
};

} // namespace bpcr

#endif // BPCR_TRACE_SINKS_H
