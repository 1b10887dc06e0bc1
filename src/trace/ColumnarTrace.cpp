//===- trace/ColumnarTrace.cpp --------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "trace/ColumnarTrace.h"

#include "obs/Metrics.h"

using namespace bpcr;

void ColumnarTrace::finalize(uint32_t NumBranches) {
  Counts.assign(NumBranches, 0);
  TakenCounts.assign(NumBranches, 0);
  WordOffsets.assign(NumBranches, 0);
  OutOfRangeEvents = 0;

  const size_t N = Ids.size();
  for (size_t I = 0; I < N; ++I) {
    int32_t Id = Ids[I];
    if (Id < 0 || static_cast<uint32_t>(Id) >= NumBranches)
      ++OutOfRangeEvents;
    else
      ++Counts[static_cast<uint32_t>(Id)];
  }

  // Word-aligned per-branch bitstream layout: branch b owns
  // ceil(Counts[b]/64) words starting at WordOffsets[b].
  size_t TotalWords = 0;
  for (uint32_t B = 0; B < NumBranches; ++B) {
    WordOffsets[B] = TotalWords;
    TotalWords += static_cast<size_t>((Counts[B] + 63) / 64);
  }
  BranchWords.assign(TotalWords, 0);

  // Scatter pass: walk the global columns once, depositing each branch's
  // direction bit at its next per-branch position.
  std::vector<uint64_t> Fill(NumBranches, 0);
  const BitstreamView Dir = Dirs.view();
  for (size_t I = 0; I < N; ++I) {
    int32_t Id = Ids[I];
    if (Id < 0 || static_cast<uint32_t>(Id) >= NumBranches)
      continue;
    uint32_t B = static_cast<uint32_t>(Id);
    uint64_t Pos = Fill[B]++;
    uint64_t Bit = Dir.bit(I) ? 1 : 0;
    TakenCounts[B] += Bit;
    BranchWords[WordOffsets[B] + static_cast<size_t>(Pos >> 6)] |=
        Bit << (Pos & 63);
  }
  Indexed = true;

  Registry &Obs = Registry::global();
  if (Obs.enabled()) {
    Obs.counter("trace.columnar.finalizes").inc();
    Obs.counter("trace.columnar.events").add(N);
    Obs.counter("trace.columnar.index_words").add(TotalWords);
    Obs.counter("trace.columnar.out_of_range_events").add(OutOfRangeEvents);
    // The largest figure of the run: traces finalized in parallel (bench
    // suites) report the same value whatever order they finish in.
    if (N > 0) {
      const double BytesPerEvent =
          static_cast<double>(bytesUsed()) / static_cast<double>(N);
      Gauge &G = Obs.gauge("trace.columnar.bytes_per_event");
      double Cur = G.value();
      while (BytesPerEvent > Cur &&
             !G.Value.compare_exchange_weak(Cur, BytesPerEvent,
                                            std::memory_order_relaxed))
        ;
    }
  }
}

size_t ColumnarTrace::bytesUsed() const {
  size_t Bytes = Ids.size() * sizeof(int32_t) +
                 Dirs.view().numWords() * sizeof(uint64_t);
  if (Indexed)
    Bytes += BranchWords.size() * sizeof(uint64_t) +
             Counts.size() * (2 * sizeof(uint64_t) + sizeof(size_t));
  return Bytes;
}
