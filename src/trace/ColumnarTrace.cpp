//===- trace/ColumnarTrace.cpp --------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "trace/ColumnarTrace.h"

#include "obs/Metrics.h"
#include "trace/TraceStream.h"

#include <cassert>

using namespace bpcr;

std::vector<EventRange> bpcr::traceChunks(size_t NumEvents,
                                          size_t ChunkEvents) {
  assert(ChunkEvents > 0 && "a chunk holds at least one event");
  std::vector<EventRange> Out;
  Out.reserve((NumEvents + ChunkEvents - 1) / ChunkEvents);
  for (size_t Begin = 0; Begin < NumEvents; Begin += ChunkEvents)
    Out.push_back({Begin, std::min(NumEvents, Begin + ChunkEvents)});
  return Out;
}

void ColumnarTrace::indexChunk(TraceColumns Cols, EventRange Chunk,
                               uint32_t NumBranches, ChunkIndex &Out) {
  Out.Counts.assign(NumBranches, 0);
  Out.OutOfRange = 0;
  for (size_t I = Chunk.Begin; I < Chunk.End; ++I) {
    const uint32_t Id = static_cast<uint32_t>(Cols.Ids[I]);
    if (Id >= NumBranches)
      ++Out.OutOfRange;
    else
      ++Out.Counts[Id];
  }
  Out.FirstWord.resize(NumBranches);
  size_t Words = 0;
  for (uint32_t B = 0; B < NumBranches; ++B) {
    Out.FirstWord[B] = Words;
    Words += static_cast<size_t>((Out.Counts[B] + 63) / 64);
  }
  Out.Words.assign(Words, 0);
  // Each branch's next bit, as an absolute bit position in Words.
  std::vector<uint64_t> Next(NumBranches);
  for (uint32_t B = 0; B < NumBranches; ++B)
    Next[B] = uint64_t{Out.FirstWord[B]} * 64;
  uint64_t *W = Out.Words.data();
  for (size_t I = Chunk.Begin; I < Chunk.End; ++I) {
    const uint32_t Id = static_cast<uint32_t>(Cols.Ids[I]);
    if (Id >= NumBranches)
      continue;
    const uint64_t P = Next[Id]++;
    W[P >> 6] |= uint64_t{Cols.taken(I)} << (P & 63);
  }
}

void ColumnarTrace::finalize(uint32_t NumBranches, unsigned Jobs,
                             size_t ChunkEvents) {
  std::vector<ChunkIndex> Slices(traceChunks(Ids.size(), ChunkEvents).size());
  walkChunks(columns(), Ids.size(), ChunkEvents, Jobs,
             [&Slices, NumBranches](size_t K, EventRange R, TraceColumns Cols,
                                    unsigned) {
               indexChunk(Cols, R, NumBranches, Slices[K]);
             });
  finalizeChunks(NumBranches, Slices);
}

void ColumnarTrace::finalizeChunks(uint32_t NumBranches,
                                   const std::vector<ChunkIndex> &Chunks) {
  const size_t N = Ids.size();
  // Word-aligned per-branch bitstream layout: branch b owns
  // ceil(Counts[b]/64) words starting at WordOffsets[b].
  Counts.assign(NumBranches, 0);
  WordOffsets.assign(NumBranches, 0);
  OutOfRangeEvents = 0;
  for (const ChunkIndex &C : Chunks) {
    OutOfRangeEvents += C.OutOfRange;
    for (uint32_t B = 0; B < NumBranches; ++B)
      Counts[B] += C.Counts[B];
  }
  size_t TotalWords = 0;
  for (uint32_t B = 0; B < NumBranches; ++B) {
    WordOffsets[B] = TotalWords;
    TotalWords += static_cast<size_t>((Counts[B] + 63) / 64);
  }
  BranchWords.assign(TotalWords, 0);

  // Each branch's slices, laid end to end: a slice that starts mid-word
  // is shifted into place, one word at a time. Bits past a slice's end
  // are zero, so OR-ing whole words never disturbs a neighbour.
  TakenCounts.assign(NumBranches, 0);
  for (uint32_t B = 0; B < NumBranches; ++B) {
    uint64_t *Dst = BranchWords.data() + WordOffsets[B];
    const size_t DstWords = static_cast<size_t>((Counts[B] + 63) / 64);
    uint64_t Pos = 0;
    for (const ChunkIndex &C : Chunks) {
      const uint64_t Bits = C.Counts[B];
      const uint64_t *Src = C.Words.data() + C.FirstWord[B];
      const size_t At = static_cast<size_t>(Pos >> 6);
      const unsigned Shift = static_cast<unsigned>(Pos & 63);
      for (size_t W = 0, E = static_cast<size_t>((Bits + 63) / 64); W < E;
           ++W) {
        Dst[At + W] |= Src[W] << Shift;
        if (Shift && At + W + 1 < DstWords)
          Dst[At + W + 1] |= Src[W] >> (64 - Shift);
      }
      Pos += Bits;
    }
    TakenCounts[B] = popcountBitsScalar(BitstreamView(Dst, Counts[B]));
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
