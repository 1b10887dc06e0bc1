//===- support/CountingAlloc.h - Tagged allocation accounting ---*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An opt-in counting allocator for the hot containers (trace buffers,
/// SearchCache ladders, pattern tables). Each container names its pool via
/// an AllocTag; a process-global AllocTracker accumulates per-tag
/// allocation/free counts and bytes with relaxed atomics.
///
/// The tracker follows the observability overhead rule: disabled by
/// default, and when disabled every allocation pays exactly one relaxed
/// load and a predictable branch. CountingAllocator is a thin shim over
/// std::allocator, so container behaviour (growth policy, element layout)
/// is unchanged — only the accounting is added.
///
/// Counts for a fixed workload are deterministic for a given binary (the
/// standard library decides growth factors and bucket counts), which makes
/// them byte-identical across --jobs but NOT across compilers or stdlib
/// versions. Gates that span machines must stick to span-open counts; see
/// docs/OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_SUPPORT_COUNTINGALLOC_H
#define BPCR_SUPPORT_COUNTINGALLOC_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

namespace bpcr {

/// The instrumented pools. Order is the report/profile emission order.
enum class AllocTag : unsigned {
  TraceBuffer = 0, ///< ColumnarTrace id and direction columns
  Ladder,          ///< SearchCache MachineLadder rung vectors
  PatternTable,    ///< BranchProfiles pattern-table hash maps
};

constexpr unsigned NumAllocTags = 3;

/// \returns the stable lower_snake name used in profile output and metrics.
inline const char *allocTagName(AllocTag Tag) {
  switch (Tag) {
  case AllocTag::TraceBuffer:
    return "trace_buffer";
  case AllocTag::Ladder:
    return "ladder";
  case AllocTag::PatternTable:
    return "pattern_table";
  }
  return "unknown";
}

/// Process-global per-tag allocation accounting. All mutation is relaxed
/// atomics: totals are exact whenever the counted containers have quiesced
/// (the only time anyone snapshots them), and no ordering is implied.
class AllocTracker {
public:
  struct TagStats {
    uint64_t Allocs = 0;
    uint64_t Frees = 0;
    uint64_t BytesAllocated = 0;
    uint64_t BytesFreed = 0;
    /// High-water mark of BytesAllocated - BytesFreed.
    uint64_t PeakLiveBytes = 0;
  };

  static AllocTracker &global() {
    static AllocTracker T;
    return T;
  }

  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }
  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }

  void recordAlloc(AllocTag Tag, size_t Bytes) {
    Slot &S = Slots[static_cast<unsigned>(Tag)];
    S.Allocs.fetch_add(1, std::memory_order_relaxed);
    uint64_t Prev = S.BytesAllocated.fetch_add(Bytes, std::memory_order_relaxed);
    // Saturate at zero: enabling the tracker mid-run can observe frees of
    // memory allocated while it was off.
    uint64_t Freed = S.BytesFreed.load(std::memory_order_relaxed);
    uint64_t Live = Prev + Bytes > Freed ? Prev + Bytes - Freed : 0;
    uint64_t Peak = S.PeakLiveBytes.load(std::memory_order_relaxed);
    while (Live > Peak &&
           !S.PeakLiveBytes.compare_exchange_weak(Peak, Live,
                                                  std::memory_order_relaxed))
      ;
  }

  void recordFree(AllocTag Tag, size_t Bytes) {
    Slot &S = Slots[static_cast<unsigned>(Tag)];
    S.Frees.fetch_add(1, std::memory_order_relaxed);
    S.BytesFreed.fetch_add(Bytes, std::memory_order_relaxed);
  }

  TagStats stats(AllocTag Tag) const {
    const Slot &S = Slots[static_cast<unsigned>(Tag)];
    TagStats Out;
    Out.Allocs = S.Allocs.load(std::memory_order_relaxed);
    Out.Frees = S.Frees.load(std::memory_order_relaxed);
    Out.BytesAllocated = S.BytesAllocated.load(std::memory_order_relaxed);
    Out.BytesFreed = S.BytesFreed.load(std::memory_order_relaxed);
    Out.PeakLiveBytes = S.PeakLiveBytes.load(std::memory_order_relaxed);
    return Out;
  }

  /// Zeroes every tag's totals; the enabled flag is left alone.
  void reset() {
    for (Slot &S : Slots) {
      S.Allocs.store(0, std::memory_order_relaxed);
      S.Frees.store(0, std::memory_order_relaxed);
      S.BytesAllocated.store(0, std::memory_order_relaxed);
      S.BytesFreed.store(0, std::memory_order_relaxed);
      S.PeakLiveBytes.store(0, std::memory_order_relaxed);
    }
  }

private:
  struct Slot {
    std::atomic<uint64_t> Allocs{0};
    std::atomic<uint64_t> Frees{0};
    std::atomic<uint64_t> BytesAllocated{0};
    std::atomic<uint64_t> BytesFreed{0};
    std::atomic<uint64_t> PeakLiveBytes{0};
  };

  std::atomic<bool> Enabled{false};
  Slot Slots[NumAllocTags];
};

/// std::allocator shim that reports to AllocTracker under \p Tag. Stateless;
/// all instances are interchangeable, so containers swap/move freely.
template <typename T, AllocTag Tag> class CountingAllocator {
public:
  using value_type = T;
  using size_type = size_t;
  using difference_type = ptrdiff_t;
  using propagate_on_container_move_assignment = std::true_type;
  using is_always_equal = std::true_type;

  template <typename U> struct rebind {
    using other = CountingAllocator<U, Tag>;
  };

  CountingAllocator() noexcept = default;
  template <typename U>
  CountingAllocator(const CountingAllocator<U, Tag> &) noexcept {}

  T *allocate(size_t N) {
    AllocTracker &Tr = AllocTracker::global();
    if (Tr.enabled())
      Tr.recordAlloc(Tag, N * sizeof(T));
    return std::allocator<T>{}.allocate(N);
  }

  void deallocate(T *P, size_t N) noexcept {
    AllocTracker &Tr = AllocTracker::global();
    if (Tr.enabled())
      Tr.recordFree(Tag, N * sizeof(T));
    std::allocator<T>{}.deallocate(P, N);
  }

  friend bool operator==(const CountingAllocator &,
                         const CountingAllocator &) noexcept {
    return true;
  }
  friend bool operator!=(const CountingAllocator &,
                         const CountingAllocator &) noexcept {
    return false;
  }
};

} // namespace bpcr

#endif // BPCR_SUPPORT_COUNTINGALLOC_H
