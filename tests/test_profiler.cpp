//===- tests/test_profiler.cpp - Self-profiling layer tests ---------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// obs/Profiler.h: self-time reconstruction from nested and overlapping
// spans (including spans the sampling cap dropped), per-category
// opened/recorded accounting, the collapsed-stack flamegraph export, the
// counting allocator, and the thread pool's utilization telemetry.
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"
#include "obs/Profiler.h"
#include "support/CountingAlloc.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace bpcr;

namespace {

/// Spins the CPU for roughly \p Us microseconds — real elapsed time, so
/// span durations are nonzero and ordered, without sleeping precision.
void busySpin(unsigned Us) {
  auto End = std::chrono::steady_clock::now() + std::chrono::microseconds(Us);
  while (std::chrono::steady_clock::now() < End)
    ;
}

const ProfileCategoryStats *findCategory(const ProfileData &D,
                                         const std::string &Name) {
  for (const auto &C : D.Categories)
    if (C.Category == Name)
      return &C;
  return nullptr;
}

const ProfileSiteStats *findSite(const ProfileData &D, const std::string &Cat,
                                 const std::string &Name) {
  for (const auto &S : D.Sites)
    if (S.Category == Cat && S.Name == Name)
      return &S;
  return nullptr;
}

} // namespace

// -- Self-time reconstruction ------------------------------------------------

TEST(Profiler, NestedSpansSplitSelfFromTotal) {
  SpanTracer T;
  T.setEnabled(true);
  {
    Span P("parent", "tree", T);
    busySpin(300);
    {
      Span C1("child1", "tree", T);
      busySpin(500);
    }
    {
      Span C2("child2", "tree", T);
      busySpin(500);
    }
    busySpin(300);
  }

  Profiler Prof;
  ProfileData D = Prof.collect(T);

  const ProfileSiteStats *P = findSite(D, "tree", "parent");
  const ProfileSiteStats *C1 = findSite(D, "tree", "child1");
  const ProfileSiteStats *C2 = findSite(D, "tree", "child2");
  ASSERT_NE(P, nullptr);
  ASSERT_NE(C1, nullptr);
  ASSERT_NE(C2, nullptr);
  EXPECT_EQ(P->Count, 1u);

  // Self = duration minus the direct children's durations, exactly: the
  // three numbers come from the same recorded events.
  EXPECT_EQ(P->SelfWallNs + C1->TotalWallNs + C2->TotalWallNs,
            P->TotalWallNs);
  // Leaves have no children, so self == total.
  EXPECT_EQ(C1->SelfWallNs, C1->TotalWallNs);
  EXPECT_EQ(C2->SelfWallNs, C2->TotalWallNs);
  // The parent spent real time outside its children.
  EXPECT_GT(P->SelfWallNs, 0u);
  EXPECT_GT(P->TotalWallNs, C1->TotalWallNs + C2->TotalWallNs);

  const ProfileCategoryStats *Cat = findCategory(D, "tree");
  ASSERT_NE(Cat, nullptr);
  EXPECT_EQ(Cat->Opened, 3u);
  EXPECT_EQ(Cat->Recorded, 3u);
  EXPECT_EQ(Cat->Dropped, 0u);
  EXPECT_FALSE(Cat->SampleCapped);
  EXPECT_DOUBLE_EQ(Cat->SampleScale, 1.0);
  // Category totals count only top-level-within-category once per event:
  // the identity also holds summed over sites.
  EXPECT_EQ(Cat->TotalWallNs,
            P->TotalWallNs + C1->TotalWallNs + C2->TotalWallNs);
  EXPECT_EQ(Cat->SelfWallNs,
            P->SelfWallNs + C1->SelfWallNs + C2->SelfWallNs);

  // Where the platform has a per-thread CPU clock, a busy-spinning span
  // must have accumulated CPU time, bounded by the same identity.
  if (Span::threadCpuNowNs() != 0) {
    EXPECT_GT(P->TotalCpuNs, 0u);
    EXPECT_LE(P->SelfCpuNs, P->TotalCpuNs);
  }
}

TEST(Profiler, OverlappingSpansOnOtherThreadsStayIndependent) {
  SpanTracer T;
  T.setEnabled(true);

  // Two threads run the same site concurrently; a barrier guarantees the
  // spans overlap in wall time. Nesting is per thread, so neither span may
  // be treated as the other's child.
  std::atomic<int> Ready{0};
  auto Work = [&] {
    Ready.fetch_add(1);
    while (Ready.load() < 2)
      ;
    Span S("worker", "overlap", T);
    busySpin(400);
  };
  std::thread A(Work), B(Work);
  A.join();
  B.join();

  Profiler Prof;
  ProfileData D = Prof.collect(T);
  const ProfileSiteStats *S = findSite(D, "overlap", "worker");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Count, 2u);
  // No parent/child relation across threads: both spans are roots, so
  // self == total for the aggregated site.
  EXPECT_EQ(S->SelfWallNs, S->TotalWallNs);

  const ProfileCategoryStats *Cat = findCategory(D, "overlap");
  ASSERT_NE(Cat, nullptr);
  EXPECT_EQ(Cat->Opened, 2u);
  EXPECT_EQ(Cat->Recorded, 2u);
}

// -- Sampling-cap accounting (the dropped-span satellite) --------------------

TEST(Profiler, CappedCategoryReportsOpenedDroppedAndScale) {
  SpanTracer T;
  T.setEnabled(true);
  T.setSampleLimit(2);
  for (int I = 0; I < 5; ++I) {
    Span S("burst", "hot", T);
    busySpin(50);
  }

  EXPECT_EQ(T.droppedCount(), 3u);

  Profiler Prof;
  ProfileData D = Prof.collect(T);
  EXPECT_EQ(D.SpansDropped, 3u);

  const ProfileCategoryStats *Cat = findCategory(D, "hot");
  ASSERT_NE(Cat, nullptr);
  EXPECT_EQ(Cat->Opened, 5u);
  EXPECT_EQ(Cat->Recorded, 2u);
  EXPECT_EQ(Cat->Dropped, 3u);
  EXPECT_TRUE(Cat->SampleCapped);
  EXPECT_DOUBLE_EQ(Cat->SampleScale, 2.5);

  // The JSON rendering carries the flag and the capped-only estimate so
  // readers are never silently shown under-reported times.
  std::string J = profileJson(D).dump(2);
  EXPECT_NE(J.find("\"sample_capped\": true"), std::string::npos);
  EXPECT_NE(J.find("\"est_self_wall_ns\""), std::string::npos);
  EXPECT_NE(J.find("\"opened\": 5"), std::string::npos);
}

TEST(Profiler, AllDroppedCategoryStillAppears) {
  SpanTracer T;
  T.setEnabled(true);
  T.setSampleLimit(0);
  {
    Span S("ghost", "unsampled", T);
  }

  Profiler Prof;
  ProfileData D = Prof.collect(T);
  const ProfileCategoryStats *Cat = findCategory(D, "unsampled");
  ASSERT_NE(Cat, nullptr);
  EXPECT_EQ(Cat->Opened, 1u);
  EXPECT_EQ(Cat->Recorded, 0u);
  EXPECT_EQ(Cat->Dropped, 1u);
  EXPECT_TRUE(Cat->SampleCapped);
  // Nothing recorded: no basis for an estimate, scale pins to 0.
  EXPECT_DOUBLE_EQ(Cat->SampleScale, 0.0);
  EXPECT_EQ(Cat->TotalWallNs, 0u);
}

TEST(Profiler, ChildrenOfDroppedParentAttachToRecordedAncestor) {
  SpanTracer T;
  T.setEnabled(true);
  T.setSampleLimit(1);
  {
    Span Root("root", "a", T); // recorded (first in "a")
    busySpin(100);
    {
      Span Mid("mid", "a", T); // dropped (cap 1 per category)
      {
        Span Leaf("leaf", "b", T); // recorded, depth 2
        busySpin(100);
      }
    }
  }

  // The leaf's flamegraph path skips the dropped frame and attaches to the
  // nearest recorded ancestor whose interval contains it.
  std::string Flame = collapsedStacks(T);
  EXPECT_NE(Flame.find("bpcr;root;leaf "), std::string::npos) << Flame;
  EXPECT_EQ(Flame.find("mid"), std::string::npos) << Flame;

  // And self-time attribution follows the same tree: the leaf's duration
  // comes out of the root's self time.
  Profiler Prof;
  ProfileData D = Prof.collect(T);
  const ProfileSiteStats *Root = findSite(D, "a", "root");
  const ProfileSiteStats *Leaf = findSite(D, "b", "leaf");
  ASSERT_NE(Root, nullptr);
  ASSERT_NE(Leaf, nullptr);
  EXPECT_EQ(Root->SelfWallNs + Leaf->TotalWallNs, Root->TotalWallNs);
}

// -- Collapsed-stack export --------------------------------------------------

TEST(Profiler, CollapsedStacksAreSortedIntegerMicroseconds) {
  SpanTracer T;
  T.setEnabled(true);
  {
    Span P("outer", "fg", T);
    busySpin(200);
    {
      Span C("inner", "fg", T);
      busySpin(200);
    }
  }

  std::string Flame = collapsedStacks(T);
  ASSERT_FALSE(Flame.empty());

  std::vector<std::string> Lines;
  size_t Pos = 0;
  while (Pos < Flame.size()) {
    size_t Nl = Flame.find('\n', Pos);
    ASSERT_NE(Nl, std::string::npos) << "unterminated line";
    Lines.push_back(Flame.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
  ASSERT_EQ(Lines.size(), 2u);
  // Sorted stack paths, each "bpcr;frame[;frame...] <integer>".
  EXPECT_TRUE(Lines[0] < Lines[1]);
  for (const std::string &L : Lines) {
    EXPECT_EQ(L.rfind("bpcr;", 0), 0u) << L;
    size_t Space = L.rfind(' ');
    ASSERT_NE(Space, std::string::npos) << L;
    std::string Value = L.substr(Space + 1);
    ASSERT_FALSE(Value.empty()) << L;
    for (char C : Value)
      EXPECT_TRUE(C >= '0' && C <= '9') << L;
  }
  EXPECT_NE(Flame.find("bpcr;outer "), std::string::npos);
  EXPECT_NE(Flame.find("bpcr;outer;inner "), std::string::npos);
}

// -- Counting allocator ------------------------------------------------------

TEST(CountingAlloc, TracksTaggedPoolsOnlyWhileEnabled) {
  AllocTracker &Tr = AllocTracker::global();
  bool Was = Tr.enabled();
  Tr.reset();
  Tr.setEnabled(true);

  {
    std::vector<int, CountingAllocator<int, AllocTag::Ladder>> V;
    V.reserve(100);
    AllocTracker::TagStats S = Tr.stats(AllocTag::Ladder);
    EXPECT_EQ(S.Allocs, 1u);
    EXPECT_EQ(S.Frees, 0u);
    EXPECT_EQ(S.BytesAllocated, 100 * sizeof(int));
    EXPECT_EQ(S.PeakLiveBytes, 100 * sizeof(int));
    // Other tags are untouched.
    EXPECT_EQ(Tr.stats(AllocTag::TraceBuffer).Allocs, 0u);
  }
  AllocTracker::TagStats S = Tr.stats(AllocTag::Ladder);
  EXPECT_EQ(S.Frees, 1u);
  EXPECT_EQ(S.BytesFreed, S.BytesAllocated);

  // Disabled: allocations pass through unrecorded.
  Tr.setEnabled(false);
  {
    std::vector<int, CountingAllocator<int, AllocTag::Ladder>> V;
    V.reserve(50);
  }
  AllocTracker::TagStats After = Tr.stats(AllocTag::Ladder);
  EXPECT_EQ(After.Allocs, S.Allocs);
  EXPECT_EQ(After.BytesAllocated, S.BytesAllocated);

  Tr.reset();
  Tr.setEnabled(Was);
}

TEST(CountingAlloc, PeakLiveSaturatesWhenFreesOutrunAllocs) {
  AllocTracker &Tr = AllocTracker::global();
  bool Was = Tr.enabled();
  Tr.reset();
  Tr.setEnabled(true);

  // Enabling mid-run can observe a free of memory allocated while the
  // tracker was off; the live computation must saturate, not wrap.
  Tr.recordFree(AllocTag::PatternTable, 1000);
  Tr.recordAlloc(AllocTag::PatternTable, 100);
  AllocTracker::TagStats S = Tr.stats(AllocTag::PatternTable);
  EXPECT_EQ(S.PeakLiveBytes, 0u);

  Tr.reset();
  Tr.setEnabled(Was);
}

TEST(CountingAlloc, TagNamesAreStable) {
  EXPECT_STREQ(allocTagName(AllocTag::TraceBuffer), "trace_buffer");
  EXPECT_STREQ(allocTagName(AllocTag::Ladder), "ladder");
  EXPECT_STREQ(allocTagName(AllocTag::PatternTable), "pattern_table");
}

// -- Thread pool telemetry ---------------------------------------------------

TEST(PoolTelemetry, ParallelForRecordsItsRound) {
  // One round at --jobs 3: T threads, T - 1 of them spawned, one busy and
  // one idle sample per thread. An inline --jobs 1 loop records nothing.
  Registry &Obs = Registry::global();
  const bool Was = Obs.enabled();
  Obs.clear();
  Obs.setEnabled(true);
  const unsigned T = threadsFor(3);
  parallelForJobs(3, 100, [](size_t) { busySpin(20); });
  const auto &Gauges = Obs.gauges();
  const auto &Counters = Obs.counters();
  const auto &Histograms = Obs.histograms();
  if (T > 1) {
    ASSERT_TRUE(Gauges.count("pool.threads"));
    EXPECT_EQ(Gauges.at("pool.threads").value(), static_cast<double>(T));
    ASSERT_TRUE(Counters.count("pool.tasks"));
    EXPECT_EQ(Counters.at("pool.tasks").value(), T - 1);
    ASSERT_TRUE(Histograms.count("pool.worker.busy_ns"));
    EXPECT_EQ(Histograms.at("pool.worker.busy_ns").count(), T);
    ASSERT_TRUE(Histograms.count("pool.worker.idle_ns"));
    EXPECT_EQ(Histograms.at("pool.worker.idle_ns").count(), T);
    ASSERT_TRUE(Gauges.count("pool.utilization_percent"));
    EXPECT_GT(Gauges.at("pool.utilization_percent").value(), 0.0);
    EXPECT_LE(Gauges.at("pool.utilization_percent").value(), 100.0);
  }

  Obs.clear();
  parallelForJobs(1, 100, [](size_t) {});
  EXPECT_FALSE(Obs.gauges().count("pool.threads"));
  EXPECT_FALSE(Obs.counters().count("pool.tasks"));
  EXPECT_FALSE(Obs.histograms().count("pool.worker.busy_ns"));
  Obs.clear();
  Obs.setEnabled(Was);
}

// -- Profiler switch and RSS sampling ----------------------------------------

TEST(Profiler, EnableCascadesToTrackerAndTracer) {
  bool TracerWas = SpanTracer::global().enabled();
  bool AllocWas = AllocTracker::global().enabled();

  Profiler P;
  P.setEnabled(true);
  EXPECT_TRUE(P.enabled());
  EXPECT_TRUE(AllocTracker::global().enabled());
  EXPECT_TRUE(SpanTracer::global().enabled());
  P.setEnabled(false);
  EXPECT_FALSE(AllocTracker::global().enabled());

  SpanTracer::global().setEnabled(TracerWas);
  AllocTracker::global().setEnabled(AllocWas);
  AllocTracker::global().reset();
}

TEST(Profiler, RssSamplesLandInCollectedData) {
  uint64_t Rss = Profiler::currentRssBytes();
#if defined(__linux__)
  EXPECT_GT(Rss, 0u);
#endif
  if (Rss == 0)
    GTEST_SKIP() << "no RSS source on this platform";

  bool TracerWas = SpanTracer::global().enabled();
  bool AllocWas = AllocTracker::global().enabled();

  Profiler P;
  P.setEnabled(true);
  P.sampleRss("phase.one");
  P.sampleRss("phase.two");

  SpanTracer Quiet; // disabled tracer: isolates the RSS/alloc half
  ProfileData D = P.collect(Quiet);
  ASSERT_EQ(D.RssSamples.size(), 2u);
  EXPECT_EQ(D.RssSamples[0].Label, "phase.one");
  EXPECT_EQ(D.RssSamples[1].Label, "phase.two");
  EXPECT_GT(D.RssSamples[0].RssBytes, 0u);
  EXPECT_GT(D.PeakRssBytes, 0u);
  // getrusage peak can never undercut a live statm reading by more than
  // page rounding; sanity-bound it from below.
  EXPECT_GE(D.PeakRssBytes, D.RssSamples[0].RssBytes / 2);

  P.setEnabled(false);
  P.clear();
  SpanTracer::global().setEnabled(TracerWas);
  AllocTracker::global().setEnabled(AllocWas);
  AllocTracker::global().reset();
}

TEST(Profiler, DisabledProfilerSamplesNothing) {
  Profiler P;
  ASSERT_FALSE(P.enabled());
  P.sampleRss("ignored");
  SpanTracer Quiet;
  ProfileData D = P.collect(Quiet);
  EXPECT_TRUE(D.RssSamples.empty());
}
