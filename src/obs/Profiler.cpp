//===- obs/Profiler.cpp ---------------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Profiler.h"

#include "obs/Json.h"
#include "obs/Metrics.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <numeric>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

using namespace bpcr;

// -- RSS sampling ------------------------------------------------------------

namespace {

/// Peak resident set size in bytes via getrusage. ru_maxrss is kilobytes on
/// Linux, bytes on macOS. \returns 0 where unsupported.
uint64_t peakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage Ru;
  if (getrusage(RUSAGE_SELF, &Ru) != 0)
    return 0;
#if defined(__APPLE__)
  return static_cast<uint64_t>(Ru.ru_maxrss);
#else
  return static_cast<uint64_t>(Ru.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

} // namespace

// -- Span aggregation --------------------------------------------------------

namespace {

/// Per-event derived data from the nesting reconstruction.
struct EventDerived {
  int64_t Parent = -1; ///< index into the sorted event order, -1 = root
  uint64_t SelfWallNs = 0;
  uint64_t SelfCpuNs = 0;
};

/// Reconstructs parent links and self times from the flat event list.
/// Events are properly nested per thread (RAII spans), so a preorder sweep
/// with an ancestor stack recovers the tree; spans dropped by sampling can
/// leave depth gaps, in which case children attach to the nearest
/// *recorded* ancestor whose interval contains them.
///
/// \returns derived data parallel to \p Order, where \p Order is the
/// preorder permutation of \p Events (sorted by Tid, StartNs, Depth).
std::vector<EventDerived> deriveTree(const std::vector<SpanEvent> &Events,
                                     std::vector<size_t> &Order) {
  Order.resize(Events.size());
  std::iota(Order.begin(), Order.end(), size_t{0});
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    const SpanEvent &EA = Events[A], &EB = Events[B];
    if (EA.Tid != EB.Tid)
      return EA.Tid < EB.Tid;
    if (EA.StartNs != EB.StartNs)
      return EA.StartNs < EB.StartNs;
    return EA.Depth < EB.Depth;
  });

  std::vector<EventDerived> Out(Events.size());
  std::vector<uint64_t> ChildWall(Events.size(), 0);
  std::vector<uint64_t> ChildCpu(Events.size(), 0);
  std::vector<size_t> Stack; // indices into Order's positions
  uint32_t StackTid = 0;

  for (size_t Pos = 0; Pos < Order.size(); ++Pos) {
    const SpanEvent &E = Events[Order[Pos]];
    if (Stack.empty() || StackTid != E.Tid) {
      Stack.clear();
      StackTid = E.Tid;
    }
    // Pop ancestors that ended before this span starts or sit at the same
    // or deeper nesting level (siblings, or closed subtrees).
    while (!Stack.empty()) {
      const SpanEvent &Top = Events[Order[Stack.back()]];
      bool Contains = Top.Depth < E.Depth && Top.StartNs <= E.StartNs &&
                      Top.StartNs + Top.DurNs >= E.StartNs + E.DurNs;
      if (Contains)
        break;
      Stack.pop_back();
    }
    if (!Stack.empty()) {
      size_t ParentPos = Stack.back();
      Out[Pos].Parent = static_cast<int64_t>(ParentPos);
      ChildWall[ParentPos] += E.DurNs;
      ChildCpu[ParentPos] += E.CpuDurNs;
    }
    Stack.push_back(Pos);
  }

  for (size_t Pos = 0; Pos < Order.size(); ++Pos) {
    const SpanEvent &E = Events[Order[Pos]];
    Out[Pos].SelfWallNs = E.DurNs >= ChildWall[Pos] ? E.DurNs - ChildWall[Pos]
                                                    : 0;
    Out[Pos].SelfCpuNs =
        E.CpuDurNs >= ChildCpu[Pos] ? E.CpuDurNs - ChildCpu[Pos] : 0;
  }
  return Out;
}

/// Exact nearest-rank quantile over \p Sorted (ascending). Empty input
/// yields 0.
uint64_t nearestRank(const std::vector<uint64_t> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  double Rank = Q * static_cast<double>(Sorted.size());
  size_t Idx = Rank <= 1.0 ? 0 : static_cast<size_t>(Rank + 0.9999999) - 1;
  if (Idx >= Sorted.size())
    Idx = Sorted.size() - 1;
  return Sorted[Idx];
}

} // namespace

ProfileData Profiler::collect(const SpanTracer &T) const {
  ProfileData P;
  P.WallTotalNs = T.enabled() ? T.elapsedNs() : 0;
  P.SpansDropped = T.droppedCount();

  std::vector<SpanEvent> Events = T.snapshot();
  std::vector<size_t> Order;
  std::vector<EventDerived> Derived = deriveTree(Events, Order);

  struct Accum {
    uint64_t Count = 0;
    uint64_t TotalWallNs = 0;
    uint64_t SelfWallNs = 0;
    uint64_t TotalCpuNs = 0;
    uint64_t SelfCpuNs = 0;
    std::vector<uint64_t> WallNs;
  };
  std::map<std::string, Accum> ByCategory;
  std::map<std::pair<std::string, std::string>, Accum> BySite;

  for (size_t Pos = 0; Pos < Order.size(); ++Pos) {
    const SpanEvent &E = Events[Order[Pos]];
    const EventDerived &D = Derived[Pos];
    for (Accum *A : {&ByCategory[E.Category],
                     &BySite[{std::string(E.Category), std::string(E.Name)}]}) {
      ++A->Count;
      A->TotalWallNs += E.DurNs;
      A->SelfWallNs += D.SelfWallNs;
      A->TotalCpuNs += E.CpuDurNs;
      A->SelfCpuNs += D.SelfCpuNs;
      A->WallNs.push_back(E.DurNs);
    }
  }

  auto Counts = T.categoryCounts();
  // A category can appear in the counts with nothing recorded (everything
  // dropped); make sure it still shows up in the profile.
  for (const auto &[Cat, C] : Counts)
    (void)ByCategory[Cat];

  for (auto &[Cat, A] : ByCategory) {
    ProfileCategoryStats S;
    S.Category = Cat;
    auto It = Counts.find(Cat);
    S.Opened = It != Counts.end() ? It->second.Opened : A.Count;
    S.Recorded = It != Counts.end() ? It->second.Recorded : A.Count;
    S.Dropped = S.Opened >= S.Recorded ? S.Opened - S.Recorded : 0;
    S.SampleCapped = S.Dropped > 0;
    S.SampleScale =
        S.Recorded > 0
            ? static_cast<double>(S.Opened) / static_cast<double>(S.Recorded)
            : 0.0;
    S.TotalWallNs = A.TotalWallNs;
    S.SelfWallNs = A.SelfWallNs;
    S.TotalCpuNs = A.TotalCpuNs;
    S.SelfCpuNs = A.SelfCpuNs;
    std::sort(A.WallNs.begin(), A.WallNs.end());
    S.WallP50Ns = nearestRank(A.WallNs, 0.50);
    S.WallP95Ns = nearestRank(A.WallNs, 0.95);
    P.Categories.push_back(std::move(S));
  }

  for (auto &[Key, A] : BySite) {
    ProfileSiteStats S;
    S.Category = Key.first;
    S.Name = Key.second;
    S.Count = A.Count;
    S.TotalWallNs = A.TotalWallNs;
    S.SelfWallNs = A.SelfWallNs;
    S.TotalCpuNs = A.TotalCpuNs;
    S.SelfCpuNs = A.SelfCpuNs;
    std::sort(A.WallNs.begin(), A.WallNs.end());
    S.WallP50Ns = nearestRank(A.WallNs, 0.50);
    S.WallP95Ns = nearestRank(A.WallNs, 0.95);
    P.Sites.push_back(std::move(S));
  }

  {
    std::lock_guard<std::mutex> Lock(Mu);
    P.RssSamples = Samples;
  }
  P.PeakRssBytes = peakRssBytes();

  for (AllocTag Tag :
       {AllocTag::TraceBuffer, AllocTag::Ladder, AllocTag::PatternTable}) {
    ProfileAllocStats A;
    A.Tag = allocTagName(Tag);
    A.Stats = AllocTracker::global().stats(Tag);
    P.Allocs.push_back(std::move(A));
  }
  return P;
}

// -- Renderers ---------------------------------------------------------------

namespace {

/// The registry's pool.* metrics as one JSON object (empty when none).
JsonValue poolMetricsJson(const Registry &Reg) {
  JsonValue Pool = JsonValue::object();
  for (const auto &[Name, G] : Reg.gauges())
    if (Name.rfind("pool.", 0) == 0)
      Pool.set(Name, JsonValue::number(G.value()));
  for (const auto &[Name, C] : Reg.counters())
    if (Name.rfind("pool.", 0) == 0)
      Pool.set(Name, JsonValue::integer(C.value()));
  for (const auto &[Name, H] : Reg.histograms())
    if (Name.rfind("pool.", 0) == 0) {
      JsonValue J = JsonValue::object();
      J.set("count", JsonValue::integer(H.count()));
      J.set("sum", JsonValue::number(H.sum()));
      J.set("mean", JsonValue::number(H.mean()));
      J.set("p50", JsonValue::number(H.p50()));
      J.set("p95", JsonValue::number(H.p95()));
      J.set("max", JsonValue::number(H.max()));
      Pool.set(Name, std::move(J));
    }
  return Pool;
}

} // namespace

JsonValue bpcr::profileJson(const ProfileData &P, const Registry *Reg) {
  JsonValue Doc = JsonValue::object();
  Doc.set("wall_total_ns", JsonValue::integer(P.WallTotalNs));
  Doc.set("spans_dropped", JsonValue::integer(P.SpansDropped));

  JsonValue Cats = JsonValue::object();
  for (const ProfileCategoryStats &S : P.Categories) {
    JsonValue C = JsonValue::object();
    C.set("opened", JsonValue::integer(S.Opened));
    C.set("recorded", JsonValue::integer(S.Recorded));
    C.set("dropped", JsonValue::integer(S.Dropped));
    C.set("sample_capped", JsonValue::boolean(S.SampleCapped));
    C.set("sample_scale", JsonValue::number(S.SampleScale));
    C.set("total_wall_ns", JsonValue::integer(S.TotalWallNs));
    C.set("self_wall_ns", JsonValue::integer(S.SelfWallNs));
    C.set("total_cpu_ns", JsonValue::integer(S.TotalCpuNs));
    C.set("self_cpu_ns", JsonValue::integer(S.SelfCpuNs));
    C.set("wall_p50_ns", JsonValue::integer(S.WallP50Ns));
    C.set("wall_p95_ns", JsonValue::integer(S.WallP95Ns));
    if (S.SampleCapped) {
      // First-order estimate of the unsampled truth: recorded self time
      // scaled by opened/recorded. Kept separate so nobody mistakes the
      // raw number for complete coverage (the dropped spans' durations
      // were never measured).
      C.set("est_self_wall_ns",
            JsonValue::integer(static_cast<uint64_t>(
                static_cast<double>(S.SelfWallNs) * S.SampleScale)));
    }
    Cats.set(S.Category, std::move(C));
  }
  Doc.set("categories", std::move(Cats));

  JsonValue Sites = JsonValue::object();
  for (const ProfileSiteStats &S : P.Sites) {
    JsonValue J = JsonValue::object();
    J.set("count", JsonValue::integer(S.Count));
    J.set("total_wall_ns", JsonValue::integer(S.TotalWallNs));
    J.set("self_wall_ns", JsonValue::integer(S.SelfWallNs));
    J.set("total_cpu_ns", JsonValue::integer(S.TotalCpuNs));
    J.set("self_cpu_ns", JsonValue::integer(S.SelfCpuNs));
    J.set("wall_p50_ns", JsonValue::integer(S.WallP50Ns));
    J.set("wall_p95_ns", JsonValue::integer(S.WallP95Ns));
    Sites.set(S.Category + "/" + S.Name, std::move(J));
  }
  Doc.set("sites", std::move(Sites));

  JsonValue Mem = JsonValue::object();
  Mem.set("peak_rss_bytes", JsonValue::integer(P.PeakRssBytes));
  JsonValue Rss = JsonValue::array();
  for (const RssSample &S : P.RssSamples) {
    JsonValue J = JsonValue::object();
    J.set("label", JsonValue::str(S.Label));
    J.set("ns", JsonValue::integer(S.Ns));
    J.set("rss_bytes", JsonValue::integer(S.RssBytes));
    Rss.push(std::move(J));
  }
  Mem.set("rss_samples", std::move(Rss));
  JsonValue Allocs = JsonValue::object();
  for (const ProfileAllocStats &A : P.Allocs) {
    JsonValue J = JsonValue::object();
    J.set("allocs", JsonValue::integer(A.Stats.Allocs));
    J.set("frees", JsonValue::integer(A.Stats.Frees));
    J.set("bytes_allocated", JsonValue::integer(A.Stats.BytesAllocated));
    J.set("bytes_freed", JsonValue::integer(A.Stats.BytesFreed));
    J.set("peak_live_bytes", JsonValue::integer(A.Stats.PeakLiveBytes));
    Allocs.set(A.Tag, std::move(J));
  }
  Mem.set("allocs", std::move(Allocs));
  Doc.set("memory", std::move(Mem));

  if (Reg && Reg->enabled())
    Doc.set("pool", poolMetricsJson(*Reg));
  return Doc;
}

std::string bpcr::profileTable(const ProfileData &P, const Registry *Reg) {
  std::string Out;
  char Buf[128];

  auto Ms = [](uint64_t Ns) { return static_cast<double>(Ns) / 1e6; };

  TablePrinter Cats("Span categories (self vs total)");
  Cats.setHeader({"category", "opened", "recorded", "self ms", "total ms",
                  "self cpu ms", "p50 ms", "p95 ms", "sampled"});
  for (const ProfileCategoryStats &S : P.Categories) {
    std::vector<std::string> Row{S.Category, std::to_string(S.Opened),
                                 std::to_string(S.Recorded)};
    std::snprintf(Buf, sizeof(Buf), "%.3f", Ms(S.SelfWallNs));
    Row.push_back(Buf);
    std::snprintf(Buf, sizeof(Buf), "%.3f", Ms(S.TotalWallNs));
    Row.push_back(Buf);
    std::snprintf(Buf, sizeof(Buf), "%.3f", Ms(S.SelfCpuNs));
    Row.push_back(Buf);
    std::snprintf(Buf, sizeof(Buf), "%.3f", Ms(S.WallP50Ns));
    Row.push_back(Buf);
    std::snprintf(Buf, sizeof(Buf), "%.3f", Ms(S.WallP95Ns));
    Row.push_back(Buf);
    if (S.SampleCapped)
      std::snprintf(Buf, sizeof(Buf), "capped (~%.1fx)", S.SampleScale);
    else
      std::snprintf(Buf, sizeof(Buf), "full");
    Row.push_back(Buf);
    Cats.addRow(std::move(Row));
  }
  Out += Cats.render();
  Out += "\n";

  TablePrinter Sites("Hottest sites by self time");
  Sites.setHeader({"site", "count", "self ms", "total ms", "p95 ms"});
  std::vector<const ProfileSiteStats *> Sorted;
  for (const ProfileSiteStats &S : P.Sites)
    Sorted.push_back(&S);
  std::stable_sort(Sorted.begin(), Sorted.end(),
                   [](const ProfileSiteStats *A, const ProfileSiteStats *B) {
                     return A->SelfWallNs > B->SelfWallNs;
                   });
  size_t Shown = 0;
  for (const ProfileSiteStats *S : Sorted) {
    if (++Shown > 20)
      break;
    std::vector<std::string> Row{S->Category + "/" + S->Name,
                                 std::to_string(S->Count)};
    std::snprintf(Buf, sizeof(Buf), "%.3f", Ms(S->SelfWallNs));
    Row.push_back(Buf);
    std::snprintf(Buf, sizeof(Buf), "%.3f", Ms(S->TotalWallNs));
    Row.push_back(Buf);
    std::snprintf(Buf, sizeof(Buf), "%.3f", Ms(S->WallP95Ns));
    Row.push_back(Buf);
    Sites.addRow(std::move(Row));
  }
  Out += Sites.render();
  Out += "\n";

  std::snprintf(Buf, sizeof(Buf),
                "Wall total: %.3f ms; spans dropped by sampling: %llu\n",
                Ms(P.WallTotalNs),
                static_cast<unsigned long long>(P.SpansDropped));
  Out += Buf;
  if (P.PeakRssBytes) {
    std::snprintf(Buf, sizeof(Buf), "Peak RSS: %.1f MiB\n",
                  static_cast<double>(P.PeakRssBytes) / (1024.0 * 1024.0));
    Out += Buf;
  }

  bool AnyAlloc = false;
  for (const ProfileAllocStats &A : P.Allocs)
    AnyAlloc |= A.Stats.Allocs > 0;
  if (AnyAlloc) {
    TablePrinter Allocs("Tracked allocations");
    Allocs.setHeader({"pool", "allocs", "frees", "MiB alloc", "MiB peak"});
    for (const ProfileAllocStats &A : P.Allocs) {
      std::vector<std::string> Row{A.Tag, std::to_string(A.Stats.Allocs),
                                   std::to_string(A.Stats.Frees)};
      std::snprintf(Buf, sizeof(Buf), "%.2f",
                    static_cast<double>(A.Stats.BytesAllocated) /
                        (1024.0 * 1024.0));
      Row.push_back(Buf);
      std::snprintf(Buf, sizeof(Buf), "%.2f",
                    static_cast<double>(A.Stats.PeakLiveBytes) /
                        (1024.0 * 1024.0));
      Row.push_back(Buf);
      Allocs.addRow(std::move(Row));
    }
    Out += "\n";
    Out += Allocs.render();
  }

  if (Reg && Reg->enabled()) {
    double Threads = 0, Util = 0;
    for (const auto &[Name, G] : Reg->gauges()) {
      if (Name == "pool.threads")
        Threads = G.value();
      else if (Name == "pool.utilization_percent")
        Util = G.value();
    }
    if (Threads > 0) {
      std::snprintf(Buf, sizeof(Buf),
                    "\nThread pool: %.0f workers, %.1f%% busy\n", Threads,
                    Util);
      Out += Buf;
    }
  }
  return Out;
}

std::string bpcr::collapsedStacks(const SpanTracer &T) {
  std::vector<SpanEvent> Events = T.snapshot();
  std::vector<size_t> Order;
  std::vector<EventDerived> Derived = deriveTree(Events, Order);

  // Build each event's frame path from its parent chain; the root frame
  // is the tool itself so every stack shares one base.
  std::vector<std::string> Paths(Order.size());
  std::map<std::string, uint64_t> Stacks;
  for (size_t Pos = 0; Pos < Order.size(); ++Pos) {
    const SpanEvent &E = Events[Order[Pos]];
    int64_t Parent = Derived[Pos].Parent;
    Paths[Pos] = Parent < 0
                     ? std::string("bpcr;") + E.Name
                     : Paths[static_cast<size_t>(Parent)] + ";" + E.Name;
    Stacks[Paths[Pos]] += Derived[Pos].SelfWallNs / 1000; // integer us
  }

  std::string Out;
  for (const auto &[Path, SelfUs] : Stacks) {
    Out += Path;
    Out += ' ';
    Out += std::to_string(SelfUs);
    Out += '\n';
  }
  return Out;
}

bool bpcr::writeProfileText(const std::string &Path, const std::string &Text,
                            const char *What, std::string &Error) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    // Name the reason (ENOENT from a missing parent directory is the
    // common case) so the caller's message is actionable.
    Error = std::string("cannot open ") + What + " file '" + Path +
            "' for writing: " + std::strerror(errno);
    return false;
  }
  size_t Written = std::fwrite(Text.data(), 1, Text.size(), F);
  bool Ok = Written == Text.size();
  Ok &= std::fclose(F) == 0;
  if (!Ok)
    Error = std::string("short write to ") + What + " file '" + Path + "'";
  return Ok;
}
