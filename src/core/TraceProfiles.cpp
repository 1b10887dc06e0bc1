//===- core/TraceProfiles.cpp ---------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/TraceProfiles.h"

#include "core/CorrelatedMachine.h"
#include "core/LoopAwareProfiles.h"
#include "obs/Metrics.h"
#include "obs/TraceSpans.h"
#include "support/ThreadPool.h"
#include "trace/TraceStream.h"

using namespace bpcr;

namespace {

/// Pattern-table width of the profiles the pipeline and the sweep read.
constexpr unsigned MaxBits = 9;

/// The walks of one trace: prepared while the run starts, fed chunk by
/// chunk, and finished after it.
class StreamedWalks {
public:
  StreamedWalks(const Module &M, const TraceProfileOptions &Opts,
                TraceProfiles &Out)
      : M(M), Opts(Opts), Out(Out), Workers(threadsFor(Opts.Jobs)),
        Index(Workers) {}
  StreamedWalks(const StreamedWalks &) = delete;
  StreamedWalks &operator=(const StreamedWalks &) = delete;

  /// The program analysis, the proofs, the path candidates and the
  /// walkers: everything a chunk walk needs and the run does not.
  void prepare() {
    Out.PA = std::make_unique<ProgramAnalysis>(M);
    Out.HasProofs = Opts.UseProofs;
    Out.Proofs = Opts.UseProofs ? sa::computeBranchProofs(M)
                                : sa::BranchProofs();
    Out.Paths = BranchPathProfiles::candidates(*Out.PA, Opts.MaxStates,
                                               Out.proofs());
    Scan = std::make_unique<LoopResetScan>(*Out.PA, Workers, MaxBits,
                                           Out.proofs());
    Paths = std::make_unique<PathWalk>(Out.Paths.Candidates,
                                       Out.Paths.PathLen, Workers);
  }

  /// The run, with every chunk walked once by whichever thread gets to it
  /// (its slice of the index, its reset scan and its path counts), then
  /// the index joined from the slices. The walkers are prepared on a
  /// helper while the run starts.
  void run(const ExecOptions &Exec, size_t ReserveEvents) {
    ColumnarTrace &CT = Out.Trace;
    CT.clear();
    CT.reserve(ReserveEvents);
    uint64_t RunCpuNs = 0, RunWallNs = 0;
    const uint64_t Overlap = streamChunks(
        CT, Workers, Opts.ChunkEvents, [this] { prepare(); },
        [&](ChunkStream *Stream) {
          // The producer's wall and CPU time: the stalls of the run.
          Span RunSpan("trace.stream.run", "interp");
          const uint64_t Cpu = Span::threadCpuNowNs();
          Out.Run = executeColumnar(M, CT, /*UseOrigIds=*/false, Exec, Stream);
          RunCpuNs = Span::threadCpuNowNs() - Cpu;
          RunWallNs = RunSpan.end();
        },
        [this](size_t Chunk, EventRange R, TraceColumns Cols,
               unsigned Worker) {
          // One span per chunk whichever thread walks it and when, so the
          // span count does not depend on the schedule.
          Span S("profiles.stream.chunk", "kernel");
          S.arg("chunk", static_cast<uint64_t>(Chunk));
          ColumnarTrace::ChunkIndex &Slice = Index.add(Chunk, Worker);
          ColumnarTrace::indexChunk(Cols, R, Out.PA->numBranches(), Slice);
          Scan->scanChunk(Chunk, R, Cols, Slice, Worker);
          Paths->walkChunk(Chunk, R, Cols, Worker);
        });
    CT.finalizeChunks(Out.PA->numBranches(), Index.take());
    Out.OverlapShare = CT.empty() ? 0.0
                                  : static_cast<double>(Overlap) /
                                        static_cast<double>(CT.size());
    Registry &Obs = Registry::global();
    if (Obs.enabled()) {
      Obs.gauge("trace.stream.overlap_share").set(Out.OverlapShare);
      // Below 1 when the run waited off its CPU: queued behind another
      // thread, or blocked.
      if (RunWallNs > 0)
        Obs.gauge("trace.stream.run_cpu_share")
            .set(static_cast<double>(RunCpuNs) /
                 static_cast<double>(RunWallNs));
    }
  }

  /// The post-run tail of the profiles: the fill of the reset segments no
  /// chunk could fill alone, and the sum of the workers' path counts.
  void finish() {
    const ColumnarTrace &CT = Out.Trace;
    {
      Span FillSpan("profiles.columnar_fill", "kernel");
      Out.Profiles = Scan->profiles(CT, Opts.Jobs);
      FillSpan.arg("events",
                   static_cast<uint64_t>(CT.size() - CT.outOfRange()));
    }
    Span PathSpan("profiles.paths", "kernel");
    PathSpan.arg("events", static_cast<uint64_t>(CT.size()));
    Out.Paths.Profiles = Paths->profiles();
  }

private:
  const Module &M;
  const TraceProfileOptions &Opts;
  TraceProfiles &Out;
  /// The stream's threads, the run's included; read once, so the
  /// per-worker state and the stream agree.
  const unsigned Workers;
  ChunkResults<ColumnarTrace::ChunkIndex> Index;
  std::unique_ptr<LoopResetScan> Scan;
  std::unique_ptr<PathWalk> Paths;
};

} // namespace

bool bpcr::traceProfiles(const Workload &W, uint64_t Seed, Module &OutModule,
                         const TraceProfileOptions &Opts, TraceProfiles &Out) {
  std::unique_ptr<StreamedWalks> Walks;
  {
    Span S("workload.trace", "interp");
    S.arg("workload", W.Name);
    S.arg("seed", Seed);
    OutModule = W.Build(Seed);
    OutModule.assignBranchIds();
    Walks = std::make_unique<StreamedWalks>(OutModule, Opts, Out);
    ExecOptions Exec;
    Exec.MaxBranchEvents = Opts.MaxBranchEvents;
    Walks->run(Exec, traceReservation(Opts.MaxBranchEvents));
    S.arg("branch_events", Out.Run.BranchEvents);
    if (!Out.Run.Ok)
      S.arg("error", Out.Run.Error);
  }
  Walks->finish();
  return Out.Run.Ok;
}

bool bpcr::traceModuleProfiles(const Module &M, const ExecOptions &Exec,
                               size_t ReserveEvents,
                               const TraceProfileOptions &Opts,
                               TraceProfiles &Out) {
  StreamedWalks Walks(M, Opts, Out);
  Walks.run(Exec, ReserveEvents);
  Walks.finish();
  return Out.Run.Ok;
}
