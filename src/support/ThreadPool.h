//===- support/ThreadPool.h - Fork-join rounds ------------------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parallel primitive of bpcr: a fork-join round. Every parallel
/// pass has the same shape — the paper's search treats each branch on its
/// own, and the trace walks split into independent chunks — so the calling
/// thread and up to threadsFor(--jobs) - 1 helpers start together and are
/// joined before the pass returns. runOnThreads() is that round.
/// parallelForJobs() hands loop indices 0..N-1 to its threads through one
/// shared cursor; the chunk walks (trace/TraceStream.h) claim chunks from
/// a stream the same way.
///
/// There is no queue, no work stealing and no thread kept between rounds:
/// per-branch searches and chunk walks are coarse, independent work, and a
/// shared cursor saturates every core. A resolved job count of 1 spawns
/// nothing and runs the body inline, bit-for-bit what a plain loop does.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_SUPPORT_THREADPOOL_H
#define BPCR_SUPPORT_THREADPOOL_H

#include <algorithm>
#include <cstddef>
#include <functional>

namespace bpcr {

/// The CPUs the process may run on: the size of the main thread's
/// affinity mask, or std::thread::hardware_concurrency() (at least 1)
/// where the mask cannot be read. The mask can change while the process
/// runs, so a pass sizes its per-worker state and its rounds from one
/// threadsFor() value.
unsigned hardwareThreads();

/// Resolves a user-facing jobs knob: 0 (auto) becomes the hardware thread
/// count, anything else passes through.
inline unsigned resolveJobs(unsigned Jobs) {
  return Jobs == 0 ? hardwareThreads() : Jobs;
}

/// Threads a parallel pass on \p Jobs may run, the calling thread
/// included: the resolved knob, capped at hardwareThreads() (a larger
/// `--jobs` would only oversubscribe the CPUs). One job reads no mask.
inline unsigned threadsFor(unsigned Jobs) {
  const unsigned Resolved = resolveJobs(Jobs);
  return Resolved <= 1 ? 1 : std::min(Resolved, hardwareThreads());
}

/// One fork-join round: runs Body(0..Threads-1) at once, worker 0 on the
/// calling thread and each other worker on a thread spawned for the round,
/// and returns once every call has returned. Helper W is pinned to the
/// (W-1)-th CPU the process may run on other than the one the caller runs
/// on as the round starts (helpers past those CPUs, and the caller, stay
/// unpinned), so no helper queues the caller behind it. If any call
/// threw, the exception of the lowest worker that threw is rethrown here.
/// One thread runs Body(0) inline and records nothing; a round of more
/// records the `pool.*` metrics when the registry is on.
void runOnThreads(unsigned Threads,
                  const std::function<void(unsigned Worker)> &Body);

/// Runs Body(0..N-1), each index exactly once, on threadsFor(Jobs) threads
/// (fewer when N is smaller) that share one cursor; the calling thread is
/// one of them. One thread (or N <= 1) runs inline on the calling thread —
/// the serial path, bit-for-bit what a plain loop does. Every index runs
/// even when some throw; the exception of the lowest failing index is
/// rethrown here.
void parallelForJobs(unsigned Jobs, size_t N,
                     const std::function<void(size_t)> &Body);

} // namespace bpcr

#endif // BPCR_SUPPORT_THREADPOOL_H
