// A fork-join worker pool for index-partitioned work. The session engine
// runs whole cohorts on it (a cohort's congestion state, link RNG streams,
// policy state and pooled sinks are self-contained, since a SharedBottleneck
// may not span cohorts), and graph construction answers each cycle-repair
// round's searches on it in chunks. WorkerPool::run distributes indices to
// workers and blocks until all are done; because each task writes only the
// output slots its index owns, the output is byte-identical at every worker
// count and under any assignment of indices to workers.
#pragma once

#include <cstddef>
#include <functional>

namespace fountain::util {

/// The normalization rule for a requested thread count, shared by the
/// engine (SessionConfig::threads), graph construction, the benches and the
/// tests that pin it: 0 ("auto") resolves to
/// std::thread::hardware_concurrency(), and any result is clamped to at
/// least 1 (hardware_concurrency may legally report 0).
std::size_t resolve_threads(std::size_t requested);

class WorkerPool {
 public:
  /// Runs task(worker, index) for every index in [0, count), on
  /// min(threads, count) workers. Indices are claimed dynamically (an atomic
  /// cursor), so heterogeneous per-index costs balance; tasks must confine
  /// themselves to worker-local state plus state partitioned by index, which
  /// is what makes the schedule-independence deterministic.
  ///
  /// threads <= 1 (or count <= 1) runs every index in ascending order on the
  /// calling thread — the exact sequential path, no threads spawned. The
  /// first exception thrown by any task is rethrown on the caller after all
  /// workers have stopped; remaining unclaimed indices are abandoned.
  static void run(std::size_t threads, std::size_t count,
                  const std::function<void(std::size_t worker,
                                           std::size_t index)>& task);
};

}  // namespace fountain::util
