#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace aggchecker {

/// \brief Fixed-size pool of persistent worker threads with a blocking
/// `ParallelFor` over an index range. Deliberately work-stealing-free: every
/// parallel region is a shared atomic index counter that workers (and the
/// calling thread, which always participates) increment until the range is
/// drained. That keeps the pool ~150 lines, makes scheduling trivially fair
/// for the homogeneous per-claim / per-cube-group work it runs, and leaves no
/// queues to drain on shutdown.
///
/// Determinism contract: ParallelFor provides no ordering between iterations;
/// callers that need bit-identical output across thread counts must write
/// into pre-sized per-index slots and fold the slots serially afterwards
/// (see EvalEngine::EvaluateMergedIds for the pattern).
///
/// Exception propagation: if body invocations throw, the exception from the
/// *lowest* failing index is rethrown on the caller's thread once the range
/// completes (remaining iterations still run; cooperative cancellation is
/// the governor's job, not the pool's), so the surfaced error does not
/// depend on thread interleaving.
///
/// A pool with `num_threads <= 1` spawns no workers and runs every region
/// inline on the caller — byte-for-byte today's serial path.
class ThreadPool {
 public:
  /// Creates a pool that runs parallel regions on `num_threads` threads
  /// total (the caller counts as one, so `num_threads - 1` workers are
  /// spawned). 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads participating in a region (workers + the calling thread).
  size_t num_threads() const { return workers_.size() + 1; }

  /// Hardware thread count, never less than 1 (hardware_concurrency() may
  /// legally return 0). Benches clamp their thread sweeps to this so
  /// oversubscribed hosts stop reporting phantom scaling regressions.
  static size_t HardwareConcurrency() {
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
  }

  /// Runs `body(i)` for every i in [begin, end), distributing indices across
  /// the pool. Blocks until the whole range has executed. Rethrows the
  /// exception of the lowest failing index, if any. Safe to call repeatedly;
  /// concurrent ParallelFor calls from different threads serialize on the
  /// pool (one region at a time).
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& body);

 private:
  struct Region;  // shared state of one ParallelFor call

  void WorkerLoop();
  static void RunRegion(Region& region);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable wake_;    // workers wait here for a region
  std::condition_variable done_;    // the caller waits here for completion
  Region* active_ = nullptr;        // region being drained, or nullptr
  size_t region_seq_ = 0;           // bumps per region so workers never rejoin
  size_t workers_in_region_ = 0;    // workers still inside active_
  bool shutdown_ = false;
};

/// Runs body(i) for every i in [0, n): on `pool` when it is non-null with
/// more than one thread and n > 1, otherwise inline in index order.
void RunIndexed(ThreadPool* pool, size_t n,
                const std::function<void(size_t)>& body);

}  // namespace aggchecker
