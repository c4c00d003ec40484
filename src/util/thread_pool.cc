#include "util/thread_pool.h"

#include <atomic>
#include <exception>
#include <limits>

namespace aggchecker {

/// Shared state of one ParallelFor call. Lives on the caller's stack; workers
/// only touch it between the caller installing it as `active_` and the caller
/// observing `workers_in_region_ == 0`.
struct ThreadPool::Region {
  size_t end = 0;
  std::atomic<size_t> next{0};
  const std::function<void(size_t)>* body = nullptr;

  std::mutex err_mu;
  size_t err_index = std::numeric_limits<size_t>::max();
  std::exception_ptr error;
};

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = std::thread::hardware_concurrency();
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads - 1);
  for (size_t i = 0; i + 1 < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::RunRegion(Region& region) {
  for (;;) {
    const size_t i = region.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= region.end) return;
    try {
      (*region.body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(region.err_mu);
      if (i < region.err_index) {
        region.err_index = i;
        region.error = std::current_exception();
      }
    }
  }
}

void ThreadPool::WorkerLoop() {
  size_t last_seq = 0;
  for (;;) {
    Region* region = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [&] {
        return shutdown_ || (active_ != nullptr && region_seq_ != last_seq);
      });
      if (shutdown_) return;
      last_seq = region_seq_;
      region = active_;
      ++workers_in_region_;
    }
    RunRegion(*region);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --workers_in_region_;
    }
    done_.notify_all();
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& body) {
  if (begin >= end) return;
  Region region;
  region.end = end;
  region.next.store(begin, std::memory_order_relaxed);
  region.body = &body;

  if (!workers_.empty()) {
    std::unique_lock<std::mutex> lock(mu_);
    // One region at a time: concurrent callers queue here.
    done_.wait(lock, [&] { return active_ == nullptr; });
    active_ = &region;
    ++region_seq_;
    lock.unlock();
    wake_.notify_all();
  }

  RunRegion(region);  // the caller always participates

  if (!workers_.empty()) {
    std::unique_lock<std::mutex> lock(mu_);
    // All indices are claimed once our RunRegion returns; wait for workers
    // still executing their last-claimed iteration.
    done_.wait(lock, [&] { return workers_in_region_ == 0; });
    active_ = nullptr;
    lock.unlock();
    done_.notify_all();  // release any queued caller
  }

  if (region.error) std::rethrow_exception(region.error);
}

void RunIndexed(ThreadPool* pool, size_t n,
                const std::function<void(size_t)>& body) {
  if (pool != nullptr && pool->num_threads() > 1 && n > 1) {
    pool->ParallelFor(0, n, body);
    return;
  }
  for (size_t i = 0; i < n; ++i) body(i);
}

}  // namespace aggchecker
