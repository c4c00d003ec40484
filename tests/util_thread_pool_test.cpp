// ThreadPool: task completion, exception propagation, reuse across
// submissions, and the zero/one-worker edge cases that must reduce to the
// inline serial path.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/strings.h"

namespace aggchecker {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(0, kN, [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << ", " << threads
                                   << " threads";
    }
  }
}

TEST(ThreadPoolTest, RespectsNonZeroBegin) {
  ThreadPool pool(4);
  std::set<size_t> seen;
  std::mutex mu;
  pool.ParallelFor(10, 25, [&](size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(i);
  });
  EXPECT_EQ(seen.size(), 15u);
  EXPECT_EQ(*seen.begin(), 10u);
  EXPECT_EQ(*seen.rbegin(), 24u);
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  bool ran = false;
  pool.ParallelFor(5, 5, [&](size_t) { ran = true; });
  pool.ParallelFor(7, 3, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  size_t expected = std::thread::hardware_concurrency();
  if (expected == 0) expected = 1;
  EXPECT_EQ(pool.num_threads(), expected);
  std::atomic<size_t> count{0};
  pool.ParallelFor(0, 100, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPoolTest, SingleThreadRunsInlineInOrder) {
  // num_threads == 1 must behave exactly like a serial for loop — indices
  // in ascending order on the calling thread.
  ThreadPool pool(1);
  std::vector<size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(0, 50, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<size_t> expected(50);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ReusableAcrossManySubmissions) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> sum{0};
    pool.ParallelFor(0, 100, [&](size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), 5050u) << "round " << round;
  }
}

TEST(ThreadPoolTest, PropagatesLowestIndexException) {
  ThreadPool pool(4);
  // Multiple failing indices: the caller must observe the exception of the
  // lowest one regardless of scheduling.
  for (int round = 0; round < 10; ++round) {
    try {
      pool.ParallelFor(0, 200, [&](size_t i) {
        if (i == 17 || i == 100 || i == 180) {
          throw std::runtime_error(strings::Format("boom at %zu", i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 17");
    }
  }
  // The pool stays usable after an exception.
  std::atomic<size_t> count{0};
  pool.ParallelFor(0, 10, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10u);
}

TEST(ThreadPoolTest, SingleThreadPropagatesExceptionsToo) {
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.ParallelFor(0, 5, [](size_t i) {
        if (i == 3) throw std::logic_error("serial boom");
      }),
      std::logic_error);
}

TEST(ThreadPoolTest, AllIterationsRunDespiteFailures) {
  // Failure does not cancel the remaining range (cancellation is the
  // governor's job): every index still executes.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(pool.ParallelFor(0, 64,
                                [&](size_t i) {
                                  hits[i].fetch_add(1);
                                  if (i % 2 == 0) {
                                    throw std::runtime_error("even");
                                  }
                                }),
               std::runtime_error);
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, UsesWorkersForLargeRanges) {
  // With enough work per iteration, at least one iteration should land off
  // the calling thread (smoke check that workers actually participate).
  ThreadPool pool(4);
  if (pool.num_threads() < 2) GTEST_SKIP() << "no workers spawned";
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.ParallelFor(0, 64, [&](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 2u);
}

}  // namespace
}  // namespace aggchecker
