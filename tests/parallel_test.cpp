// Unit tests for the thread pool and structured parallel loops.
#include "stof/parallel/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "stof/parallel/thread_pool.hpp"

namespace stof {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, ThreadCountRespected) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  ThreadPool def(0);
  EXPECT_GE(def.thread_count(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::int64_t i) { ++hits[i]; }, pool);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndSingleRanges) {
  ThreadPool pool(4);
  int calls = 0;
  parallel_for(5, 5, [&](std::int64_t) { ++calls; }, pool);
  EXPECT_EQ(calls, 0);
  parallel_for(7, 8, [&](std::int64_t i) { EXPECT_EQ(i, 7); ++calls; }, pool);
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, NonZeroBegin) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(20);
  parallel_for(10, 20, [&](std::int64_t i) { ++hits[i]; }, pool);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(hits[i].load(), 0);
  for (int i = 10; i < 20; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(
          0, 100,
          [](std::int64_t i) {
            if (i == 37) throw std::runtime_error("boom");
          },
          pool),
      std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> count{0};
  parallel_for(0, 10, [&](std::int64_t) { ++count; }, pool);
  EXPECT_EQ(count.load(), 10);
}

TEST(ParallelFor, DeterministicResultRegardlessOfThreads) {
  // The static schedule writes each slot from exactly one index, so results
  // cannot depend on the number of workers.
  std::vector<double> r1(256), r4(256);
  ThreadPool p1(1), p4(4);
  auto body = [](std::vector<double>& out) {
    return [&out](std::int64_t i) {
      out[static_cast<std::size_t>(i)] = static_cast<double>(i) * 1.5 + 1;
    };
  };
  parallel_for(0, 256, body(r1), p1);
  parallel_for(0, 256, body(r4), p4);
  EXPECT_EQ(r1, r4);
}

}  // namespace
}  // namespace stof
