// ThreadPool shutdown and exception-path stress tests.
//
// The serving runtime keeps the global pool alive for the whole process,
// which promotes the pool's failure paths from theoretical to load-bearing:
// a throwing task must surface at the structured join (not terminate the
// process or hang wait_idle), and shutdown must be explicit, idempotent,
// and safe to race with late submitters.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "stof/parallel/thread_pool.hpp"

namespace stof {
namespace {

TEST(ThreadPoolStress, TaskExceptionRethrownAtWaitIdle) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&ran] { ++ran; });
  }
  pool.submit([] { throw std::runtime_error("task failed"); });
  for (int i = 0; i < 16; ++i) {
    pool.submit([&ran] { ++ran; });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(ran.load(), 32);  // healthy tasks all completed
}

TEST(ThreadPoolStress, PoolUsableAfterTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error was consumed at the join; the next batch is clean.
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) pool.submit([&ran] { ++ran; });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolStress, OnlyFirstExceptionIsReported) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.submit([] { throw std::runtime_error("one of many"); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_NO_THROW(pool.wait_idle());  // later failures were not queued up
}

TEST(ThreadPoolStress, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ++ran;
      });
    }
    pool.shutdown();
    EXPECT_EQ(ran.load(), 64);
  }
  EXPECT_EQ(ran.load(), 64);  // destructor after shutdown is a no-op
}

TEST(ThreadPoolStress, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.submit([] {});
  pool.shutdown();
  EXPECT_NO_THROW(pool.shutdown());
  EXPECT_NO_THROW(pool.shutdown());
}

TEST(ThreadPoolStress, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), Error);
}

TEST(ThreadPoolStress, ConcurrentSubmittersRacingShutdown) {
  // Late submitters must either succeed (task runs before workers join) or
  // fail the stopping check — never enqueue into a dead pool or crash.
  ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::atomic<int> accepted{0}, rejected{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      while (!stop.load()) {
        try {
          pool.submit([] {});
          ++accepted;
        } catch (const Error&) {
          ++rejected;
          break;
        }
      }
    });
  }
  // Shut down only once a submit has been accepted: a fixed sleep can end
  // before any submitter thread is scheduled on a loaded machine.
  while (accepted.load() == 0) std::this_thread::yield();
  pool.shutdown();
  stop.store(true);
  for (auto& t : submitters) t.join();
  EXPECT_GT(accepted.load(), 0);
}

#if defined(__linux__)
TEST(ThreadPoolStress, DefaultSizeFollowsAffinityMask) {
  // A default-sized pool built by a thread pinned to one CPU gets one
  // worker (not hardware_concurrency workers sharing that core).
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  EXPECT_EQ(default_thread_count(), 1u);
  {
    ThreadPool pool(0);
    EXPECT_EQ(pool.thread_count(), 1u);
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(default_thread_count(),
            static_cast<std::size_t>(CPU_COUNT(&saved)));
}
#endif

TEST(ThreadPoolStress, ManyBatchesWithInterleavedFailures) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  int thrown = 0;
  for (int batch = 0; batch < 50; ++batch) {
    const bool poison = batch % 7 == 0;
    for (int i = 0; i < 8; ++i) pool.submit([&ran] { ++ran; });
    if (poison) pool.submit([] { throw std::runtime_error("poison"); });
    if (poison) {
      EXPECT_THROW(pool.wait_idle(), std::runtime_error) << batch;
      ++thrown;
    } else {
      EXPECT_NO_THROW(pool.wait_idle()) << batch;
    }
  }
  EXPECT_EQ(ran.load(), 50 * 8);
  EXPECT_EQ(thrown, 8);
}

}  // namespace
}  // namespace stof
