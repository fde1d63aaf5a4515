#include "ftmc/exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "ftmc/common/contracts.hpp"

namespace ftmc::exec {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  std::atomic<int> sum{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    for (int i = 1; i <= 100; ++i) {
      pool.submit([&sum, i] { sum.fetch_add(i); });
    }
  }  // destructor drains + joins
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  // Even tasks still queued when the destructor runs must execute: the
  // parallel_for layer relies on pool destruction as its completion
  // barrier.
  std::atomic<int> executed{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&executed] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        executed.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(executed.load(), 50);
}

TEST(ThreadPool, CountsExecutedTasks) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) pool.submit([&done] { done.fetch_add(1); });
  while (done.load() < 10) std::this_thread::yield();
  // All ten observed done; the counter is bumped after each task body.
  while (pool.tasks_executed() < 10) std::this_thread::yield();
  EXPECT_EQ(pool.tasks_executed(), 10u);
}

TEST(ThreadPool, RejectsNonPositiveSize) {
  EXPECT_THROW(ThreadPool(0), ContractViolation);
  EXPECT_THROW(ThreadPool(-3), ContractViolation);
}

TEST(ThreadPool, RejectsEmptyTask) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(std::function<void()>{}), ContractViolation);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(ThreadPool, RepeatedConstructionAndShutdownIsSafe) {
  // Shutdown-safety stress: many short-lived pools, some never used.
  for (int round = 0; round < 20; ++round) {
    // Declared before the pool: its destructor drains queued tasks, which
    // must still find the counter alive.
    std::atomic<int> n{0};
    ThreadPool pool(3);
    if (round % 2 == 0) {
      for (int i = 0; i < 8; ++i) pool.submit([&n] { n.fetch_add(1); });
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace ftmc::exec
