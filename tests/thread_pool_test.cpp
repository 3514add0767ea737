// Tests for the raw thread pool (task submission layer). Data-parallel
// helper coverage lives in exec_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <vector>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace cgc::util {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw Error("boom"); });
  EXPECT_THROW(f.get(), Error);
}

TEST(ThreadPool, StressManySmallTasksFromManyThreads) {
  // Hammer the queue from several producer threads at once; every task
  // must run exactly once and every future must resolve.
  ThreadPool pool(4);
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 250;
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &counter] {
      std::vector<std::future<void>> futures;
      futures.reserve(kPerProducer);
      for (int i = 0; i < kPerProducer; ++i) {
        futures.push_back(pool.submit([&counter] { ++counter; }));
      }
      for (auto& f : futures) {
        f.get();
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  EXPECT_EQ(counter.load(), kProducers * kPerProducer);
}

TEST(ThreadPool, NestedSubmitDoesNotDeadlockWhenCallerDoesNotBlock) {
  // A pooled task may submit follow-up work to the same pool as long as
  // it does not block on it; the follow-ups drain after it returns.
  ThreadPool pool(2);
  std::atomic<int> count{0};
  std::mutex inner_mutex;
  std::vector<std::future<void>> inner;
  std::vector<std::future<void>> outer;
  for (int i = 0; i < 16; ++i) {
    outer.push_back(pool.submit([&] {
      auto f = pool.submit([&count] { ++count; });
      std::lock_guard lock(inner_mutex);
      inner.push_back(std::move(f));
    }));
  }
  for (auto& f : outer) {
    f.get();
  }
  for (auto& f : inner) {
    f.get();
  }
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, ExceptionDoesNotKillWorkers) {
  ThreadPool pool(2);
  auto bad = pool.submit([] { throw Error("first"); });
  EXPECT_THROW(bad.get(), Error);
  // The pool must still execute subsequent work.
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; }).get();
  EXPECT_TRUE(ran.load());
}

bool blocks(int signal) {
  sigset_t mask;
  pthread_sigmask(SIG_BLOCK, nullptr, &mask);
  return sigismember(&mask, signal) == 1;
}

TEST(ThreadPool, WorkersBlockStopSignalsAndTheCreatorDoesNot) {
  ASSERT_FALSE(blocks(SIGTERM));
  ASSERT_FALSE(blocks(SIGINT));
  ThreadPool pool(2);
  EXPECT_FALSE(blocks(SIGTERM)) << "the creator's mask was not restored";
  EXPECT_FALSE(blocks(SIGINT));
  bool term = false;
  bool interrupt = false;
  pool.submit([&] {
        term = blocks(SIGTERM);
        interrupt = blocks(SIGINT);
      })
      .get();
  EXPECT_TRUE(term);
  EXPECT_TRUE(interrupt);
}

}  // namespace
}  // namespace cgc::util
