// Tests for cgc::exec: deterministic chunk planning, coverage,
// reductions that are bit-identical at 1 vs N workers, nesting safety,
// ordered exception propagation, the deterministic parallel sort, and
// the overlap primitive's thread, progress and exception rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/parallel.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace cgc::exec {
namespace {

TEST(ChunkPlan, PartitionsExactlyAndIgnoresWorkerCount) {
  for (const std::size_t n : {0ul, 1ul, 7ul, 1024ul, 5371ul, 100000ul}) {
    const ChunkPlan plan = plan_chunks(0, n);
    std::size_t covered = 0;
    std::size_t prev_hi = 0;
    for (std::size_t c = 0; c < plan.num_chunks; ++c) {
      const auto [lo, hi] = plan.bounds(c);
      ASSERT_LE(lo, hi);
      EXPECT_EQ(lo, prev_hi) << "chunks must tile the range";
      covered += hi - lo;
      prev_hi = hi;
    }
    EXPECT_EQ(covered, n);
  }
}

TEST(ChunkPlan, IsPureFunctionOfRangeAndGrain) {
  const ChunkPlan a = plan_chunks(10, 90010, 64);
  // Same plan under a different pool: boundaries must not move.
  util::ThreadPool one(1);
  ScopedPool scoped(&one);
  const ChunkPlan b = plan_chunks(10, 90010, 64);
  EXPECT_EQ(a.num_chunks, b.num_chunks);
  EXPECT_EQ(a.chunk_size, b.chunk_size);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(0, kN, [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForChunked, ChunksPartitionTheRange) {
  constexpr std::size_t kN = 5371;  // deliberately not a round number
  std::atomic<std::size_t> total{0};
  parallel_for_chunked(0, kN, [&total](std::size_t lo, std::size_t hi) {
    ASSERT_LT(lo, hi);
    total += hi - lo;
  });
  EXPECT_EQ(total.load(), kN);
}

TEST(ParallelReduce, MatchesOrderedSerialFold) {
  std::mt19937_64 rng(12345);
  std::vector<double> values(50000);
  for (double& v : values) {
    v = std::uniform_real_distribution<double>(-1.0, 1.0)(rng);
  }
  // Serial reference: fold the chunk partials in chunk order.
  const ChunkPlan plan = plan_chunks(0, values.size());
  double serial = 0.0;
  for (std::size_t c = 0; c < plan.num_chunks; ++c) {
    const auto [lo, hi] = plan.bounds(c);
    double part = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      part += values[i];
    }
    serial += part;
  }
  const double parallel = parallel_reduce(
      0, values.size(), 0.0,
      [&](std::size_t lo, std::size_t hi) {
        double s = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          s += values[i];
        }
        return s;
      },
      [](double& acc, double part) { acc += part; });
  // Bit-identical, not just approximately equal.
  EXPECT_EQ(parallel, serial);
}

TEST(ParallelReduce, BitIdenticalAtOneVersusManyWorkers) {
  std::mt19937_64 rng(999);
  std::vector<double> values(80000);
  for (double& v : values) {
    v = std::uniform_real_distribution<double>(0.0, 1e6)(rng);
  }
  const auto run = [&values] {
    return parallel_reduce(
        0, values.size(), 0.0,
        [&](std::size_t lo, std::size_t hi) {
          double s = 0.0;
          for (std::size_t i = lo; i < hi; ++i) {
            s += values[i];
          }
          return s;
        },
        [](double& acc, double part) { acc += part; });
  };
  util::ThreadPool one(1);
  util::ThreadPool many(8);
  double serial_result = 0.0;
  double parallel_result = 0.0;
  {
    ScopedPool scoped(&one);
    serial_result = run();
  }
  {
    ScopedPool scoped(&many);
    parallel_result = run();
  }
  EXPECT_EQ(serial_result, parallel_result);
}

TEST(ParallelReduce, VectorConcatenationPreservesIndexOrder) {
  constexpr std::size_t kN = 30000;
  const std::vector<std::size_t> indices = parallel_reduce(
      0, kN, std::vector<std::size_t>{},
      [](std::size_t lo, std::size_t hi) {
        std::vector<std::size_t> local;
        local.reserve(hi - lo);
        for (std::size_t i = lo; i < hi; ++i) {
          local.push_back(i);
        }
        return local;
      },
      [](std::vector<std::size_t>& acc, std::vector<std::size_t>&& part) {
        acc.insert(acc.end(), part.begin(), part.end());
      });
  ASSERT_EQ(indices.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(indices[i], i);
  }
}

TEST(ParallelMap, ReturnsResultsInIndexOrder) {
  const std::vector<std::size_t> squares =
      parallel_map<std::size_t>(5000, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 5000u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    ASSERT_EQ(squares[i], i * i);
  }
}

TEST(ParallelFor, ExceptionFromIterationIsRethrown) {
  EXPECT_THROW(parallel_for(0, 100000,
                            [](std::size_t i) {
                              if (i == 42421) {
                                throw util::Error("iteration failure");
                              }
                            }),
               util::Error);
}

TEST(ParallelFor, LowestChunkExceptionWins) {
  // Several chunks throw; the rethrown error must be the one from the
  // lowest-indexed chunk regardless of scheduling.
  const ChunkPlan plan = plan_chunks(0, 100000);
  ASSERT_GT(plan.num_chunks, 2u);
  try {
    parallel_for_chunked(0, 100000, [](std::size_t lo, std::size_t) {
      throw util::Error("chunk@" + std::to_string(lo));
    });
    FAIL() << "expected throw";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("chunk@0"), std::string::npos)
        << "got: " << e.what();
  }
}

TEST(ParallelFor, NestedUseDoesNotDeadlock) {
  // Analyzers call exec helpers from within parallel regions (e.g.
  // autocorrelation inside a per-host scan). Force heavy nesting on a
  // tiny pool: every level must make progress via caller participation.
  util::ThreadPool tiny(2);
  ScopedPool scoped(&tiny);
  std::atomic<int> count{0};
  parallel_for(
      0, 16,
      [&count](std::size_t) {
        parallel_for(
            0, 8, [&count](std::size_t) { ++count; }, /*grain=*/1);
      },
      /*grain=*/1);
  EXPECT_EQ(count.load(), 16 * 8);
}

TEST(ParallelSort, SortsLikeSerialSort) {
  std::mt19937_64 rng(777);
  std::vector<double> values(200000);
  for (double& v : values) {
    v = std::uniform_real_distribution<double>(-1e9, 1e9)(rng);
  }
  std::vector<double> expected = values;
  std::sort(expected.begin(), expected.end());
  parallel_sort(&values);
  EXPECT_EQ(values, expected);
}

TEST(ParallelSort, IdenticalAtOneVersusManyWorkers) {
  std::mt19937_64 rng(31337);
  std::vector<std::int64_t> values(150000);
  for (std::int64_t& v : values) {
    // Narrow key space so ties are common: exercises merge stability.
    v = std::uniform_int_distribution<std::int64_t>(0, 99)(rng);
  }
  std::vector<std::int64_t> a = values;
  std::vector<std::int64_t> b = values;
  util::ThreadPool one(1);
  util::ThreadPool many(8);
  {
    ScopedPool scoped(&one);
    parallel_sort(&a);
  }
  {
    ScopedPool scoped(&many);
    parallel_sort(&b);
  }
  EXPECT_EQ(a, b);
}

TEST(NumWorkers, AtLeastOne) { EXPECT_GE(num_workers(), 1u); }

TEST(Overlap, ForegroundOnTheCallerAndEachFunctionOnce) {
  util::ThreadPool eight(8);
  for (util::ThreadPool* pool :
       {static_cast<util::ThreadPool*>(nullptr), &eight}) {
    ScopedPool scoped(pool);
    for (int round = 0; round < 200; ++round) {
      int foreground_calls = 0;
      std::atomic<int> background_calls{0};
      std::thread::id foreground_thread;
      overlap([&] {
                ++foreground_calls;
                foreground_thread = std::this_thread::get_id();
              },
              [&] { background_calls.fetch_add(1); });
      ASSERT_EQ(foreground_calls, 1);
      ASSERT_EQ(background_calls.load(), 1);
      ASSERT_EQ(foreground_thread, std::this_thread::get_id());
    }
  }
}

TEST(Overlap, BackgroundWritesAreVisibleAfterTheReturn) {
  // No atomics: the return must order the background's plain writes.
  std::vector<int> written(1000, 0);
  int read_back = 0;
  overlap([&] { read_back = 1; },
          [&] { std::fill(written.begin(), written.end(), 7); });
  EXPECT_EQ(read_back, 1);
  EXPECT_EQ(std::count(written.begin(), written.end(), 7), 1000);
}

TEST(Overlap, CallerRunsBackgroundWhenTheOnlyWorkerIsParked) {
  // Park the 1-worker pool's only worker inside an enclosing
  // parallel_for: both chunks block until released, so one lands on
  // the region's calling thread and the other on the worker.
  util::ThreadPool one(1);
  ScopedPool scoped(&one);
  std::atomic<int> parked{0};
  std::atomic<bool> release{false};
  auto region = std::async(std::launch::async, [&] {
    parallel_for(
        0, 2,
        [&](std::size_t) {
          parked.fetch_add(1);
          while (!release.load()) {
            std::this_thread::yield();
          }
        },
        /*grain=*/1);
  });
  while (parked.load() < 2) {
    std::this_thread::yield();
  }
  std::thread::id background_thread;
  overlap([] {}, [&] { background_thread = std::this_thread::get_id(); });
  EXPECT_EQ(background_thread, std::this_thread::get_id());
  release.store(true);
  region.get();
}

TEST(Overlap, NestedInThePoolsOnlyWorkerRunsSerially) {
  util::ThreadPool one(1);
  ScopedPool scoped(&one);
  std::atomic<int> runs{0};
  one.submit([&] {
       overlap([&] { runs.fetch_add(1); }, [&] { runs.fetch_add(1); });
     }).get();
  EXPECT_EQ(runs.load(), 2);
}

TEST(Overlap, BackgroundExceptionWinsWhenBothThrow) {
  util::ThreadPool eight(8);
  for (util::ThreadPool* pool :
       {static_cast<util::ThreadPool*>(nullptr), &eight}) {
    ScopedPool scoped(pool);
    for (int round = 0; round < 50; ++round) {
      try {
        overlap([] { throw std::runtime_error("foreground"); },
                [] { throw util::Error("background"); });
        FAIL() << "expected throw";
      } catch (const util::Error& e) {
        EXPECT_STREQ(e.what(), "background");
      }
    }
  }
}

TEST(Overlap, ForegroundExceptionWaitsForTheBackground) {
  util::ThreadPool eight(8);
  for (util::ThreadPool* pool :
       {static_cast<util::ThreadPool*>(nullptr), &eight}) {
    ScopedPool scoped(pool);
    bool background_done = false;
    try {
      overlap([] { throw std::runtime_error("foreground"); },
              [&] {
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                background_done = true;
              });
      FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "foreground");
    }
    EXPECT_TRUE(background_done);
  }
}

TEST(Overlap, BackgroundExceptionAloneIsRethrown) {
  int foreground_calls = 0;
  EXPECT_THROW(overlap([&] { ++foreground_calls; },
                       [] { throw util::Error("background"); }),
               util::Error);
  EXPECT_EQ(foreground_calls, 1);
}

}  // namespace
}  // namespace cgc::exec
