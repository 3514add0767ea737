// Tests for TraceSet: indexing, sorting, derived sample vectors, and
// the content digest (the word hasher against a byte-serial FNV-1a
// reference, and a pinned digest of a hand-built trace).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "trace/trace_set.hpp"
#include "trace/word_digest.hpp"
#include "util/check.hpp"

namespace cgc::trace {
namespace {

TraceSet make_small_trace() {
  TraceSet trace("test");
  trace.set_duration(4 * util::kSecondsPerHour);

  Machine m;
  m.machine_id = 7;
  m.cpu_capacity = 0.5f;
  m.mem_capacity = 0.5f;
  trace.add_machine(m);

  // Two jobs: job 1 with two tasks, job 2 with one (unfinished).
  Job j1;
  j1.job_id = 1;
  j1.priority = 3;
  j1.submit_time = 100;
  j1.end_time = 1100;
  j1.num_tasks = 2;
  trace.add_job(j1);
  Job j2;
  j2.job_id = 2;
  j2.priority = 10;
  j2.submit_time = 7200;
  j2.end_time = -1;
  trace.add_job(j2);

  Task t1;
  t1.job_id = 1;
  t1.task_index = 0;
  t1.priority = 3;
  t1.submit_time = 100;
  t1.schedule_time = 110;
  t1.end_time = 510;
  trace.add_task(t1);
  Task t2 = t1;
  t2.task_index = 1;
  t2.schedule_time = 120;
  t2.end_time = 1100;
  trace.add_task(t2);
  Task t3;
  t3.job_id = 2;
  t3.task_index = 0;
  t3.priority = 10;
  t3.submit_time = 7200;
  t3.schedule_time = 7210;
  t3.end_time = -1;
  trace.add_task(t3);

  // Events deliberately added out of order: finalize() must sort.
  trace.add_event({510, 1, 0, 7, TaskEventType::kFinish, 3});
  trace.add_event({100, 1, 0, -1, TaskEventType::kSubmit, 3});
  trace.add_event({110, 1, 0, 7, TaskEventType::kSchedule, 3});

  HostLoadSeries h(7, 0, util::kSamplePeriod);
  const float cpu[kNumBands] = {0.1f, 0.05f, 0.02f};
  const float mem[kNumBands] = {0.2f, 0.1f, 0.05f};
  h.append(cpu, mem, 0.4f, 0.1f, 3, 0);
  h.append(cpu, mem, 0.45f, 0.2f, 4, 1);
  trace.add_host_load(std::move(h));

  trace.finalize();
  return trace;
}

TEST(TraceSet, FinalizeSortsEventsByTime) {
  const TraceSet trace = make_small_trace();
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, TaskEventType::kSubmit);
  EXPECT_EQ(events[1].type, TaskEventType::kSchedule);
  EXPECT_EQ(events[2].type, TaskEventType::kFinish);
}

TEST(TraceSet, MachineLookup) {
  const TraceSet trace = make_small_trace();
  ASSERT_TRUE(trace.machine_by_id(7).has_value());
  EXPECT_FLOAT_EQ(trace.machine_by_id(7)->cpu_capacity, 0.5f);
  EXPECT_FALSE(trace.machine_by_id(99).has_value());
}

TEST(TraceSet, JobLookupAndTaskRanges) {
  const TraceSet trace = make_small_trace();
  const auto jobs = trace.jobs();
  const auto job = [&jobs](std::int64_t id) {
    return std::find_if(jobs.begin(), jobs.end(),
                        [id](const Job& j) { return j.job_id == id; });
  };
  ASSERT_NE(job(1), jobs.end());
  EXPECT_EQ(job(1)->num_tasks, 2);
  EXPECT_EQ(job(42), jobs.end());
  EXPECT_EQ(trace.tasks_for_job(1).size(), 2u);
  EXPECT_EQ(trace.tasks_for_job(2).size(), 1u);
  EXPECT_EQ(trace.tasks_for_job(42).size(), 0u);
  // Tasks within a job sorted by index.
  EXPECT_EQ(trace.tasks_for_job(1)[0].task_index, 0);
  EXPECT_EQ(trace.tasks_for_job(1)[1].task_index, 1);
}

TEST(TraceSet, HostLoadLookup) {
  const TraceSet trace = make_small_trace();
  ASSERT_NE(trace.host_load_for(7), nullptr);
  EXPECT_EQ(trace.host_load_for(7)->size(), 2u);
  EXPECT_EQ(trace.host_load_for(5), nullptr);
}

TEST(TraceSet, SummaryCounts) {
  const TraceSet trace = make_small_trace();
  const TraceSummary s = trace.summary();
  EXPECT_EQ(s.num_jobs, 2u);
  EXPECT_EQ(s.num_tasks, 3u);
  EXPECT_EQ(s.num_events, 3u);
  EXPECT_EQ(s.num_machines, 1u);
  EXPECT_EQ(s.num_samples, 2u);
  // One terminal event (FINISH), zero abnormal.
  EXPECT_DOUBLE_EQ(s.abnormal_completion_fraction, 0.0);
}

TEST(TraceSet, JobLengthsSkipUnfinished) {
  const TraceSet trace = make_small_trace();
  const auto lengths = trace.job_lengths();
  ASSERT_EQ(lengths.size(), 1u);
  EXPECT_DOUBLE_EQ(lengths[0], 1000.0);
}

TEST(TraceSet, TaskRunDurationsSkipUnfinished) {
  const TraceSet trace = make_small_trace();
  const auto durations = trace.task_run_durations();
  ASSERT_EQ(durations.size(), 2u);
  EXPECT_DOUBLE_EQ(durations[0], 400.0);
  EXPECT_DOUBLE_EQ(durations[1], 980.0);
}

TEST(TraceSet, SubmissionIntervals) {
  const TraceSet trace = make_small_trace();
  const auto intervals = trace.submission_intervals();
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(intervals[0], 7100.0);
}

TEST(TraceSet, JobsPerHourBins) {
  const TraceSet trace = make_small_trace();
  const auto hourly = trace.jobs_per_hour();
  ASSERT_EQ(hourly.size(), 4u);
  EXPECT_DOUBLE_EQ(hourly[0], 1.0);  // job 1 at t=100
  EXPECT_DOUBLE_EQ(hourly[1], 0.0);
  EXPECT_DOUBLE_EQ(hourly[2], 1.0);  // job 2 at t=7200
}

TEST(TraceSet, MemUsageScaling) {
  TraceSet cloud("c");
  Job j;
  j.job_id = 1;
  j.submit_time = 0;
  j.end_time = 10;
  j.mem_usage = 0.01f;  // normalized
  cloud.add_job(j);
  cloud.set_duration(100);
  cloud.finalize();
  // 0.01 of a 32 GB node = 327.68 MB.
  EXPECT_NEAR(cloud.job_mem_usage(32.0)[0], 327.68, 0.01);
  // Grid traces are already in MB: scaling must not apply.
  TraceSet grid("g");
  grid.set_memory_in_mb(true);
  j.mem_usage = 500.0f;
  grid.add_job(j);
  grid.set_duration(100);
  grid.finalize();
  EXPECT_DOUBLE_EQ(grid.job_mem_usage(32.0)[0], 500.0);
}

TEST(TraceSet, QueriesBeforeFinalizeThrow) {
  TraceSet trace("t");
  trace.add_job({});
  EXPECT_THROW(trace.tasks_for_job(1), util::Error);
  EXPECT_THROW(trace.machine_by_id(1), util::Error);
}

TEST(TraceSet, DurationInferredFromEvents) {
  TraceSet trace("t");
  trace.add_event({5000, 1, 0, -1, TaskEventType::kSubmit, 1});
  trace.finalize();
  EXPECT_EQ(trace.duration(), 5000);
}

/// Byte-at-a-time FNV-1a over the eight little-endian bytes of `v`: the
/// definition WordDigest::word must reproduce exactly.
std::uint64_t fnv1a_bytes(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

TEST(WordDigest, MatchesByteSerialFnv1aAtEdgeWords) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::uint64_t words[] = {
      0, 1, 255, 256, 0xffffffffULL, 0x100000000ULL,
      static_cast<std::uint64_t>(kMax), static_cast<std::uint64_t>(-1LL),
      static_cast<std::uint64_t>(-256LL), static_cast<std::uint64_t>(kMin),
      0xff, 0xff00000000000000ULL, 0x00ffffffffffffffULL, 0x80,
      0xff80ULL, static_cast<std::uint64_t>(-2LL),
      static_cast<std::uint64_t>(-129LL)};
  std::uint64_t expected = WordDigest::kOffset;
  WordDigest d;
  for (const std::uint64_t w : words) {
    d.word(w);
    expected = fnv1a_bytes(expected, w);
    EXPECT_EQ(d.value(), expected) << std::hex << "word 0x" << w;
  }
  // i64 feeds the two's-complement word.
  for (const std::int64_t v : {std::int64_t{-1}, std::int64_t{-256}, kMin,
                               kMax, std::int64_t{0}}) {
    d.i64(v);
    expected = fnv1a_bytes(expected, static_cast<std::uint64_t>(v));
    EXPECT_EQ(d.value(), expected) << "i64 " << v;
  }
  // f32 feeds the zero-extended bit pattern.
  const float floats[] = {
      0.0f, -0.0f, 1.0f, -1.0f, std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::quiet_NaN(),
      std::bit_cast<float>(0xffffffffU), std::bit_cast<float>(0x7fc00001U),
      std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::max()};
  for (const float f : floats) {
    d.f32(f);
    expected = fnv1a_bytes(expected, std::bit_cast<std::uint32_t>(f));
    EXPECT_EQ(d.value(), expected) << "f32 bits 0x" << std::hex
                                   << std::bit_cast<std::uint32_t>(f);
  }
}

TEST(WordDigest, MatchesByteSerialFnv1aOnHashedWords) {
  // 1M hashed words, each reshaped so its top k bytes (k = 0..8) are
  // all zero or all 0xff: every run length of both kinds, from every
  // hash state the stream reaches.
  std::uint64_t expected = WordDigest::kOffset;
  WordDigest d;
  std::size_t mismatches = 0;
  for (std::uint64_t i = 0; i < 1'000'000; ++i) {
    std::uint64_t w = splitmix64(i);
    const std::uint64_t shape = splitmix64(~i);
    const int k = static_cast<int>(shape % 9);
    const bool ones = ((shape >> 8) & 1) != 0;
    if (k == 8) {
      w = ones ? ~0ULL : 0;
    } else if (k > 0) {
      const std::uint64_t high = ~0ULL << (64 - 8 * k);
      w = ones ? (w | high) : (w & ~high);
    }
    d.word(w);
    expected = fnv1a_bytes(expected, w);
    if (d.value() != expected) {
      ++mismatches;
      expected = d.value();  // resynchronise: count every bad word
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// A trace whose digest words cover every shape the hasher folds: zero
/// and all-ones words, short positive and negative values, -1
/// sentinels, 64-bit extremes, and float bit patterns (signed zero,
/// subnormal, NaN, negative).
TraceSet make_digest_trace() {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  TraceSet trace("digest");
  trace.set_duration(-1);
  Machine m;
  m.machine_id = kMin;
  m.cpu_capacity = -0.0f;
  m.mem_capacity = std::numeric_limits<float>::denorm_min();
  m.page_cache_capacity = std::numeric_limits<float>::quiet_NaN();
  m.attributes = 0xff;
  trace.add_machine(m);
  m.machine_id = 0;
  m.cpu_capacity = 0.25f;
  m.mem_capacity = -1.5f;
  m.page_cache_capacity = std::bit_cast<float>(0xffffffffU);
  m.attributes = 0;
  trace.add_machine(m);

  trace.add_event({-1, kMax, -256, -1, TaskEventType::kSubmit, 12});
  trace.add_event({0, 1, 255, 256, TaskEventType::kSchedule, 1});
  trace.add_event({0xffffffffLL, -2, std::numeric_limits<std::int32_t>::min(),
                   0x100000000LL, TaskEventType::kLost, 0});
  trace.add_event({kMin, 0, 0, kMax, TaskEventType::kFinish, 255});

  Task t;
  t.job_id = -7;
  t.task_index = -1;
  t.priority = 9;
  t.submit_time = -86400;
  t.schedule_time = -1;
  t.end_time = kMax;
  t.end_event = TaskEventType::kEvict;
  t.machine_id = -1;
  t.resubmits = -129;
  t.cpu_request = 0.0f;
  t.mem_request = -0.0f;
  t.cpu_usage = 1e-40f;  // subnormal
  t.mem_usage = -std::numeric_limits<float>::infinity();
  trace.add_task(t);
  t.job_id = 0x00ffffffffffffffLL;
  t.task_index = 65536;
  t.submit_time = 1;
  t.schedule_time = 300;
  t.end_time = -256;
  t.resubmits = 0;
  t.cpu_usage = 0.125f;
  t.mem_usage = 3.0e38f;
  trace.add_task(t);

  Job j;
  j.job_id = -1;
  j.priority = 0;
  j.submit_time = kMin;
  j.end_time = -1;
  j.num_tasks = 0;
  j.cpu_parallelism = std::bit_cast<float>(0x7fc00001U);
  j.mem_usage = -0.0f;
  trace.add_job(j);
  j.job_id = 1;
  j.submit_time = 255;
  j.end_time = 0x7f00;
  j.num_tasks = -3;
  j.cpu_parallelism = 1.0f;
  j.mem_usage = 0.5f;
  trace.add_job(j);

  HostLoadSeries h(-300, -86400, 300);
  const float cpu[kNumBands] = {0.0f, -0.0f, 1e-45f};
  const float mem[kNumBands] = {0.75f, std::numeric_limits<float>::quiet_NaN(),
                                -2.0f};
  h.append(cpu, mem, 0.4f, 0.0f, 0, -1);
  h.append(mem, cpu, -0.4f, 1.0f, std::numeric_limits<std::int32_t>::max(),
           std::numeric_limits<std::int32_t>::min());
  trace.add_host_load(std::move(h));
  return trace;
}

TEST(TraceSet, ContentDigestPinnedOnEveryWordShape) {
  // Not finalized: the digest covers records in insertion order.
  // Recorded with the byte-serial hasher, before the word fold.
  EXPECT_EQ(make_digest_trace().content_digest(), 0x98b63ba03f625fcdULL);
}

TEST(HostLoadSeries, BandAccessorsAndMaxima) {
  HostLoadSeries h(1, 0, 300);
  const float cpu1[kNumBands] = {0.1f, 0.2f, 0.3f};
  const float mem1[kNumBands] = {0.05f, 0.05f, 0.1f};
  const float cpu2[kNumBands] = {0.05f, 0.1f, 0.15f};
  h.append(cpu1, mem1, 0.5f, 0.2f, 10, 0);
  h.append(cpu2, mem1, 0.6f, 0.1f, 8, 2);
  EXPECT_FLOAT_EQ(h.cpu_total(0), 0.6f);
  EXPECT_FLOAT_EQ(h.cpu_from_band(PriorityBand::kMid, 0), 0.5f);
  EXPECT_FLOAT_EQ(h.cpu_from_band(PriorityBand::kHigh, 0), 0.3f);
  EXPECT_FLOAT_EQ(h.max_cpu(), 0.6f);
  EXPECT_FLOAT_EQ(h.max_mem_assigned(), 0.6f);
  EXPECT_FLOAT_EQ(h.max_page_cache(), 0.2f);
  EXPECT_EQ(h.time_at(1), 300);
  // Relative series clamps into [0,1].
  const auto rel = h.cpu_relative(0.5, PriorityBand::kLow);
  EXPECT_DOUBLE_EQ(rel[0], 1.0);  // 0.6/0.5 clamped
  EXPECT_NEAR(rel[1], 0.6, 1e-6);
}

}  // namespace
}  // namespace cgc::trace
