// SlidingWindow engine tests: window semantics (tumbling, overlapping,
// watermark, late policy), streaming-vs-batch agreement on a generated
// workload within the sketch error bound, bit-identical state across
// CGC_THREADS, deterministic degradation under fault injection, and
// golden digests of every closed window's state on a fixed stream (in
// memory and through the daemon's text pipe).
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "exec/parallel.hpp"
#include "fault/fault.hpp"
#include "gen/google_model.hpp"
#include "stats/ecdf.hpp"
#include "stream/daemon.hpp"
#include "stream/replay.hpp"
#include "stream/window.hpp"
#include "trace/google_format.hpp"
#include "trace/trace_set.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace cgc {
namespace {

using stream::LatePolicy;
using stream::SlidingWindow;
using stream::WindowConfig;
using stream::WindowStats;
using trace::TaskEvent;
using trace::TaskEventType;

TaskEvent make_event(util::TimeSec time, TaskEventType type,
                     std::int64_t job_id, std::int32_t task_index,
                     int priority = 1, std::int64_t machine_id = -1) {
  TaskEvent e;
  e.time = time;
  e.type = type;
  e.job_id = job_id;
  e.task_index = task_index;
  e.priority = static_cast<std::uint8_t>(priority);
  e.machine_id = machine_id;
  return e;
}

/// Canonical state of every closed window, concatenated.
std::string closed_state(const SlidingWindow& engine) {
  std::string bytes;
  for (const WindowStats& ws : engine.closed()) {
    ws.append_state(&bytes);
  }
  return bytes;
}

TEST(SlidingWindowTest, TumblingWindowLifecycleAndMetrics) {
  WindowConfig config;
  config.width = 100;
  config.watermark_lag = 10;
  config.rate_bins = 10;
  SlidingWindow engine(config);

  std::vector<TaskEvent> batch = {
      make_event(5, TaskEventType::kSubmit, 1, 0, 2),
      make_event(7, TaskEventType::kSchedule, 1, 0, 2, 42),
      make_event(20, TaskEventType::kSubmit, 2, 0, 9),
      make_event(25, TaskEventType::kSchedule, 2, 0, 9, 42),
      make_event(57, TaskEventType::kFinish, 1, 0, 2, 42),
  };
  engine.ingest(batch);
  // Watermark is 57 - 10: window [0, 100) still open.
  EXPECT_EQ(engine.windows_closed(), 0u);
  ASSERT_EQ(engine.open().size(), 1u);

  // An event at 115 closes window 0 (watermark 105 >= 100).
  std::vector<TaskEvent> next = {
      make_event(115, TaskEventType::kFinish, 2, 0, 9, 42),
  };
  engine.ingest(next);
  ASSERT_EQ(engine.windows_closed(), 1u);
  const WindowStats* w0 = engine.find(0);
  ASSERT_NE(w0, nullptr);
  EXPECT_TRUE(w0->closed);
  EXPECT_EQ(w0->start, 0);
  EXPECT_EQ(w0->end, 100);
  EXPECT_EQ(w0->events.total(), 5);
  EXPECT_EQ(w0->events.total(TaskEventType::kSubmit), 2);
  EXPECT_EQ(w0->events.submits_in_band(trace::PriorityBand::kLow), 1);
  EXPECT_EQ(w0->events.submits_in_band(trace::PriorityBand::kHigh), 1);
  // Task (1,0): scheduled at 7, finished at 57 -> run duration 50.
  ASSERT_EQ(w0->task_length.count(), 1u);
  EXPECT_DOUBLE_EQ(w0->task_length.min(), 50.0);
  // Job 1 fully done at 57, first submit 5 -> job length 52.
  ASSERT_EQ(w0->job_length.count(), 1u);
  EXPECT_DOUBLE_EQ(w0->job_length.min(), 52.0);
  // One submission gap: 20 - 5 = 15.
  ASSERT_EQ(w0->submit_gap.count(), 1u);
  EXPECT_DOUBLE_EQ(w0->submit_gap_moments.mean(), 15.0);
  // At close, task (2,0) is still running on machine 42.
  EXPECT_EQ(w0->pending_at_close, 0);
  EXPECT_EQ(w0->running_at_close, 1);
  EXPECT_EQ(w0->hosts_seen, 1);
  ASSERT_EQ(w0->host_load.count(), 1u);
  EXPECT_DOUBLE_EQ(w0->host_load.max(), 1.0);
  // Rate bins: submits at 5 and 20 land in sub-bins 0 and 2.
  EXPECT_EQ(w0->rate_bins[0], 1);
  EXPECT_EQ(w0->rate_bins[2], 1);

  engine.flush();
  EXPECT_EQ(engine.windows_closed(), 2u);
  const WindowStats* w1 = engine.find(1);
  ASSERT_NE(w1, nullptr);
  // Window [100, 200): the finish of task (2,0), run 115 - 25 = 90.
  EXPECT_EQ(w1->events.total(), 1);
  ASSERT_EQ(w1->task_length.count(), 1u);
  EXPECT_DOUBLE_EQ(w1->task_length.min(), 90.0);
  EXPECT_EQ(w1->running_at_close, 0);
  EXPECT_EQ(w1->hosts_seen, 0);
  EXPECT_FALSE(engine.health().lossy());
}

TEST(SlidingWindowTest, TasksOfJobsTwoToThe32ApartRunApart) {
  // Job ids 2^32 apart (and task index -1 beside 0) are four distinct
  // tasks. A running-task key that packs (job << 32) ^ task into 64 bits
  // merges each pair: the second SCHEDULE overwrites the first run, one
  // task-length sample is lost, and its FINISH counts as a pending death.
  WindowConfig config;
  config.width = 100;
  config.watermark_lag = 10;
  SlidingWindow engine(config);
  const std::int64_t a = 5;
  const std::int64_t b = a + (std::int64_t{1} << 32);
  engine.ingest(std::vector<TaskEvent>{
      make_event(1, TaskEventType::kSubmit, a, 0),
      make_event(1, TaskEventType::kSubmit, b, 0),
      make_event(1, TaskEventType::kSubmit, a, -1),
      make_event(1, TaskEventType::kSubmit, b, -1),
      make_event(3, TaskEventType::kSchedule, a, 0, 1, 1),
      make_event(4, TaskEventType::kSchedule, b, 0, 1, 2),
      make_event(5, TaskEventType::kSchedule, a, -1, 1, 3),
      make_event(6, TaskEventType::kSchedule, b, -1, 1, 4),
      make_event(30, TaskEventType::kFinish, a, 0, 1, 1),
      make_event(40, TaskEventType::kFinish, b, 0, 1, 2),
      make_event(50, TaskEventType::kFinish, a, -1, 1, 3),
      make_event(60, TaskEventType::kFinish, b, -1, 1, 4),
  });
  engine.flush();
  const WindowStats* w0 = engine.find(0);
  ASSERT_NE(w0, nullptr);
  // Run lengths 27, 36, 45 and 54 s: one sample per task.
  ASSERT_EQ(w0->task_length.count(), 4u);
  EXPECT_DOUBLE_EQ(w0->task_length.min(), 27.0);
  EXPECT_DOUBLE_EQ(w0->task_length.max(), 54.0);
  EXPECT_EQ(w0->running_at_close, 0);
  EXPECT_EQ(w0->pending_at_close, 0);
  EXPECT_EQ(w0->hosts_seen, 0);
}

TEST(SlidingWindowTest, OverlappingWindowsAssignEventsToEverySlide) {
  WindowConfig config;
  config.width = 100;
  config.slide = 50;
  config.watermark_lag = 0;
  SlidingWindow engine(config);
  // t=75 belongs to [0,100) and [50,150).
  std::vector<TaskEvent> batch = {
      make_event(75, TaskEventType::kSubmit, 1, 0),
      make_event(300, TaskEventType::kSubmit, 2, 0),
  };
  engine.ingest(batch);
  engine.flush();
  const WindowStats* w0 = engine.find(0);
  const WindowStats* w1 = engine.find(1);
  const WindowStats* w2 = engine.find(2);
  ASSERT_NE(w0, nullptr);
  ASSERT_NE(w1, nullptr);
  ASSERT_NE(w2, nullptr);
  EXPECT_EQ(w0->events.total(), 1);
  EXPECT_EQ(w1->events.total(), 1);
  EXPECT_EQ(w2->events.total(), 0);  // [100,200) sees neither
  // t=300 belongs to [250,350) and [300,400): windows 5 and 6.
  EXPECT_EQ(engine.find(4)->events.total(), 0);
  EXPECT_EQ(engine.find(5)->events.total(), 1);
  EXPECT_EQ(engine.find(6)->events.total(), 1);
}

TEST(SlidingWindowTest, LateEventsAreCountedAndDroppedOrAbsorbed) {
  for (const LatePolicy policy :
       {LatePolicy::kDrop, LatePolicy::kAbsorbOldest}) {
    WindowConfig config;
    config.width = 100;
    config.watermark_lag = 0;
    config.late_policy = policy;
    SlidingWindow engine(config);
    engine.ingest(std::vector<TaskEvent>{
        make_event(250, TaskEventType::kSubmit, 1, 0),
    });
    // Windowing starts at the first event's window [200,300): windows 0
    // and 1 never exist, so an event at t=30 is late.
    ASSERT_EQ(engine.windows_closed(), 0u);
    engine.ingest(std::vector<TaskEvent>{
        make_event(30, TaskEventType::kSubmit, 2, 0),
    });
    engine.flush();
    EXPECT_EQ(engine.windows_closed(), 1u);
    EXPECT_EQ(engine.find(0), nullptr);
    if (policy == LatePolicy::kDrop) {
      EXPECT_EQ(engine.health().late_dropped, 1u);
      EXPECT_TRUE(engine.health().lossy());
      EXPECT_EQ(engine.find(2)->events.total(), 1);
    } else {
      EXPECT_EQ(engine.health().late_absorbed, 1u);
      EXPECT_FALSE(engine.health().lossy());
      // Absorbed into the oldest open window at ingest time: window 2.
      EXPECT_EQ(engine.find(2)->events.total(), 2);
    }
  }
}

/// Streaming metrics over one whole-trace window must agree with the
/// batch kernels: identical sample counts (so identical quantile ranks)
/// and quantiles within the sketch's relative error bound.
TEST(SlidingWindowTest, StreamingMatchesBatchKernelsWithinSketchBound) {
  gen::GoogleModelConfig model_config;
  // Full task sampling: the generator keeps Job records complete even
  // when task records are sampled, so event-derived job lengths only
  // match the batch job_lengths() at sampling rate 1.0.
  model_config.task_sampling_rate = 1.0;
  const trace::TraceSet workload =
      gen::GoogleWorkloadModel(model_config)
          .generate_workload(util::kSecondsPerDay / 2);
  const std::vector<TaskEvent> events = stream::synthesize_events(workload);
  ASSERT_FALSE(events.empty());

  const double alpha = 0.01;
  WindowConfig config;
  config.width = 4 * util::kSecondsPerDay;  // one window covers the trace
  config.relative_error = alpha;
  SlidingWindow engine(config);
  // Feed in bounded batches, as the daemon would.
  for (std::size_t i = 0; i < events.size(); i += 4096) {
    const std::size_t n = std::min<std::size_t>(4096, events.size() - i);
    engine.ingest(std::span<const TaskEvent>(events).subspan(i, n));
  }
  engine.flush();
  ASSERT_EQ(engine.windows_closed(), 1u);
  const WindowStats& w = *engine.latest();

  const std::vector<double> batch_job_lengths = workload.job_lengths();
  const std::vector<double> batch_task_lengths =
      workload.task_run_durations();
  const std::vector<double> batch_gaps = workload.submission_intervals();
  ASSERT_EQ(w.job_length.count(), batch_job_lengths.size());
  ASSERT_EQ(w.task_length.count(), batch_task_lengths.size());
  ASSERT_EQ(w.submit_gap.count(), batch_gaps.size());

  const stats::Ecdf job_ecdf(batch_job_lengths);
  const stats::Ecdf task_ecdf(batch_task_lengths);
  const stats::Ecdf gap_ecdf(batch_gaps);
  for (const double q : {0.10, 0.50, 0.90, 0.99}) {
    EXPECT_LE(std::abs(w.job_length.quantile(q) - job_ecdf.quantile(q)),
              alpha * job_ecdf.quantile(q) + 1e-9)
        << "job length q=" << q;
    EXPECT_LE(std::abs(w.task_length.quantile(q) - task_ecdf.quantile(q)),
              alpha * task_ecdf.quantile(q) + 1e-9)
        << "task length q=" << q;
    EXPECT_LE(std::abs(w.submit_gap.quantile(q) - gap_ecdf.quantile(q)),
              alpha * gap_ecdf.quantile(q) + 1e-9)
        << "submission gap q=" << q;
  }
  // The gap mean is tracked exactly (Welford, not bucketed).
  EXPECT_NEAR(w.submit_gap_moments.mean(), gap_ecdf.mean(),
              1e-9 * gap_ecdf.mean());
  // Priority-mix counts are exact: one SUBMIT per task.
  EXPECT_EQ(w.events.total(TaskEventType::kSubmit),
            static_cast<std::int64_t>(workload.tasks().size()));
  EXPECT_FALSE(engine.health().lossy());
}

/// The whole engine state — every sketch bit of every window — must be
/// identical at 1 worker and at 8, for identical batching.
TEST(SlidingWindowTest, StateIsBitIdenticalAcrossThreadCounts) {
  gen::GoogleModelConfig model_config;
  model_config.task_sampling_rate = 0.05;
  const trace::TraceSet workload =
      gen::GoogleWorkloadModel(model_config)
          .generate_workload(util::kSecondsPerDay / 2);
  const std::vector<TaskEvent> events = stream::synthesize_events(workload);

  const auto run = [&events](util::ThreadPool* pool) {
    exec::ScopedPool scoped(pool);
    WindowConfig config;
    config.width = util::kSecondsPerHour;
    config.slide = util::kSecondsPerHour / 2;
    SlidingWindow engine(config);
    for (std::size_t i = 0; i < events.size(); i += 2048) {
      const std::size_t n = std::min<std::size_t>(2048, events.size() - i);
      engine.ingest(std::span<const TaskEvent>(events).subspan(i, n));
    }
    engine.flush();
    return closed_state(engine);
  };
  util::ThreadPool one(1);
  util::ThreadPool many(8);
  const std::string state_one = run(&one);
  const std::string state_many = run(&many);
  ASSERT_FALSE(state_one.empty());
  EXPECT_EQ(state_one, state_many);
}

TEST(SlidingWindowTest, FaultInjectionDegradesDeterministically) {
  gen::GoogleModelConfig model_config;
  model_config.task_sampling_rate = 0.05;
  const trace::TraceSet workload =
      gen::GoogleWorkloadModel(model_config)
          .generate_workload(util::kSecondsPerDay / 4);
  const std::vector<TaskEvent> events = stream::synthesize_events(workload);

  fault::configure("stream.drop:p=0.05,seed=9;stream.dup:p=0.02,seed=10");
  const auto run = [&events] {
    WindowConfig config;
    config.width = util::kSecondsPerHour;
    SlidingWindow engine(config);
    engine.ingest(events);
    engine.flush();
    return std::pair(engine.health(), closed_state(engine));
  };
  const auto [health_a, state_a] = run();
  const auto [health_b, state_b] = run();
  fault::configure("");

  EXPECT_GT(health_a.faults_dropped, 0u);
  EXPECT_GT(health_a.faults_duplicated, 0u);
  EXPECT_TRUE(health_a.lossy());
  // Same spec, same stream -> identical damage and identical state.
  EXPECT_EQ(health_a.faults_dropped, health_b.faults_dropped);
  EXPECT_EQ(health_a.faults_duplicated, health_b.faults_duplicated);
  EXPECT_EQ(state_a, state_b);

  // And a disarmed run over the same events is clean.
  WindowConfig config;
  config.width = util::kSecondsPerHour;
  SlidingWindow clean(config);
  clean.ingest(events);
  clean.flush();
  EXPECT_FALSE(clean.health().lossy());
  EXPECT_EQ(clean.events_ingested(), events.size());
}

TEST(SlidingWindowTest, SpillHookSeesEveryClosedWindowInOrder) {
  WindowConfig config;
  config.width = 100;
  config.watermark_lag = 0;
  config.keep_events = true;
  SlidingWindow engine(config);
  std::vector<std::int64_t> spilled;
  std::size_t spilled_events = 0;
  engine.set_spill([&](const WindowStats& ws,
                       std::span<const TaskEvent> events) {
    spilled.push_back(ws.index);
    spilled_events += events.size();
  });
  engine.ingest(std::vector<TaskEvent>{
      make_event(10, TaskEventType::kSubmit, 1, 0),
      make_event(120, TaskEventType::kSubmit, 2, 0),
      make_event(340, TaskEventType::kSubmit, 3, 0),
  });
  engine.flush();
  EXPECT_EQ(spilled, (std::vector<std::int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(spilled_events, 3u);
}

// ---- golden digests -------------------------------------------------------

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// The fixed stream behind the golden digests: two days of a generated
/// Google-model workload. The generator's tasks carry no machine, so
/// placements get a deterministic machine id (700 hosts), and every
/// 997th event is pushed two hours into the past so late accounting is
/// on the digest path too.
const std::vector<TaskEvent>& golden_events() {
  static const std::vector<TaskEvent> events = [] {
    gen::GoogleModelConfig model_config;
    model_config.task_sampling_rate = 0.1;
    const trace::TraceSet workload =
        gen::GoogleWorkloadModel(model_config)
            .generate_workload(2 * util::kSecondsPerDay);
    std::vector<TaskEvent> out = stream::synthesize_events(workload);
    for (std::size_t i = 0; i < out.size(); ++i) {
      TaskEvent& e = out[i];
      if (e.type != TaskEventType::kSubmit) {
        e.machine_id = (e.job_id * 31 + e.task_index) % 701;
      }
      if (i % 997 == 996) {
        e.time = std::max<util::TimeSec>(0, e.time - 2 * util::kSecondsPerHour);
      }
    }
    return out;
  }();
  return events;
}

/// Digest of every closed window's canonical state, in close order, plus
/// the latest window's "all" query, after feeding golden_events() in
/// `batch`-sized ingest calls.
std::string engine_digest(const WindowConfig& config, std::size_t batch,
                          std::size_t workers) {
  util::ThreadPool pool(workers);
  exec::ScopedPool scoped(&pool);
  const std::vector<TaskEvent>& events = golden_events();
  SlidingWindow engine(config);
  std::string bytes;
  engine.set_spill([&bytes](const WindowStats& ws,
                            std::span<const TaskEvent>) {
    ws.append_state(&bytes);
  });
  for (std::size_t i = 0; i < events.size(); i += batch) {
    const std::size_t n = std::min(batch, events.size() - i);
    engine.ingest(std::span<const TaskEvent>(events).subspan(i, n));
  }
  engine.flush();
  std::ostringstream query;
  engine.latest()->write_json(query, "all");
  bytes += query.str();
  const stream::StreamHealth& h = engine.health();
  bytes += std::to_string(engine.windows_closed()) + "/" +
           std::to_string(engine.events_ingested()) + "/" +
           std::to_string(h.late_dropped) + "/" +
           std::to_string(h.late_absorbed);
  return hex(fnv1a(bytes));
}

// The goldens were recorded from the engine before its state tables and
// the pipe parser were rewritten; any change to a closed window's bytes,
// to the query output, or to the health counters breaks them.
constexpr char kGoldenTumbling[] = "a6fc2b9e2c5dde96";
constexpr char kGoldenSliding[] = "bced6b7705f00554";
constexpr char kGoldenDaemon[] = "e859862fc86e577d";

TEST(SlidingWindowGoldenTest, TumblingDaemonDefaultsAtOneAndFourWorkers) {
  const stream::DaemonConfig defaults;
  EXPECT_EQ(engine_digest(defaults.window, defaults.batch_size, 1),
            kGoldenTumbling);
  EXPECT_EQ(engine_digest(defaults.window, defaults.batch_size, 4),
            kGoldenTumbling);
}

TEST(SlidingWindowGoldenTest, SlidingAbsorbingAtOneAndFourWorkers) {
  WindowConfig config;
  config.width = 2 * util::kSecondsPerHour;
  config.slide = util::kSecondsPerHour / 2;
  config.watermark_lag = 60;
  config.late_policy = LatePolicy::kAbsorbOldest;
  EXPECT_EQ(engine_digest(config, 1000, 1), kGoldenSliding);
  EXPECT_EQ(engine_digest(config, 1000, 4), kGoldenSliding);
}

/// The daemon's pipe path end to end: golden_events() as task_events
/// text → run_daemon with spill → summary and query JSON (wall-clock
/// fields masked) plus the spill manifest with its per-window state_fnv.
TEST(SlidingWindowGoldenTest, DaemonPipeOutputAndSpillManifest) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("cgc_window_golden_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  trace::TraceSet rows("golden");
  rows.adopt_events(std::vector<TaskEvent>(golden_events()));
  trace::write_task_events(rows, (dir / "task_events.csv").string());
  std::ostringstream text;
  text << "# golden stream\n"
       << std::ifstream(dir / "task_events.csv", std::ios::binary).rdbuf()
       << "garbage\n";

  std::string digest;
  for (const std::size_t workers : {1, 4}) {
    util::ThreadPool pool(workers);
    exec::ScopedPool scoped(&pool);
    stream::DaemonConfig config;
    config.input = "-";
    config.queries = {"all", "queue"};
    config.spill_dir = (dir / ("spill" + std::to_string(workers))).string();
    std::istringstream in(text.str());
    std::ostringstream out;
    const int rc = stream::run_daemon(config, in, out);
    EXPECT_EQ(rc, util::kExitFailure);  // late drops and one bad line
    const std::string masked = std::regex_replace(
        out.str(), std::regex(R"re("(wall_s|events_per_s)": [^,]*)re"),
        "\"$1\": x");
    std::ostringstream manifest;
    manifest << std::ifstream(config.spill_dir + "/windows.jsonl").rdbuf();
    const std::string d = hex(fnv1a(masked + manifest.str()));
    if (digest.empty()) {
      digest = d;
    }
    EXPECT_EQ(d, digest) << "worker-count dependent at " << workers;
  }
  fs::remove_all(dir);
  EXPECT_EQ(digest, kGoldenDaemon);
}

}  // namespace
}  // namespace cgc
