// PERF-STREAM — online ingest throughput of the cgc::stream engine.
//
// Replays the standard month-long Google workload trace's event stream
// through a SlidingWindow (1 h tumbling windows, daemon-default batch
// size) at 1, 4, and hardware-concurrency worker threads, measuring:
//   * ingest throughput (events/sec)
//   * per-window close latency (the stream.window_close_ns histogram)
//   * peak RSS per run (VmHWM, reset via /proc/self/clear_refs)
//
// A second, "pipe" leg feeds the same events as Google task_events text
// through stream::read_event_stream into the engine at 1 and 4 workers
// — the `cgcd --input -` path, parsing included, with parsing on the
// calling thread overlapping ingest on a pool worker. Its latest closed
// window must match the in-memory leg's byte for byte.
//
// The acceptance bar for the streaming subsystem is >= 1M events/sec
// at 4 threads. Results are written as BENCH_stream.json (argv[1],
// default $CGC_BENCH_OUT/BENCH_stream.json) so the perf trajectory is
// tracked in-repo, stamped with hardware_concurrency and the caveat
// that thread legs are a determinism check, not a speedup claim.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "stream/replay.hpp"
#include "stream/window.hpp"
#include "trace/google_format.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace cgc;

constexpr std::size_t kBatchSize = 8192;
constexpr double kTargetEventsPerSec = 1e6;
/// Stamped into the ledger: what the thread legs do and do not show.
constexpr char kThreadCaveat[] =
    "memory legs above 1 thread check determinism and pool overhead, "
    "not speedup: the stateful phase is sequential. Pipe legs parse on "
    "the calling thread while a pool worker ingests, at any worker "
    "count, so their overlap needs a second core. The ledger's boxes "
    "are small shared VMs (1 core on the reference box; see "
    "hardware_concurrency)";

struct RunResult {
  std::size_t threads = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  std::uint64_t windows_closed = 0;
  double close_ns_mean = 0;
  std::uint64_t close_ns_p99 = 0;
  double peak_rss_mb = 0;
  bool rss_isolated = false;
  std::uint64_t events = 0;  ///< events the engine ingested
  std::string latest_state;  ///< append_state of the latest closed window
};

/// The engine's run-end numbers, shared by both legs.
void finish_run(const stream::SlidingWindow& engine,
                std::chrono::steady_clock::time_point start,
                RunResult* result) {
  result->wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  result->events = engine.events_ingested();
  result->events_per_sec =
      static_cast<double>(result->events) / result->wall_s;
  result->windows_closed = engine.windows_closed();
  const obs::Histogram& close = obs::histogram("stream.window_close_ns");
  result->close_ns_mean = close.mean();
  result->close_ns_p99 = close.approx_percentile(0.99);
  result->peak_rss_mb = bench::peak_rss_mb();
  if (const stream::WindowStats* latest = engine.latest()) {
    latest->append_state(&result->latest_state);
  }
}

RunResult run_ingest(std::span<const trace::TaskEvent> events,
                     std::size_t threads) {
  RunResult result;
  result.threads = threads;
  result.rss_isolated = bench::reset_peak_rss();
  obs::reset_metrics();

  util::ThreadPool pool(threads);
  exec::ScopedPool scoped(&pool);
  stream::WindowConfig config;
  config.width = util::kSecondsPerHour;
  stream::SlidingWindow engine(config);

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < events.size(); i += kBatchSize) {
    const std::size_t n = std::min(kBatchSize, events.size() - i);
    engine.ingest(events.subspan(i, n));
  }
  engine.flush();
  finish_run(engine, start, &result);
  return result;
}

/// The pipe leg: task_events text from `rows_path` through
/// read_event_stream into the engine, parsing included.
RunResult run_pipe(const std::string& rows_path, std::size_t threads) {
  RunResult result;
  result.threads = threads;
  result.rss_isolated = bench::reset_peak_rss();
  obs::reset_metrics();

  util::ThreadPool pool(threads);
  exec::ScopedPool scoped(&pool);
  stream::WindowConfig config;
  config.width = util::kSecondsPerHour;
  stream::SlidingWindow engine(config);
  std::ifstream in(rows_path, std::ios::binary);
  stream::StreamHealth health;

  const auto start = std::chrono::steady_clock::now();
  stream::read_event_stream(
      in, kBatchSize,
      [&engine](std::span<const trace::TaskEvent> batch) {
        engine.ingest(batch);
      },
      &health);
  engine.flush();
  finish_run(engine, start, &result);
  return result;
}

void print_run(const char* leg, const RunResult& r) {
  std::printf("  %s, %zu thread(s): %.0f events/s, %llu windows, close "
              "mean %.0f ns (p99 <= %llu ns), peak RSS %.0f MB%s\n",
              leg, r.threads, r.events_per_sec,
              static_cast<unsigned long long>(r.windows_closed),
              r.close_ns_mean,
              static_cast<unsigned long long>(r.close_ns_p99),
              r.peak_rss_mb, r.rss_isolated ? "" : " (cumulative)");
}

void write_runs(std::ostream& out, const char* key,
                const std::vector<RunResult>& runs) {
  out << "  \"" << key << "\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    out << "    {\"threads\": " << r.threads
        << ", \"wall_s\": " << r.wall_s
        << ", \"events_per_sec\": " << r.events_per_sec
        << ", \"windows_closed\": " << r.windows_closed
        << ", \"close_ns_mean\": " << r.close_ns_mean
        << ", \"close_ns_p99\": " << r.close_ns_p99
        << ", \"peak_rss_mb\": " << r.peak_rss_mb
        << ", \"rss_isolated\": " << (r.rss_isolated ? "true" : "false")
        << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]";
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("PERF-STREAM",
                      "cgc::stream ingest throughput and close latency");

  const trace::TraceSet& workload = bench::google_workload();
  std::vector<trace::TaskEvent> events = stream::synthesize_events(workload);
  const double trace_days = static_cast<double>(workload.duration()) /
                            static_cast<double>(util::kSecondsPerDay);
  std::printf("  trace: %zu tasks, %zu events over %.1f days\n",
              workload.tasks().size(), events.size(), trace_days);

  // Arm the metrics registry so the close-latency histogram records;
  // the per-site cost is one relaxed load + atomic adds, well under
  // the measurement noise floor at these batch sizes.
  obs::configure(true, false);

  std::vector<std::size_t> thread_counts = {1, 4};
  const std::size_t hw = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  if (hw != 1 && hw != 4) {
    thread_counts.push_back(hw);
  }

  std::vector<RunResult> runs;
  for (const std::size_t threads : thread_counts) {
    runs.push_back(run_ingest(events, threads));
    print_run("memory", runs.back());
  }

  // The pipe legs read the events back as text. The rows file is the
  // trace writer's task_events.csv, so it is what `cgcd --input -` reads.
  const std::uint64_t num_events = events.size();
  const std::string rows_path = bench::out_dir() + "/perf_stream_rows.csv";
  {
    trace::TraceSet rows("perf-stream-rows");
    rows.adopt_events(std::move(events));
    trace::write_task_events(rows, rows_path);
  }
  std::vector<RunResult> pipe_runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    pipe_runs.push_back(run_pipe(rows_path, threads));
    print_run("pipe", pipe_runs.back());
  }
  std::filesystem::remove(rows_path);
  // Every leg, in memory or through the text pipe, at any worker count,
  // ingests every event and ends on the same window state.
  bool same_state = true;
  for (const std::vector<RunResult>* legs : {&runs, &pipe_runs}) {
    for (const RunResult& r : *legs) {
      same_state = same_state && r.events == num_events &&
                   r.windows_closed == runs.front().windows_closed &&
                   r.latest_state == runs.front().latest_state;
    }
  }
  std::printf("  every leg ingests %llu events and ends on the same "
              "window state: %s\n",
              static_cast<unsigned long long>(num_events),
              same_state ? "yes" : "NO");

  double at_four = 0;
  for (const RunResult& r : runs) {
    if (r.threads == 4) {
      at_four = r.events_per_sec;
    }
  }
  const bool pass = at_four >= kTargetEventsPerSec && same_state;
  bench::print_comparison("ingest Mevents/s @4 threads (target >= 1)",
                          kTargetEventsPerSec / 1e6, at_four / 1e6, 2);

  const std::string json_path =
      argc > 1 ? argv[1] : bench::out_dir() + "/BENCH_stream.json";
  std::ofstream out(json_path);
  out << "{\n  \"bench\": \"perf_stream\",\n";
  out << "  \"trace_days\": " << trace_days << ",\n";
  out << "  \"events\": " << num_events << ",\n";
  out << "  \"batch_size\": " << kBatchSize << ",\n";
  out << "  \"window_width_s\": " << util::kSecondsPerHour << ",\n";
  out << "  \"target_events_per_sec\": " << kTargetEventsPerSec << ",\n";
  out << "  \"hardware_concurrency\": " << hw << ",\n";
  out << "  \"caveat\": \"" << kThreadCaveat << "\",\n";
  out << "  \"pass\": " << (pass ? "true" : "false") << ",\n";
  write_runs(out, "runs", runs);
  out << ",\n";
  write_runs(out, "pipe_runs", pipe_runs);
  out << "\n}\n";
  out.close();
  std::printf("\n  results written to %s\n", json_path.c_str());

  return pass ? 0 : 1;
}
