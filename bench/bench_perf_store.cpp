// PERF-STORE — columnar store vs. CSV parse path.
//
// Measures, on the standard simulated Google host-load trace:
//   * write throughput: clusterdata CSV directory vs. CGCS file
//   * cold-load throughput: trace::load_trace() of the CSV directory
//     (parse + task/job reconstruction) vs. store::read_cgcs() (mmap +
//     decode)
//   * pushdown scans: full event scan vs. a 1-day time-window scan that
//     skips chunks via zone maps
//
// The acceptance bar for the store subsystem is a >= 5x cold-load
// speedup over the CSV path on the same trace.
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "common.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "trace/google_format.hpp"
#include "trace/loader.hpp"

namespace {

using namespace cgc;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double dir_size_mb(const std::string& path) {
  namespace fs = std::filesystem;
  std::uintmax_t bytes = 0;
  if (fs::is_directory(path)) {
    for (const auto& entry : fs::recursive_directory_iterator(path)) {
      if (entry.is_regular_file()) {
        bytes += entry.file_size();
      }
    }
  } else if (fs::exists(path)) {
    bytes = fs::file_size(path);
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace

int main() {
  bench::print_header("PERF-STORE",
                      "CGCS columnar store vs. clusterdata CSV path");

  const trace::TraceSet& trace = bench::google_hostload();
  const trace::TraceSummary summary = trace.summary();
  std::printf("  trace: %zu jobs, %zu tasks, %zu events, %zu samples\n",
              summary.num_jobs, summary.num_tasks, summary.num_events,
              summary.num_samples);

  const std::string work_dir = bench::out_dir() + "/perf_store";
  std::filesystem::remove_all(work_dir);
  std::filesystem::create_directories(work_dir);
  const std::string csv_dir = work_dir + "/csv";
  const std::string cgcs_path = work_dir + "/trace.cgcs";

  // -- write ---------------------------------------------------------------
  auto t0 = std::chrono::steady_clock::now();
  trace::write_google_trace(trace, csv_dir);
  const double csv_write_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  store::write_cgcs(trace, cgcs_path);
  const double cgcs_write_s = seconds_since(t0);

  const double csv_mb = dir_size_mb(csv_dir);
  const double cgcs_mb = dir_size_mb(cgcs_path);
  std::printf("\n  write:  CSV %.2fs (%.1f MB)   CGCS %.2fs (%.1f MB, %.1fx "
              "smaller)\n",
              csv_write_s, csv_mb, cgcs_write_s, cgcs_mb, csv_mb / cgcs_mb);

  // -- cold load -----------------------------------------------------------
  t0 = std::chrono::steady_clock::now();
  const trace::TraceSet from_csv = trace::load_trace(
      csv_dir, {.format = trace::TraceFormat::kGoogleCsv,
                .system_name = "google-trace",
                .strictness = trace::Strictness::kStrict});
  const double csv_load_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  const trace::TraceSet from_cgcs = store::read_cgcs(cgcs_path);
  const double cgcs_load_s = seconds_since(t0);

  const double speedup = csv_load_s / cgcs_load_s;
  std::printf("  load:   CSV %.3fs   CGCS %.3fs   speedup %.1fx %s\n",
              csv_load_s, cgcs_load_s, speedup,
              speedup >= 5.0 ? "(>= 5x target: PASS)"
                             : "(>= 5x target: FAIL)");
  std::printf("  loaded: %zu events via CSV, %zu events via CGCS\n",
              from_csv.events().size(), from_cgcs.events().size());

  // -- scans ---------------------------------------------------------------
  store::StoreReader reader(cgcs_path);
  std::size_t full_rows = 0;
  t0 = std::chrono::steady_clock::now();
  const store::ScanStats full_stats = reader.scan(
      {}, [&](std::span<const trace::TaskEvent> batch) {
        full_rows += batch.size();
      });
  const double full_scan_s = seconds_since(t0);

  store::EventPredicate window;
  window.time_min = trace.duration() / 2;
  window.time_max = trace.duration() / 2 + util::kSecondsPerDay;
  std::size_t window_rows = 0;
  t0 = std::chrono::steady_clock::now();
  const store::ScanStats window_stats = reader.scan(
      window, [&](std::span<const trace::TaskEvent> batch) {
        window_rows += batch.size();
      });
  const double window_scan_s = seconds_since(t0);

  std::printf("\n  full scan:   %zu rows in %.3fs (%zu/%zu row groups)\n",
              full_rows, full_scan_s, full_stats.row_groups_scanned,
              full_stats.row_groups_total);
  std::printf("  1-day scan:  %zu rows in %.3fs (%zu/%zu row groups after "
              "zone-map pruning)\n",
              window_rows, window_scan_s, window_stats.row_groups_scanned,
              window_stats.row_groups_total);

  bench::print_comparison("cold-load speedup (x, target >= 5)", 5.0, speedup,
                          2);
  bench::print_comparison("on-disk size ratio (CSV/CGCS)", "-",
                          std::to_string(csv_mb / cgcs_mb));

  return speedup >= 5.0 ? 0 : 1;
}
