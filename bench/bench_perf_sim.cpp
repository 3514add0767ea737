// PERF-SIM — throughput of the paper-scale simulator core.
//
// Two legs, both on GoogleWorkloadModel sim workloads:
//
//   1. Calibration (before/after): the frozen seed engine
//      (bench/baseline_sim.*, heap queue + per-task structs + sequential
//      mt19937) and the current ClusterSim run the *identical* workload
//      at a shared reduced scale. The acceptance bar is a >= 5x
//      single-thread wall-clock speedup.
//   2. Paper scale: the current engine only, on the paper's cluster — a
//      month over 12.5k hosts (>= 25M task events) — at CGC_THREADS
//      1/2/4 via exec::ScopedPool. The TraceSet content digest must be
//      identical across thread counts (the determinism contract);
//      events/s, wall and peak RSS are recorded per thread count.
//
// Results go to BENCH_sim.json (argv[1], default
// $CGC_BENCH_OUT/BENCH_sim.json) and are tabulated in EXPERIMENTS.md's
// "Perf trajectory" section. CGC_BENCH_FAST=1 shrinks both legs to
// smoke-test scale (the CI determinism leg).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline_sim.hpp"
#include "common.hpp"
#include "exec/parallel.hpp"
#include "gen/google_model.hpp"
#include "sim/cluster_sim.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace cgc;

constexpr double kTargetSpeedup = 5.0;

double now_wall(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct ScaleResult {
  std::size_t threads = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  std::int64_t events_processed = 0;
  double peak_rss_mb = 0;
  bool rss_isolated = false;
  std::uint64_t digest = 0;
};

ScaleResult run_paper_scale(const std::vector<trace::Machine>& machines,
                            const sim::Workload& workload,
                            const sim::SimConfig& config,
                            std::size_t threads) {
  ScaleResult r;
  r.threads = threads;
  r.rss_isolated = bench::reset_peak_rss();
  util::ThreadPool pool(threads);
  exec::ScopedPool scoped(&pool);
  sim::ClusterSim sim(machines, config);
  const auto start = std::chrono::steady_clock::now();
  const trace::TraceSet out = sim.run(workload);
  r.wall_s = now_wall(start);
  r.events_processed = sim.stats().events_processed;
  r.events_per_sec = static_cast<double>(r.events_processed) / r.wall_s;
  r.peak_rss_mb = bench::peak_rss_mb();
  r.digest = out.content_digest();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("PERF-SIM",
                      "ClusterSim throughput: seed engine vs calendar/SoA "
                      "core, paper-scale month");
  const bool fast = bench::fast_mode();
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::printf("  hardware_concurrency: %zu%s\n", hw, fast ? " (fast mode)" : "");

  gen::GoogleWorkloadModel model;

  // ---- leg 1: before/after at shared scale --------------------------------
  const std::size_t cal_machines = fast ? 192 : 1024;
  const util::TimeSec cal_horizon =
      fast ? util::kSecondsPerDay : 4 * util::kSecondsPerDay;
  const std::vector<trace::Machine> cal_park =
      model.make_machines(cal_machines);
  const sim::Workload cal_workload =
      model.generate_sim_workload(cal_horizon, cal_machines);
  sim::SimConfig cal_config;
  cal_config.horizon = cal_horizon;
  std::printf("  calibration: %zu machines, %.1f days, %zu task specs\n",
              cal_machines,
              static_cast<double>(cal_horizon) / util::kSecondsPerDay,
              cal_workload.size());

  double seed_wall = 0;
  {
    bench::seedsim::BaselineSim seed(cal_park, cal_config);
    const auto start = std::chrono::steady_clock::now();
    seed.run(cal_workload);
    seed_wall = now_wall(start);
    std::printf("  seed engine:    %8.2f s (%lld scheduled)\n", seed_wall,
                static_cast<long long>(seed.stats().scheduled));
  }
  double new_wall = 0;
  std::int64_t cal_events = 0;
  {
    sim::ClusterSim sim(cal_park, cal_config);
    const auto start = std::chrono::steady_clock::now();
    sim.run(cal_workload);
    new_wall = now_wall(start);
    cal_events = sim.stats().events_processed;
    std::printf("  current engine: %8.2f s (%lld scheduled, %lld events)\n",
                new_wall, static_cast<long long>(sim.stats().scheduled),
                static_cast<long long>(cal_events));
  }
  const double speedup = seed_wall / new_wall;
  const bool speedup_pass = speedup >= kTargetSpeedup;
  bench::print_comparison("single-thread speedup vs seed (target >= 5)",
                          kTargetSpeedup, speedup, 2);

  // ---- leg 2: paper-scale month at 1/2/4 threads --------------------------
  const std::size_t paper_machines = fast ? 400 : 12500;
  const util::TimeSec paper_horizon =
      fast ? 2 * util::kSecondsPerDay : util::kSecondsPerMonth;
  const std::vector<trace::Machine> paper_park =
      model.make_machines(paper_machines);
  const sim::Workload paper_workload =
      model.generate_sim_workload(paper_horizon, paper_machines);
  sim::SimConfig paper_config;
  paper_config.horizon = paper_horizon;
  // Keep the dynamics and the host-load output (the analyzers' input);
  // skip the per-event and per-task records — at this scale they are
  // memory, not information (the digest still covers every sample).
  paper_config.record_events = false;
  paper_config.record_tasks = false;
  std::printf("\n  paper scale: %zu machines, %.1f days, %zu task specs\n",
              paper_machines,
              static_cast<double>(paper_horizon) / util::kSecondsPerDay,
              paper_workload.size());

  std::vector<ScaleResult> runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    ScaleResult r =
        run_paper_scale(paper_park, paper_workload, paper_config, threads);
    std::printf("  %zu thread(s): %8.2f s, %.2fM events/s, peak RSS %.0f "
                "MB%s, digest %016llx\n",
                r.threads, r.wall_s, r.events_per_sec / 1e6, r.peak_rss_mb,
                r.rss_isolated ? "" : " (cumulative)",
                static_cast<unsigned long long>(r.digest));
    runs.push_back(r);
  }
  bool digests_match = true;
  for (const ScaleResult& r : runs) {
    digests_match = digests_match && r.digest == runs[0].digest;
  }
  std::printf("  digests %s across thread counts\n",
              digests_match ? "IDENTICAL" : "DIFFER");

  // Fast mode is the CI determinism smoke leg: the speedup bar is only
  // meaningful (and only enforced) at full calibration scale, where the
  // probed-placement path is active.
  const bool pass = (fast || speedup_pass) && digests_match;

  const std::string json_path =
      argc > 1 ? argv[1] : bench::out_dir() + "/BENCH_sim.json";
  std::ofstream out(json_path);
  out << "{\n  \"bench\": \"perf_sim\",\n";
  out << "  \"fast_mode\": " << (fast ? "true" : "false") << ",\n";
  out << "  \"hardware_concurrency\": " << hw << ",\n";
  out << "  \"calibration\": {\n";
  out << "    \"machines\": " << cal_machines << ",\n";
  out << "    \"horizon_days\": "
      << static_cast<double>(cal_horizon) / util::kSecondsPerDay << ",\n";
  out << "    \"task_specs\": " << cal_workload.size() << ",\n";
  out << "    \"seed_wall_s\": " << seed_wall << ",\n";
  out << "    \"new_wall_s\": " << new_wall << ",\n";
  out << "    \"events_processed\": " << cal_events << ",\n";
  out << "    \"speedup\": " << speedup << ",\n";
  out << "    \"target_speedup\": " << kTargetSpeedup << ",\n";
  out << "    \"pass\": " << (speedup_pass ? "true" : "false") << "\n";
  out << "  },\n";
  out << "  \"paper_scale\": {\n";
  out << "    \"machines\": " << paper_machines << ",\n";
  out << "    \"horizon_days\": "
      << static_cast<double>(paper_horizon) / util::kSecondsPerDay << ",\n";
  out << "    \"task_specs\": " << paper_workload.size() << ",\n";
  out << "    \"digests_match\": " << (digests_match ? "true" : "false")
      << ",\n";
  out << "    \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ScaleResult& r = runs[i];
    char digest_hex[32];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(r.digest));
    out << "      {\"threads\": " << r.threads
        << ", \"wall_s\": " << r.wall_s
        << ", \"events_processed\": " << r.events_processed
        << ", \"events_per_sec\": " << r.events_per_sec
        << ", \"peak_rss_mb\": " << r.peak_rss_mb
        << ", \"rss_isolated\": " << (r.rss_isolated ? "true" : "false")
        << ", \"digest\": \"" << digest_hex << "\"}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "    ]\n  },\n";
  out << "  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  out.close();
  std::printf("\n  results written to %s\n", json_path.c_str());

  return pass ? 0 : 1;
}
