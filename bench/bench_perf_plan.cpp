// PERF-PLAN — scenario throughput of the cgc::plan engine.
//
// Expands a 16-scenario what-if matrix (2 fleets x 2 workload profiles
// x 2 placements x preemption on/off over a 4-hour horizon) and runs it
// through PlanRunner at 1, 4, and hardware-concurrency worker threads,
// measuring scenarios/sec end to end (generate + simulate + score).
// The determinism contract is asserted on the way: the rendered
// plan.json must be byte-identical at every thread count, or the bench
// fails regardless of speed.
//
// Results are written as BENCH_plan.json (argv[1], default
// $CGC_BENCH_OUT/BENCH_plan.json), stamped with hardware_concurrency,
// so the perf trajectory is tracked in-repo. On a one-core box the
// multi-thread legs prove determinism, not speedup.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "exec/parallel.hpp"
#include "plan/matrix.hpp"
#include "plan/plan_io.hpp"
#include "plan/runner.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace cgc;

struct RunResult {
  std::size_t threads = 0;
  double wall_s = 0;
  double scenarios_per_sec = 0;
  std::size_t failed = 0;
  std::string json;
};

plan::ScenarioMatrix bench_matrix() {
  plan::ScenarioSpec base;
  base.horizon = 4 * util::kSecondsPerHour;
  return plan::MatrixBuilder("bench", base)
      .fleets({16, 32})
      .workloads({
          plan::WorkloadProfile{"google", {{"google", 1.0}}, 1.0},
          plan::WorkloadProfile{
              "blend-70-30", {{"google", 0.7}, {"auvergrid", 0.3}}, 0.7},
      })
      .placements({sim::PlacementPolicy::kBalanced,
                   sim::PlacementPolicy::kBestFit})
      .preemptions({true, false})
      .build();
}

RunResult run_matrix(const plan::ScenarioMatrix& matrix,
                     std::size_t threads) {
  RunResult result;
  result.threads = threads;
  util::ThreadPool pool(threads);
  exec::ScopedPool scoped(&pool);
  plan::PlanRunner runner(matrix, plan::PlanConfig{});

  const auto start = std::chrono::steady_clock::now();
  const std::vector<plan::ScenarioResult> results = runner.run();
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  result.scenarios_per_sec =
      static_cast<double>(results.size()) / result.wall_s;
  for (const plan::ScenarioResult& r : results) {
    if (!r.ok) {
      ++result.failed;
    }
  }
  result.json = plan::render_plan_json(matrix, results);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("PERF-PLAN",
                      "cgc::plan scenario throughput and determinism");

  const plan::ScenarioMatrix matrix = bench_matrix();
  std::printf("  matrix: %zu scenarios, horizon %s\n",
              matrix.scenarios.size(),
              util::format_duration(matrix.scenarios[0].horizon).c_str());

  std::vector<std::size_t> thread_counts = {1, 4};
  const std::size_t hw = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  if (hw != 1 && hw != 4) {
    thread_counts.push_back(hw);
  }

  std::vector<RunResult> runs;
  for (const std::size_t threads : thread_counts) {
    RunResult r = run_matrix(matrix, threads);
    std::printf("  %zu thread(s): %.2f scenarios/s (%.2f s wall, "
                "%zu failed)\n",
                r.threads, r.scenarios_per_sec, r.wall_s, r.failed);
    runs.push_back(std::move(r));
  }

  bool identical = true;
  bool clean = runs[0].failed == 0;
  for (const RunResult& r : runs) {
    identical = identical && r.json == runs[0].json;
    clean = clean && r.failed == 0;
  }
  std::printf("  plan.json byte-identical across thread counts: %s\n",
              identical ? "yes" : "NO");

  double best = 0;
  for (const RunResult& r : runs) {
    best = std::max(best, r.scenarios_per_sec);
  }
  const bool pass = identical && clean;
  bench::print_comparison("scenarios/s (best leg)", runs[0].scenarios_per_sec,
                          best, 2);

  const std::string json_path =
      argc > 1 ? argv[1] : bench::out_dir() + "/BENCH_plan.json";
  std::ofstream out(json_path);
  out << "{\n  \"bench\": \"perf_plan\",\n";
  out << "  \"scenarios\": " << matrix.scenarios.size() << ",\n";
  out << "  \"horizon_s\": " << matrix.scenarios[0].horizon << ",\n";
  out << "  \"hardware_concurrency\": " << hw << ",\n";
  out << "  \"deterministic\": " << (identical ? "true" : "false") << ",\n";
  out << "  \"pass\": " << (pass ? "true" : "false") << ",\n";
  out << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    out << "    {\"threads\": " << r.threads
        << ", \"wall_s\": " << r.wall_s
        << ", \"scenarios_per_sec\": " << r.scenarios_per_sec
        << ", \"failed\": " << r.failed << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.close();
  std::printf("\n  results written to %s\n", json_path.c_str());

  return pass ? 0 : 1;
}
