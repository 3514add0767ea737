// google-benchmark microbenchmarks of the analysis and simulation
// kernels: the performance-critical primitives behind every figure.
#include <benchmark/benchmark.h>

#include "gen/google_model.hpp"
#include "sim/cluster_sim.hpp"
#include "stats/distributions.hpp"
#include "stats/ecdf.hpp"
#include "stats/fairness.hpp"
#include "stats/mass_count.hpp"
#include "stats/timeseries.hpp"
#include "util/rng.hpp"

namespace {

using namespace cgc;

std::vector<double> random_sample(std::size_t n, std::uint64_t seed = 1) {
  util::Rng rng(seed);
  const stats::LogNormal dist(100.0, 1.5);
  return stats::sample_many(dist, n, rng);
}

void BM_MassCountDisparity(benchmark::State& state) {
  const auto sample = random_sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::MassCount(sample).disparity());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MassCountDisparity)->Range(1024, 1 << 20);

void BM_EcdfBuild(benchmark::State& state) {
  const auto sample = random_sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    stats::Ecdf ecdf(sample);
    benchmark::DoNotOptimize(ecdf);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EcdfBuild)->Range(1024, 1 << 20);

void BM_MeanFilter(benchmark::State& state) {
  const auto sample = random_sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::mean_filter(sample, 5));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MeanFilter)->Range(1 << 12, 1 << 20);

void BM_NoiseExtraction(benchmark::State& state) {
  const auto sample = random_sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::noise_after_mean_filter(sample, 5));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NoiseExtraction)->Range(1 << 12, 1 << 18);

void BM_Autocorrelation(benchmark::State& state) {
  const auto sample = random_sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::autocorrelation(sample, 1));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Autocorrelation)->Range(1 << 12, 1 << 18);

void BM_JainFairness(benchmark::State& state) {
  const auto sample = random_sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::jain_fairness(sample));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JainFairness)->Range(1 << 10, 1 << 18);

void BM_LevelRuns(benchmark::State& state) {
  util::Rng rng(3);
  std::vector<double> usage(static_cast<std::size_t>(state.range(0)));
  for (double& u : usage) {
    u = rng.uniform();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::level_runs(usage, 5, 300));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LevelRuns)->Range(1 << 12, 1 << 18);

void BM_WorkloadGeneration(benchmark::State& state) {
  gen::GoogleModelConfig config;
  config.task_sampling_rate = 0.0;  // jobs only: measures the arrival path
  const gen::GoogleWorkloadModel model(config);
  const auto horizon =
      static_cast<util::TimeSec>(state.range(0)) * util::kSecondsPerHour;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.generate_workload(horizon));
  }
}
BENCHMARK(BM_WorkloadGeneration)->Arg(6)->Arg(24)->Arg(72);

void BM_ClusterSimulation(benchmark::State& state) {
  const auto machines = static_cast<std::size_t>(state.range(0));
  gen::GoogleWorkloadModel model;
  const util::TimeSec horizon = util::kSecondsPerDay;
  const sim::Workload workload =
      model.generate_sim_workload(horizon, machines);
  for (auto _ : state) {
    sim::SimConfig config;
    config.horizon = horizon;
    sim::ClusterSim sim(model.make_machines(machines), config);
    benchmark::DoNotOptimize(sim.run(workload));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(workload.size()));
}
BENCHMARK(BM_ClusterSimulation)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
