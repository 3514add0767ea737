// Tests for the host-load mode clustering analyzer.
#include <gtest/gtest.h>

#include <set>

#include "analysis/load_modes.hpp"
#include "gen/google_model.hpp"
#include "gen/grid_model.hpp"
#include "gen/workload_model.hpp"
#include "util/check.hpp"

namespace cgc::analysis {
namespace {

const trace::TraceSet& hostload() {
  static const trace::TraceSet t = gen::simulate_hostload(
      gen::GoogleWorkloadModel(), 16, 4 * util::kSecondsPerDay);
  return t;
}

TEST(HostFeatures, OnePerMachineWithSaneRanges) {
  const auto features = extract_host_features(hostload());
  ASSERT_EQ(features.size(), hostload().machines().size());
  std::set<std::int64_t> ids;
  for (const HostLoadFeatures& f : features) {
    ids.insert(f.machine_id);
    EXPECT_GE(f.mean_cpu, 0.0);
    EXPECT_LE(f.mean_cpu, 1.0);
    EXPECT_GE(f.mean_mem, 0.0);
    EXPECT_LE(f.mean_mem, 1.0);
    EXPECT_GE(f.cpu_noise, 0.0);
    EXPECT_GE(f.cpu_autocorr, -1.0);
    EXPECT_LE(f.cpu_autocorr, 1.0);
  }
  EXPECT_EQ(ids.size(), features.size());  // unique machines
}

TEST(LoadModes, PartitionsAllHosts) {
  const LoadModesResult result = analyze_load_modes(hostload(), 3);
  ASSERT_EQ(result.modes.size(), 3u);
  std::size_t total = 0;
  double share = 0.0;
  for (const LoadMode& m : result.modes) {
    total += m.machine_ids.size();
    share += m.share;
  }
  EXPECT_EQ(total, hostload().machines().size());
  EXPECT_NEAR(share, 1.0, 1e-9);
  // Sorted by size, largest first.
  for (std::size_t c = 1; c < result.modes.size(); ++c) {
    EXPECT_GE(result.modes[c - 1].machine_ids.size(),
              result.modes[c].machine_ids.size());
  }
}

TEST(LoadModes, SingleClusterCentroidIsFeatureMean) {
  const LoadModesResult result = analyze_load_modes(hostload(), 1);
  ASSERT_EQ(result.modes.size(), 1u);
  double mean_cpu = 0.0;
  for (const HostLoadFeatures& f : result.features) {
    mean_cpu += f.mean_cpu;
  }
  mean_cpu /= static_cast<double>(result.features.size());
  EXPECT_NEAR(result.modes[0].centroid[0], mean_cpu, 1e-9);
  EXPECT_DOUBLE_EQ(result.modes[0].share, 1.0);
}

TEST(LoadModes, MoreClustersNeverIncreaseInertia) {
  const LoadModesResult k1 = analyze_load_modes(hostload(), 1);
  const LoadModesResult k4 = analyze_load_modes(hostload(), 4);
  EXPECT_LE(k4.inertia, k1.inertia + 1e-9);
}

TEST(LoadModes, DeterministicForSameSeed) {
  const LoadModesResult a = analyze_load_modes(hostload(), 3, 11);
  const LoadModesResult b = analyze_load_modes(hostload(), 3, 11);
  ASSERT_EQ(a.modes.size(), b.modes.size());
  for (std::size_t c = 0; c < a.modes.size(); ++c) {
    EXPECT_EQ(a.modes[c].machine_ids, b.modes[c].machine_ids);
  }
}

TEST(LoadModes, KClampedToHostCount) {
  const LoadModesResult result = analyze_load_modes(hostload(), 999);
  EXPECT_LE(result.modes.size(), hostload().machines().size());
}

TEST(LoadModes, RenderMentionsModes) {
  const LoadModesResult result = analyze_load_modes(hostload(), 2);
  const std::string rendered = result.render();
  EXPECT_NE(rendered.find("Host-load modes"), std::string::npos);
  EXPECT_NE(rendered.find("inertia"), std::string::npos);
}

TEST(LoadModes, SeparatesCloudFromGridHosts) {
  // Merge Cloud and Grid hosts into one park: with k=2 the clustering
  // must rediscover the two populations (CPU-heavy steady grid nodes vs
  // memory-heavy noisy cloud hosts) almost perfectly.
  trace::TraceSet merged("merged");
  const trace::TraceSet grid = gen::simulate_hostload(
      gen::GridWorkloadModel(gen::presets::auvergrid()), 8,
      4 * util::kSecondsPerDay);
  std::set<std::int64_t> grid_ids;
  for (const trace::Machine& m : hostload().machines()) {
    merged.add_machine(m);
  }
  for (const trace::HostLoadSeries& h : hostload().host_load()) {
    merged.add_host_load(h);
  }
  for (const trace::Machine& m : grid.machines()) {
    trace::Machine shifted = m;
    shifted.machine_id += 100000;
    grid_ids.insert(shifted.machine_id);
    merged.add_machine(shifted);
  }
  for (const trace::HostLoadSeries& h : grid.host_load()) {
    trace::HostLoadSeries copy(h.machine_id() + 100000, h.start(),
                               h.period());
    for (std::size_t i = 0; i < h.size(); ++i) {
      const float cpu[trace::kNumBands] = {
          h.cpu(trace::PriorityBand::kLow, i),
          h.cpu(trace::PriorityBand::kMid, i),
          h.cpu(trace::PriorityBand::kHigh, i)};
      const float mem[trace::kNumBands] = {
          h.mem(trace::PriorityBand::kLow, i),
          h.mem(trace::PriorityBand::kMid, i),
          h.mem(trace::PriorityBand::kHigh, i)};
      copy.append(cpu, mem, h.mem_assigned(i), h.page_cache(i),
                  h.running(i), h.pending(i));
    }
    merged.add_host_load(std::move(copy));
  }
  merged.finalize();

  const LoadModesResult result = analyze_load_modes(merged, 2);
  ASSERT_EQ(result.modes.size(), 2u);
  // Count misassignments under the best mode<->population mapping.
  std::size_t grid_in_0 = 0;
  for (const std::int64_t id : result.modes[0].machine_ids) {
    if (grid_ids.count(id) > 0) {
      ++grid_in_0;
    }
  }
  const std::size_t mode0 = result.modes[0].machine_ids.size();
  const std::size_t purity_a = std::max(grid_in_0, mode0 - grid_in_0);
  EXPECT_GE(static_cast<double>(purity_a) / static_cast<double>(mode0),
            0.85);
}

}  // namespace
}  // namespace cgc::analysis
