// GridWorkloadModel — synthetic Grid/HPC workloads calibrated to the
// paper's comparison systems (Table I rates and fairness; Figs 3/5/6
// shapes; AuverGrid task-length statistics of Section III.2).
//
// Each preset describes one system from the Grid Workload Archive or
// Parallel Workload Archive. Job lengths are a two-component lognormal
// mixture (body + long tail, capped at the system's observed maximum);
// arrivals are diurnal and bursty (low Jain fairness); jobs are parallel
// (multiple processors), CPU-bound and steady — the properties the paper
// contrasts against the Cloud.
#pragma once

#include <string>
#include <vector>

#include "gen/arrival.hpp"
#include "gen/workload_model.hpp"
#include "sim/config.hpp"
#include "sim/task_spec.hpp"
#include "trace/trace_set.hpp"

namespace cgc::gen {

/// Weighted choice of processor counts for parallel jobs.
struct ProcsChoice {
  int procs = 1;
  double weight = 1.0;
};

struct GridSystemPreset {
  std::string name;
  // ---- arrivals (Table I) ---------------------------------------------------
  double jobs_per_hour = 10.0;
  double target_fairness = 0.3;   ///< Jain fairness of hourly counts
  double diurnal_amplitude = 0.6; ///< strong day/night cycle
  double weekly_amplitude = 0.2;
  double burst_ar1 = 0.5;
  // ---- job length mixture ------------------------------------------------------
  double body_median_s = 2 * 3600.0;
  double body_sigma = 1.0;
  double long_fraction = 0.2;
  double long_median_s = 12 * 3600.0;
  double long_sigma = 0.8;
  double max_length_s = 18.0 * 86400;  ///< hard cap (observed maximum)
  // ---- parallelism / resources ----------------------------------------------
  std::vector<ProcsChoice> procs;       ///< processor-count distribution
  double cpu_efficiency_mean = 0.92;    ///< fraction of procs actually burned
  double mem_per_proc_mb_median = 400;  ///< used memory per processor
  double mem_per_proc_mb_sigma = 0.9;
  // ---- host-load simulation (Fig 13) -------------------------------------------
  /// Mean per-node CPU utilization target for simulated grid clusters.
  double node_utilization = 1.0;
  /// Core slots per node: a node hosts this many single-core grid
  /// processes (each requests ~1/slots of the node's CPU).
  int slots_per_node = 4;
  /// Normalized per-process memory request (median of a lognormal).
  double sim_mem_request_median = 0.055;
  double sim_mem_request_sigma = 0.7;

  std::uint64_t seed = 7;
};

/// Preset registry for the systems the paper compares against.
namespace presets {
GridSystemPreset auvergrid();
GridSystemPreset nordugrid();
GridSystemPreset sharcnet();
GridSystemPreset das2();
GridSystemPreset anl();
GridSystemPreset ricc();
GridSystemPreset metacentrum();
GridSystemPreset llnl_atlas();
/// All eight, in the paper's Table I order (DAS-2 appended).
std::vector<GridSystemPreset> all();
}  // namespace presets

class GridWorkloadModel : public WorkloadModel {
 public:
  explicit GridWorkloadModel(GridSystemPreset preset);

  const GridSystemPreset& preset() const { return preset_; }

  /// Lowercased preset name ("auvergrid", "das-2", ...), stable for use
  /// in scenario keys.
  const std::string& name() const override { return name_; }

  /// The preset name as spelled in the paper ("AuverGrid", "DAS-2").
  const std::string& system_name() const override { return preset_.name; }

  /// Full-rate workload-only trace (jobs + single parallel task each).
  trace::TraceSet generate_workload(util::TimeSec horizon) const override;

  /// Homogeneous grid nodes (capacity 1.0 CPU / 1.0 memory).
  std::vector<trace::Machine> make_machines(
      std::size_t count) const override;

  /// Task specs for a host-load simulation: one task per allocated node,
  /// CPU-bound and steady, rate scaled to the preset's node utilization.
  sim::Workload generate_sim_workload(util::TimeSec horizon,
                                      std::size_t num_machines) const override;

  /// Simulator settings appropriate for a grid cluster (no preemption,
  /// negligible usage jitter).
  static void apply_grid_sim_defaults(sim::SimConfig* config);

  /// Instance form of apply_grid_sim_defaults, for polymorphic callers.
  void apply_sim_defaults(sim::SimConfig* config) const override {
    apply_grid_sim_defaults(config);
  }

  /// The preset seed (GridSystemPreset::seed).
  std::uint64_t base_seed() const override { return preset_.seed; }

 private:
  GridSystemPreset preset_;
  std::string name_;
};

}  // namespace cgc::gen
