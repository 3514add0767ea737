// GoogleWorkloadModel — synthetic Google-data-center workload calibrated
// to the paper's reported statistics (see gen/calibration.hpp and
// DESIGN.md §2 for the substitution rationale).
//
// Two products:
//   * generate_workload()     — a workload-only TraceSet (jobs + tasks)
//     at the paper's full submission rate, for the work-load analyses
//     (Figs 2-6, Table I);
//   * generate_sim_workload() — sim::TaskSpecs at a per-machine-scaled
//     rate, to be run through sim::ClusterSim for the host-load analyses
//     (Figs 7-13, Tables II-III).
#pragma once

#include <cstdint>
#include <vector>

#include "gen/arrival.hpp"
#include "gen/workload_model.hpp"
#include "sim/task_spec.hpp"
#include "trace/trace_set.hpp"

namespace cgc::gen {

struct GoogleModelConfig {
  // ---- arrivals (Table I row 1) -------------------------------------------
  ArrivalModel arrival{
      /*mean_per_hour=*/552.0,
      /*diurnal_amplitude=*/0.18,
      /*weekly_amplitude=*/0.05,
      /*burst_sigma=*/0.16,
      /*burst_ar1=*/0.6,
      /*dip_probability=*/0.004,
      /*dip_factor=*/0.07,
  };

  // ---- job structure ---------------------------------------------------------
  /// Fraction of single-task jobs ("each Google job usually consists of
  /// only a single task").
  double single_task_fraction = 0.75;
  /// Multi-task jobs: tasks-per-job is log-uniform in [2, max].
  std::int32_t max_tasks_per_job = 600;
  /// Shape of the tasks-per-job tail (higher = heavier tail).
  double tasks_per_job_log_sigma = 1.0;

  // ---- lengths (Fig 3, Fig 4, Section III.2) ----------------------------------
  /// Short/interactive tasks: lognormal, calibrated to 55% < 10 min,
  /// ~90% < 1 h, 94% < 3 h.
  double short_length_median_s = 390.0;
  double short_length_sigma = 1.05;
  /// Mid-length services: bounded Pareto over [3 h, 20 d]; with the
  /// long-service spike below this reproduces the 6/94 joint ratio and
  /// the ~23-day mass median (mm-distance) of Fig 4a.
  double service_fraction = 0.05;
  double service_length_lo_s = 3.0 * 3600;
  double service_length_hi_s = 20.0 * 86400;
  double service_length_alpha = 0.35;
  /// Month-scale services (uniform in [lo, hi]): few in count, they carry
  /// the bulk of the task-second mass ("a handful of tasks last for
  /// several days or weeks and likely correspond to long-running
  /// services").
  double long_service_fraction = 0.006;
  double long_service_lo_s = 20.0 * 86400;
  double long_service_hi_s = 29.0 * 86400;

  // ---- fates (Fig 8: 59.2% abnormal; 50% fail / 30.7% kill) --------------------
  double fail_fraction = 0.37;
  std::int32_t fail_resubmits = 2;
  double kill_fraction = 0.28;
  double lost_fraction = 0.04;

  // ---- resources ---------------------------------------------------------------
  /// Request distributions (normalized units; lognormal median/sigma).
  double short_cpu_request_median = 0.010;
  double service_cpu_request_median = 0.008;
  double cpu_request_sigma = 0.6;
  double short_mem_request_median = 0.006;
  double service_mem_request_median = 0.0115;
  double mem_request_sigma = 0.5;
  /// Mean fraction of the CPU request actually burned (Fig 11: ~35%).
  double cpu_usage_ratio_mean = 0.34;
  /// Fraction of CPU-bursty tasks and their usage-to-request ratio.
  /// Ratios above 1 model opportunistic use of idle cycles beyond the
  /// request — that is what pushes hosts to their CPU capacity and
  /// produces the Fig 7a mass at the capacity value.
  double cpu_burst_fraction = 0.10;
  double cpu_burst_ratio = 1.5;
  /// Memory usage ratio (Fig 7b: max consumed ~ 80% of capacity).
  double mem_usage_ratio_mean = 0.82;
  /// Page-cache footprint mixture (Fig 7d bimodality): most tasks touch
  /// little page cache; file-heavy tasks touch a lot.
  double page_cache_small_median = 0.002;
  double page_cache_large_median = 0.020;
  double page_cache_large_fraction = 0.30;

  // ---- host-load simulation scale ----------------------------------------------
  /// Target steady-state running tasks per machine (Fig 8b: ~40).
  double target_running_per_machine = 33.0;
  /// Fraction of tasks submitted with a placement constraint (one
  /// required machine attribute; see trace::MachineAttribute). Sharma et
  /// al. (cited in Section V) report constraints measurably increase
  /// scheduling delay — the ablation_constraints case sweeps this.
  double constrained_task_fraction = 0.12;
  /// Probability that a machine offers each attribute bit.
  double machine_attribute_density = 0.62;
  /// Best-effort scavenger population (steady-state tasks per machine):
  /// low-priority backfill work that soaks the overcommit memory slice
  /// and is continuously evicted by mid/high-priority arrivals — the
  /// structural source of Fig 8's EVICT events.
  double scavenger_per_machine = 2.5;
  double scavenger_length_median_s = 2.0 * 3600;
  double scavenger_length_sigma = 0.9;
  /// Warm-up: the simulated workload starts this many days before the
  /// sampling window, so the short/mid-service population is at steady
  /// state at t=0 (the real trace observes a long-running cluster, not a
  /// cold start).
  double warmup_days = 4.0;
  /// Busy period (Fig 10a: days 21-25): arrival and usage surge.
  double busy_day_start = 21.0;
  double busy_day_end = 25.0;
  double busy_rate_factor = 1.8;
  double busy_cpu_ratio_boost = 1.8;

  /// Fraction of tasks materialized into the workload TraceSet (jobs
  /// always carry their full num_tasks). Month-long full-rate runs have
  /// ~10M tasks; sampling keeps memory bounded without biasing the
  /// task-length or priority statistics. 0 disables task records.
  double task_sampling_rate = 1.0;

  std::uint64_t seed = 20120924;  // CLUSTER'12 conference date
};

class GoogleWorkloadModel : public WorkloadModel {
 public:
  explicit GoogleWorkloadModel(GoogleModelConfig config = {});

  const GoogleModelConfig& config() const { return config_; }

  /// Always "google" — the paper's cloud system.
  const std::string& name() const override { return name_; }

  /// "google" as well: the system name its traces carry.
  const std::string& system_name() const override { return name_; }

  /// Full-rate workload-only trace (jobs and tasks; no machines).
  trace::TraceSet generate_workload(util::TimeSec horizon) const override;

  /// Heterogeneous machine park with the paper's capacity groups (Fig 7).
  std::vector<trace::Machine> make_machines(
      std::size_t count) const override;

  /// Task specs for a host-load simulation over `num_machines` machines;
  /// arrival rate is scaled so steady-state concurrency matches
  /// config.target_running_per_machine.
  sim::Workload generate_sim_workload(util::TimeSec horizon,
                                      std::size_t num_machines) const override;

  /// The calibration seed (GoogleModelConfig::seed).
  std::uint64_t base_seed() const override { return config_.seed; }

 private:
  GoogleModelConfig config_;
  std::string name_ = "google";
};

}  // namespace cgc::gen
