// gen::WorkloadModel — the polymorphic face of the workload generators.
//
// GoogleWorkloadModel and GridWorkloadModel grew up independently with
// structurally identical surfaces (make_machines / generate_workload /
// generate_sim_workload). cgc::plan needs to swap and *blend* them
// behind one interface — a scenario says "70% cloud + 30% auvergrid"
// without caring which concrete generator produces each component, and
// Grid-on-Cloud / Cloud-on-Grid cross-replays are just a model name
// paired with a foreign machine park. This header introduces the
// abstract base both concrete models now inherit (existing call sites
// that hold the concrete types stay source-compatible) plus a name →
// model factory used by plan scenario specs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/task_spec.hpp"
#include "trace/trace_set.hpp"

namespace cgc::gen {

/// Abstract workload generator: machines, full-rate workload traces,
/// and sim task streams, behind one interface so callers (cgc::plan in
/// particular) can mix concrete models polymorphically.
class WorkloadModel {
 public:
  virtual ~WorkloadModel() = default;

  /// Stable lowercase identifier ("google", "auvergrid", ...). Used in
  /// scenario keys, so renaming one changes scenario ids.
  virtual const std::string& name() const = 0;

  /// System name stamped into the traces this model generates: "google"
  /// for the cloud model, the preset's own spelling ("AuverGrid", ...)
  /// for grid systems.
  virtual const std::string& system_name() const = 0;

  /// Machine park this model was calibrated for (heterogeneous capacity
  /// groups for the cloud model, uniform nodes for grid systems).
  virtual std::vector<trace::Machine> make_machines(
      std::size_t count) const = 0;

  /// Full-rate workload-only trace (jobs + tasks; no machines).
  virtual trace::TraceSet generate_workload(util::TimeSec horizon) const = 0;

  /// Task specs for a host-load simulation over `num_machines` machines,
  /// arrival rate scaled to the model's steady-state concurrency target.
  virtual sim::Workload generate_sim_workload(
      util::TimeSec horizon, std::size_t num_machines) const = 0;

  /// Adjusts simulator settings to this model's system type. The base
  /// implementation is a no-op (cloud defaults); grid models disable
  /// preemption and usage jitter (GridWorkloadModel::apply_grid_sim_defaults).
  virtual void apply_sim_defaults(sim::SimConfig* config) const;

  /// Base RNG seed the model generates from. Plan scenarios re-seed
  /// components per scenario so replicas decorrelate.
  virtual std::uint64_t base_seed() const = 0;
};

/// Names accepted by make_workload_model(): "google" plus the eight
/// grid presets, in registry order.
std::vector<std::string> workload_model_names();

/// Simulates `machines` of the model's machine park over `horizon`
/// under its sim defaults (apply_sim_defaults) and returns the
/// host-load trace, named "<system_name()>-hostload".
trace::TraceSet simulate_hostload(const WorkloadModel& model,
                                  std::size_t machines,
                                  util::TimeSec horizon);

/// Builds the named model with its default calibration, re-seeded with
/// `seed` when non-zero. Throws util::FatalError for an unknown name
/// (exit 2/3 per taxonomy — a bad name is a usage/spec bug).
std::unique_ptr<WorkloadModel> make_workload_model(const std::string& name,
                                                   std::uint64_t seed = 0);

}  // namespace cgc::gen
