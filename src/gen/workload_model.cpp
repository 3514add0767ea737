#include "gen/workload_model.hpp"

#include "gen/google_model.hpp"
#include "gen/grid_model.hpp"
#include "sim/cluster_sim.hpp"
#include "util/error.hpp"

namespace cgc::gen {

void WorkloadModel::apply_sim_defaults(sim::SimConfig* /*config*/) const {
  // Cloud defaults: SimConfig's own defaults are the Google calibration.
}

std::vector<std::string> workload_model_names() {
  std::vector<std::string> names;
  names.push_back("google");
  for (const GridSystemPreset& p : presets::all()) {
    names.push_back(GridWorkloadModel(p).name());
  }
  return names;
}

trace::TraceSet simulate_hostload(const WorkloadModel& model,
                                  std::size_t machines,
                                  util::TimeSec horizon) {
  sim::SimConfig config;
  config.horizon = horizon;
  model.apply_sim_defaults(&config);
  sim::ClusterSim sim(model.make_machines(machines), config);
  return sim.run(model.generate_sim_workload(horizon, machines),
                 model.system_name() + "-hostload");
}

std::unique_ptr<WorkloadModel> make_workload_model(const std::string& name,
                                                   std::uint64_t seed) {
  if (name == "google") {
    GoogleModelConfig config;
    if (seed != 0) {
      config.seed = seed;
    }
    return std::make_unique<GoogleWorkloadModel>(config);
  }
  for (const GridSystemPreset& preset : presets::all()) {
    auto model = std::make_unique<GridWorkloadModel>(preset);
    if (model->name() == name) {
      if (seed != 0) {
        GridSystemPreset seeded = preset;
        seeded.seed = seed;
        return std::make_unique<GridWorkloadModel>(seeded);
      }
      return model;
    }
  }
  std::string known;
  for (const std::string& n : workload_model_names()) {
    known += known.empty() ? n : ", " + n;
  }
  throw util::FatalError("unknown workload model \"" + name +
                         "\" (known: " + known + ")");
}

}  // namespace cgc::gen
