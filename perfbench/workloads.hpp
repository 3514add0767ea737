// The four benchmark workloads, driven through the libraries' public
// functions. Each workload has an input generator (the load
// generator's work: run once per benchmark run, untimed) and an
// iteration (one cold user's run: timed, traced when asked, checked).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// What one iteration measured and checked. Everything run.py
/// compares across iterations of a run travels in `outputs`.
struct Iteration {
  std::string scale;                ///< human-readable input size
  std::uint64_t first_call_ns = 0;  ///< mono_ns() at the first timed call
  std::uint64_t done_ns = 0;        ///< mono_ns() at the checked result
  std::uint64_t work_units = 0;     ///< events / rows / scenarios
  double work_s = 0.0;              ///< time of the stage that does them
  std::uint64_t attempted = 0;      ///< operations that could fail
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::pair<std::string, std::string>> outputs;
  std::vector<std::pair<std::string, double>> counts;
  std::vector<double> batch_ms;  ///< cgcd_ingest: per parse+ingest call
};

/// True for the four workload names.
bool known_workload(const std::string& workload);

/// Writes the workload's seeded inputs under `dir` and returns a JSON
/// object describing them (run.py stamps it into the result).
std::string make_inputs(const std::string& workload, std::uint64_t seed,
                        const std::string& dir);

/// Runs one cold iteration over the inputs in `inputs`, writing any
/// outputs under `scratch`. cgcd_ingest reads its rows from stdin and
/// writes its query answers to `scratch`/queries.json.
Iteration run_iteration(const std::string& workload, std::uint64_t seed,
                        const std::string& inputs, const std::string& scratch,
                        Tracer* tracer);

/// cgcd_ingest's reference: run_daemon's full JSON output on the rows
/// file, for comparison with an iteration's queries.
std::string reference_output(const std::string& inputs);

}  // namespace perfbench
