// perfbench_run — one process per benchmark step; run.py drives it.
//
//   perfbench_run inputs <workload> <seed> <dir>
//       Generates the workload's seeded inputs; prints a JSON summary.
//   perfbench_run iterate <workload> <seed> <inputs> <scratch> <trace>
//       One cold iteration; prints its measurements as one JSON line.
//       With trace=1 it also arms the metrics registry and the
//       in-program spans, and writes spans.json, metrics.json and
//       obs_spans.json into <scratch> when the iteration ends.
//   perfbench_run reference <inputs> <out>
//       cgcd_ingest only: run_daemon's output on the same rows.
//
// Exit codes: 0 ok, 1 failed (exception or failed check), 2 usage.
#include <unistd.h>

#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Iteration;

int usage() {
  std::cerr << "usage: perfbench_run inputs <workload> <seed> <dir>\n"
               "       perfbench_run iterate <workload> <seed> <inputs> "
               "<scratch> <0|1>\n"
               "       perfbench_run reference <inputs> <out>\n";
  return 2;
}

void write_file(const std::string& path, void (*writer)(std::ostream&)) {
  std::ofstream out(path, std::ios::binary);
  writer(out);
}

/// VmHWM of this process in KiB (0 where /proc is unavailable).
std::uint64_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      std::uint64_t kib = 0;
      status >> kib;
      return kib;
    }
    status.ignore(4096, '\n');
  }
  return 0;
}

std::string json_line(const std::string& workload, std::uint64_t seed,
                      const Iteration& it) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"scale\": \"" << it.scale << "\""
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
      << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\""
      << ", \"workers\": " << cgc::exec::num_workers()
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"peak_rss_kib\": " << peak_rss_kib()
      << ", \"first_call_ns\": " << it.first_call_ns
      << ", \"done_ns\": " << it.done_ns
      << ", \"work_units\": " << it.work_units << ", \"work_s\": " << it.work_s
      << ", \"attempted\": " << it.attempted << ", \"failed\": " << it.failed;
  const auto object = [&out](const char* key, const auto& pairs, auto emit) {
    out << ", \"" << key << "\": {";
    const char* sep = "";
    for (const auto& [name, value] : pairs) {
      out << sep << "\"" << name << "\": ";
      emit(value);
      sep = ", ";
    }
    out << "}";
  };
  object("checks", it.checks, [&out](bool ok) { out << (ok ? "true" : "false"); });
  object("outputs", it.outputs,
         [&out](const std::string& v) { out << "\"" << v << "\""; });
  object("counts", it.counts, [&out](double v) { out << v; });
  out << ", \"batch_ms\": [";
  for (std::size_t i = 0; i < it.batch_ms.size(); ++i) {
    out << (i == 0 ? "" : ", ") << it.batch_ms[i];
  }
  out << "]}";
  return out.str();
}

int iterate(const std::string& workload, std::uint64_t seed,
            const std::string& inputs, const std::string& scratch,
            bool traced) {
  // cgcd_ingest reads its rows from stdin. The cgcd binary keeps the
  // default stdio sync, which makes every getline() on std::cin go
  // through stdio; this benchmark measures the library path with a
  // buffered stdin instead (see perfbench/README.md).
  std::ios::sync_with_stdio(false);
  if (traced) {
    cgc::obs::configure(/*metrics=*/true, /*spans=*/true);
  }
  perfbench::Tracer tracer(traced, workload + "-" + std::to_string(seed) +
                                       "-" + std::to_string(::getpid()));
  const Iteration it =
      perfbench::run_iteration(workload, seed, inputs, scratch, &tracer);
  if (traced) {
    std::ofstream spans(scratch + "/spans.json", std::ios::binary);
    tracer.write_json(spans);
    write_file(scratch + "/metrics.json", &cgc::obs::write_metrics_json);
    write_file(scratch + "/obs_spans.json", &cgc::obs::write_chrome_trace);
  }
  std::cout << json_line(workload, seed, it) << std::endl;
  for (const auto& [name, ok] : it.checks) {
    if (!ok) {
      std::cerr << "perfbench: check failed: " << name << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "inputs" && argc == 5 && perfbench::known_workload(argv[2])) {
      std::cout << perfbench::make_inputs(argv[2], std::stoull(argv[3]),
                                          argv[4])
                << std::endl;
      return 0;
    }
    if (mode == "iterate" && argc == 7 && perfbench::known_workload(argv[2])) {
      return iterate(argv[2], std::stoull(argv[3]), argv[4], argv[5],
                     std::string(argv[6]) == "1");
    }
    if (mode == "reference" && argc == 4) {
      std::ofstream out(argv[3], std::ios::binary);
      out << perfbench::reference_output(argv[2]);
      return out.good() ? 0 : 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
