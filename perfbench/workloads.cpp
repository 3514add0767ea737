#include "workloads.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <unordered_map>

#include "analysis/hostload_analyzers.hpp"
#include "analysis/workload_analyzers.hpp"
#include "exec/parallel.hpp"
#include "gen/google_model.hpp"
#include "gen/grid_model.hpp"
#include "obs/metrics.hpp"
#include "plan/matrix.hpp"
#include "plan/plan_io.hpp"
#include "plan/runner.hpp"
#include "sim/cluster_sim.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "stream/daemon.hpp"
#include "stream/replay.hpp"
#include "stream/window.hpp"
#include "trace/google_format.hpp"
#include "trace/gwa_format.hpp"
#include "trace/loader.hpp"
#include "trace/swf_format.hpp"
#include "trace/validate.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace {

using namespace cgc;
namespace fs = std::filesystem;

// ---- scales -----------------------------------------------------------------
// hostload_month stays above the 512-machine placement_probe_limit
// threshold so the simulator takes its probed-placement path.
constexpr std::size_t kHostloadMachines = 1024;
constexpr util::TimeSec kHostloadHorizon = 3 * util::kSecondsPerDay;
// trace_files: the 64-machine simulated month cgc_report caches as
// clusterdata CSV, the eight grid presets over the same month, and the
// two Fig 13 grid host-load traces at cgc_report's 32 machines.
constexpr std::size_t kTraceGoogleMachines = 64;
constexpr std::size_t kTraceGridMachines = 32;
constexpr util::TimeSec kTraceHorizon = util::kSecondsPerMonth;
constexpr const char* kFig13Grids[] = {"AuverGrid", "SHARCNET"};
// cgcd_ingest: a full-rate Google workload month as task_events rows.
constexpr util::TimeSec kIngestHorizon = util::kSecondsPerMonth;
// plan_matrix: the shipping 576-scenario matrix at cgc_plan's horizon.
constexpr util::TimeSec kPlanHorizon = 6 * util::kSecondsPerHour;

/// Decorrelates the per-model seeds derived from one workload seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;  // 0 means "model default" to the generators
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// FNV-1a over analyzer outputs: figures by their doubles' bit
/// patterns, tables by their rendered text.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void text(const std::string& s) { bytes(s.data(), s.size() + 1); }
  void number(double v) { bytes(&v, sizeof(v)); }
  void figure(const analysis::Figure& f) {
    text(f.id);
    for (const analysis::Series& s : f.series) {
      text(s.name);
      for (const std::vector<double>& row : s.rows) {
        for (const double v : row) {
          number(v);
        }
      }
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

bool is_swf_system(const std::string& name) {
  return name == "ANL" || name == "RICC" || name == "METACENTRUM" ||
         name == "LLNL-Atlas";
}

/// A grid preset's workload file, in its archive's format.
std::string grid_file(const std::string& dir, const std::string& name) {
  return dir + "/" + name + (is_swf_system(name) ? ".swf" : ".gwf");
}

/// Size of a file, or of every regular file under a directory.
std::uint64_t file_bytes(const fs::path& path) {
  if (!fs::is_directory(path)) {
    return fs::file_size(path);
  }
  std::uint64_t total = 0;
  for (const fs::directory_entry& e : fs::recursive_directory_iterator(path)) {
    total += e.is_regular_file() ? e.file_size() : 0;
  }
  return total;
}

void add_check(Iteration* it, std::string name, bool ok) {
  it->checks.emplace_back(std::move(name), ok);
}

void add_count(Iteration* it, std::string name, double value) {
  it->counts.emplace_back(std::move(name), value);
}

double seconds_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

/// Figs 7-12 and Tables II-III over one host-load trace, one span per
/// analyzer call.
void hostload_analyzers(const trace::TraceSet& trace, Digest* d,
                        Tracer* tracer) {
  {
    auto s = tracer->span("analysis.fig07_max_host_load");
    for (const analysis::Figure& f :
         analysis::analyze_max_host_load(trace).to_figures()) {
      d->figure(f);
    }
  }
  {
    auto s = tracer->span("analysis.fig08_queue_state");
    const analysis::QueueStateReport queue = analysis::analyze_queue_state(trace);
    d->figure(queue.queue_figure);
    d->figure(queue.events_figure);
  }
  {
    auto s = tracer->span("analysis.fig09_queue_run_mass_count");
    d->figure(analysis::analyze_queue_run_mass_count(trace).figure);
  }
  for (const analysis::Metric metric :
       {analysis::Metric::kCpu, analysis::Metric::kMem}) {
    for (const trace::PriorityBand band :
         {trace::PriorityBand::kLow, trace::PriorityBand::kHigh}) {
      {
        auto s = tracer->span("analysis.fig10_usage_snapshot");
        d->figure(analysis::analyze_usage_snapshot(trace, metric, band));
      }
      auto s = tracer->span("analysis.fig11_12_usage_mass_count");
      d->figure(analysis::analyze_usage_mass_count(trace, metric, band).figure);
    }
    auto s = tracer->span("analysis.tab02_03_level_durations");
    d->text(analysis::analyze_level_durations(trace, metric,
                                              trace::PriorityBand::kLow)
                .render());
  }
}

/// Figs 2-6 and Table I over the workload traces, one span per analyzer
/// call.
void workload_analyzers(std::span<const trace::TraceSet* const> traces,
                        Digest* d, Tracer* tracer) {
  std::vector<analysis::SubmissionStats> table;
  for (const trace::TraceSet* t : traces) {
    {
      auto s = tracer->span("analysis.fig02_priorities");
      d->figure(analysis::analyze_priorities(*t).to_figure());
    }
    {
      auto s = tracer->span("analysis.fig04_task_length_mass_count");
      d->figure(analysis::analyze_task_length_mass_count(*t).figure);
    }
    auto s = tracer->span("analysis.tab01_submission_stats");
    table.push_back(analysis::analyze_submission_stats(*t));
  }
  d->text(analysis::render_submission_table(table));
  {
    auto s = tracer->span("analysis.fig03_job_length_cdf");
    d->figure(analysis::analyze_job_length_cdf(traces));
  }
  {
    auto s = tracer->span("analysis.fig05_submission_interval_cdf");
    d->figure(analysis::analyze_submission_interval_cdf(traces));
  }
  {
    auto s = tracer->span("analysis.fig06_job_cpu_usage_cdf");
    d->figure(analysis::analyze_job_cpu_usage_cdf(traces));
  }
  auto s = tracer->span("analysis.fig06_job_mem_usage_cdf");
  const double caps[] = {32.0, 64.0};
  d->figure(analysis::analyze_job_mem_usage_cdf(traces, caps));
}

/// Loads a CGCS file in degraded mode, accounting chunks read and
/// quarantined.
trace::TraceSet decode_cgcs(const std::string& path, Iteration* it,
                            std::uint64_t* chunks,
                            std::uint64_t* quarantined) {
  const store::StoreReader reader(path, store::ReadMode::kDegraded);
  trace::TraceSet out = reader.load_trace_set();
  *chunks = reader.info().num_chunks;
  *quarantined = reader.damage().chunks_quarantined();
  add_count(it, "store.bytes", static_cast<double>(reader.info().file_size));
  return out;
}

// ---- hostload_month ---------------------------------------------------------

struct AttemptLedger {
  std::int64_t schedules = 0;
  std::int64_t terminals = 0;
  bool conserved = true;  ///< no attempt closed twice or never opened
};

/// Replays the recorded event stream per task: a SCHEDULE opens an
/// attempt and exactly one terminal event may close it.
AttemptLedger attempt_ledger(const trace::TraceSet& trace) {
  struct KeyHash {
    std::size_t operator()(const std::pair<std::int64_t, std::int32_t>& k) const {
      return std::hash<std::int64_t>()(k.first * 1000003 + k.second);
    }
  };
  std::unordered_map<std::pair<std::int64_t, std::int32_t>, bool, KeyHash>
      running;
  running.reserve(trace.tasks().size());
  AttemptLedger ledger;
  for (const trace::TaskEvent& e : trace.events()) {
    const bool schedule = e.type == trace::TaskEventType::kSchedule;
    if (!schedule && !trace::is_terminal(e.type)) {
      continue;
    }
    bool& open = running[{e.job_id, e.task_index}];
    ledger.conserved = ledger.conserved && open != schedule;
    open = schedule;
    ++(schedule ? ledger.schedules : ledger.terminals);
  }
  return ledger;
}

Iteration hostload_month(std::uint64_t seed, const std::string& scratch,
                         Tracer* tracer) {
  Iteration it;
  it.scale = std::to_string(kHostloadMachines) + " machines x " +
             std::to_string(kHostloadHorizon / util::kSecondsPerDay) + " d";
  gen::GoogleModelConfig model_config;
  model_config.seed = mix(seed, 1);
  const gen::GoogleWorkloadModel model(model_config);
  sim::SimConfig sim_config;
  sim_config.horizon = kHostloadHorizon;
  sim_config.seed = seed;
  sim_config.record_events = true;

  it.first_call_ns = mono_ns();
  std::vector<trace::Machine> machines;
  {
    auto s = tracer->span("gen.make_machines");
    machines = model.make_machines(kHostloadMachines);
  }
  sim::Workload workload;
  {
    auto s = tracer->span("gen.sim_workload");
    workload = model.generate_sim_workload(kHostloadHorizon, kHostloadMachines);
  }
  trace::TraceSet simulated;
  sim::SimStats stats;
  {
    auto s = tracer->span("sim.run");
    const std::uint64_t t0 = mono_ns();
    sim::ClusterSim sim(std::move(machines), sim_config);
    simulated = sim.run(workload, "google-hostload");
    stats = sim.stats();
    it.work_s = seconds_between(t0, mono_ns());
  }
  std::uint64_t digest_before = 0;
  {
    auto s = tracer->span("check.digest");
    digest_before = simulated.content_digest();
  }
  const std::string path = scratch + "/hostload.cgcs";
  {
    auto s = tracer->span("store.encode");
    store::write_cgcs(simulated, path);
  }
  simulated = trace::TraceSet();
  std::uint64_t chunks = 0;
  std::uint64_t quarantined = 0;
  trace::TraceSet reloaded;
  {
    auto s = tracer->span("store.decode");
    reloaded = decode_cgcs(path, &it, &chunks, &quarantined);
  }
  std::uint64_t digest_after = 0;
  {
    auto s = tracer->span("check.digest");
    digest_after = reloaded.content_digest();
  }
  AttemptLedger ledger;
  {
    auto s = tracer->span("check.attempts");
    ledger = attempt_ledger(reloaded);
  }
  Digest analyzers;
  {
    auto s = tracer->span("analysis.hostload");
    hostload_analyzers(reloaded, &analyzers, tracer);
  }
  it.done_ns = mono_ns();

  add_check(&it, "cgcs_roundtrip_digest", digest_before == digest_after);
  add_check(&it, "attempts_conserved", ledger.conserved);
  add_check(&it, "sim_stats_match_events",
            ledger.schedules == stats.scheduled &&
                ledger.terminals == stats.terminal_events());
  // Known defect, reported rather than failed: SimStats counts horizon
  // states only for tasks first submitted inside the window, so warm-up
  // tasks still running at the horizon are missing from
  // running_at_horizon and scheduled != terminals + running_at_horizon.
  const std::int64_t attempt_gap =
      stats.scheduled - stats.terminal_events() - stats.running_at_horizon;
  it.outputs.emplace_back("attempt_gap", std::to_string(attempt_gap));
  add_check(&it, "no_chunks_quarantined", quarantined == 0);
  it.outputs.emplace_back("sim_digest", hex(digest_before));
  it.outputs.emplace_back("analysis_digest", hex(analyzers.value()));
  it.work_units = static_cast<std::uint64_t>(stats.events_processed);
  it.attempted = chunks;
  it.failed = quarantined;
  add_count(&it, "gen.specs", static_cast<double>(workload.size()));
  add_count(&it, "sim.events", static_cast<double>(stats.events_processed));
  add_count(&it, "sim.schedule_passes",
            static_cast<double>(stats.schedule_passes));
  add_count(&it, "sim.evicted", static_cast<double>(stats.evicted));
  add_count(&it, "sim.max_pending_depth",
            static_cast<double>(stats.max_pending_depth));
  add_count(&it, "store.chunks_quarantined", static_cast<double>(quarantined));
  add_count(&it, "sim.attempt_gap", static_cast<double>(attempt_gap));
  return it;
}

// ---- trace_files ------------------------------------------------------------

void trace_inputs(std::uint64_t seed, const std::string& dir,
                  std::ostringstream* meta) {
  // The Google model keeps its calibration seed, as cgc_report's cached
  // month does; the seed varies the simulation. With other model seeds
  // about 4 in 10 months back up in the day 21-25 busy period at 64
  // machines and input generation takes minutes instead of seconds.
  const gen::GoogleWorkloadModel google;
  sim::SimConfig sim_config;
  sim_config.horizon = kTraceHorizon;
  sim_config.seed = seed;
  sim::ClusterSim sim(google.make_machines(kTraceGoogleMachines), sim_config);
  trace::write_google_trace(
      sim.run(google.generate_sim_workload(kTraceHorizon, kTraceGoogleMachines),
              "google"),
      dir + "/google");

  std::uint64_t salt = 100;
  for (gen::GridSystemPreset preset : gen::presets::all()) {
    preset.seed = mix(seed, salt++);
    const gen::GridWorkloadModel model(preset);
    const trace::TraceSet workload = model.generate_workload(kTraceHorizon);
    if (is_swf_system(preset.name)) {
      trace::write_swf(workload, grid_file(dir, preset.name));
    } else {
      trace::write_gwa(workload, grid_file(dir, preset.name));
    }
    for (const char* name : kFig13Grids) {
      if (preset.name != name) {
        continue;
      }
      sim::SimConfig grid_config;
      grid_config.horizon = kTraceHorizon;
      grid_config.seed = seed;
      gen::GridWorkloadModel::apply_grid_sim_defaults(&grid_config);
      sim::ClusterSim grid_sim(model.make_machines(kTraceGridMachines),
                               grid_config);
      trace::write_google_trace(
          grid_sim.run(model.generate_sim_workload(kTraceHorizon,
                                                   kTraceGridMachines),
                       preset.name + "-hostload"),
          dir + "/" + preset.name + "-hostload");
    }
  }
  *meta << "{\"bytes\": " << file_bytes(dir) << "}";
}

struct Input {
  std::string path;
  std::string system;
  std::string span;  ///< trace.load.<format>
};

std::vector<Input> trace_input_list(const std::string& dir) {
  std::vector<Input> inputs;
  inputs.push_back({dir + "/google", "google", "trace.load.google_csv"});
  for (const gen::GridSystemPreset& preset : gen::presets::all()) {
    inputs.push_back({grid_file(dir, preset.name), preset.name,
                      is_swf_system(preset.name) ? "trace.load.swf"
                                                 : "trace.load.gwa"});
  }
  for (const char* name : kFig13Grids) {
    inputs.push_back({dir + "/" + name + "-hostload",
                      std::string(name) + "-hostload",
                      "trace.load.google_csv"});
  }
  return inputs;
}

/// Figs 2-13 and Tables I-III: the nine workload traces (Google first),
/// the Google host load, and Fig 13 against the grid host loads.
std::uint64_t characterize(const trace::TraceSet& google,
                           const std::vector<trace::TraceSet>& loaded,
                           Tracer* tracer) {
  Digest d;
  std::vector<const trace::TraceSet*> workloads = {&google};
  for (std::size_t i = 1; i < 9; ++i) {
    workloads.push_back(&loaded[i]);
  }
  {
    auto s = tracer->span("analysis.workload");
    workload_analyzers(workloads, &d, tracer);
  }
  {
    auto s = tracer->span("analysis.hostload");
    hostload_analyzers(google, &d, tracer);
  }
  {
    auto s = tracer->span("analysis.compare");
    const trace::TraceSet* hostloads[] = {&google, &loaded[9], &loaded[10]};
    const analysis::HostLoadComparison cmp =
        analysis::analyze_hostload_comparison(hostloads);
    d.text(cmp.render());
    for (const analysis::HostLoadSystemStats& sys : cmp.systems) {
      d.figure(sys.series_figure);
    }
  }
  return d.value();
}

Iteration trace_files(const std::string& dir, const std::string& scratch,
                      Tracer* tracer) {
  Iteration it;
  it.scale = "google " + std::to_string(kTraceGoogleMachines) +
             " machines + 8 grid presets + 2 grid host loads x " +
             std::to_string(kTraceHorizon / util::kSecondsPerDay) + " d";
  const std::vector<Input> inputs = trace_input_list(dir);
  std::uint64_t input_bytes = 0;
  for (const Input& in : inputs) {
    input_bytes += file_bytes(in.path);
  }

  it.first_call_ns = mono_ns();
  std::vector<trace::TraceSet> loaded;
  std::uint64_t rows = 0;
  std::uint64_t bad_lines = 0;
  for (const Input& in : inputs) {
    auto s = tracer->span(in.span);
    const std::uint64_t t0 = mono_ns();
    trace::LoadOptions options;
    options.system_name = in.system;
    options.strictness = trace::Strictness::kTolerant;
    trace::LoadReport report;
    loaded.push_back(trace::load_trace(in.path, options, &report));
    it.work_s += seconds_between(t0, mono_ns());
    rows += report.parse.records_ok;
    bad_lines += report.parse.lines_bad;
  }
  const trace::TraceSet& google = loaded[0];
  std::size_t validate_issues = 0;
  {
    auto s = tracer->span("trace.validate");
    validate_issues = trace::validate(google).size();
  }
  const std::uint64_t csv_analysis = characterize(google, loaded, tracer);

  const std::string path = scratch + "/google.cgcs";
  {
    auto s = tracer->span("store.encode");
    store::write_cgcs(google, path);
  }
  std::uint64_t chunks = 0;
  std::uint64_t quarantined = 0;
  trace::TraceSet reloaded;
  {
    auto s = tracer->span("store.decode");
    reloaded = decode_cgcs(path, &it, &chunks, &quarantined);
  }
  bool same_digest = false;
  {
    auto s = tracer->span("check.digest");
    same_digest = reloaded.content_digest() == google.content_digest();
  }
  const std::uint64_t cgcs_analysis = characterize(reloaded, loaded, tracer);
  it.done_ns = mono_ns();

  add_check(&it, "csv_cgcs_equal_digest", same_digest);
  add_check(&it, "csv_cgcs_equal_analysis", csv_analysis == cgcs_analysis);
  add_check(&it, "no_chunks_quarantined", quarantined == 0);
  it.outputs.emplace_back("analysis_digest", hex(csv_analysis));
  it.outputs.emplace_back("google_digest", hex(google.content_digest()));
  it.outputs.emplace_back("validate_issues", std::to_string(validate_issues));
  it.work_units = rows;
  it.attempted = rows + bad_lines + chunks;
  it.failed = bad_lines + quarantined;
  add_count(&it, "trace.input_bytes", static_cast<double>(input_bytes));
  add_count(&it, "trace.rows", static_cast<double>(rows));
  add_count(&it, "trace.bad_lines", static_cast<double>(bad_lines));
  add_count(&it, "trace.validate_issues", static_cast<double>(validate_issues));
  add_count(&it, "store.chunks_quarantined", static_cast<double>(quarantined));
  return it;
}

// ---- cgcd_ingest ------------------------------------------------------------

void ingest_inputs(std::uint64_t seed, const std::string& dir,
                   std::ostringstream* meta) {
  gen::GoogleModelConfig config;
  config.seed = mix(seed, 3);
  config.task_sampling_rate = stream::DaemonConfig{}.task_sampling_rate;
  const trace::TraceSet workload =
      gen::GoogleWorkloadModel(config).generate_workload(kIngestHorizon);
  trace::TraceSet rows("cgcd-input");
  rows.adopt_events(stream::synthesize_events(workload));
  const std::string path = dir + "/task_events.csv";
  trace::write_task_events(rows, path);
  *meta << "{\"rows\": " << rows.events().size()
        << ", \"bytes\": " << fs::file_size(path) << "}";
}

/// The daemon's query rendering for `queries` against the latest closed
/// window, framed exactly as run_daemon frames it.
std::string render_queries(const stream::SlidingWindow& engine,
                           const std::vector<std::string>& queries) {
  std::ostringstream out;
  out.precision(12);
  const stream::WindowStats* target = engine.latest();
  out << "\"queries\": {";
  const char* sep = "";
  for (const std::string& query : queries) {
    out << sep << "\n\"" << query << "\": ";
    if (target == nullptr) {
      out << "null";
    } else {
      target->write_json(out, query);
    }
    sep = ",";
  }
  out << "}";
  return out.str();
}

Iteration cgcd_ingest(const std::string& scratch, Tracer* tracer) {
  Iteration it;
  it.scale = "full-rate Google workload, " +
             std::to_string(kIngestHorizon / util::kSecondsPerDay) +
             " d of task_events rows on stdin";
  const stream::DaemonConfig defaults;
  const std::vector<std::string> queries = {"all"};
  stream::SlidingWindow engine(defaults.window);
  stream::StreamHealth io_health;
  std::uint64_t batches = 0;

  it.first_call_ns = mono_ns();
  std::uint64_t last_ns = it.first_call_ns;
  std::uint64_t delivered = 0;
  {
    auto s = tracer->span("stream.parse");
    delivered = stream::read_event_stream(
        std::cin, defaults.batch_size,
        [&](std::span<const trace::TaskEvent> batch) {
          {
            auto w = tracer->span("stream.window_ingest");
            engine.ingest(batch);
          }
          const std::uint64_t now = mono_ns();
          it.batch_ms.push_back(static_cast<double>(now - last_ns) / 1e6);
          last_ns = now;
          ++batches;
        },
        &io_health);
  }
  {
    auto s = tracer->span("stream.flush");
    engine.flush();
  }
  it.work_s = seconds_between(it.first_call_ns, mono_ns());
  std::string rendered;
  {
    auto s = tracer->span("stream.query");
    rendered = render_queries(engine, queries);
  }
  stream::StreamHealth health = engine.health();
  health.merge(io_health);
  it.done_ns = mono_ns();

  {
    std::ofstream out(scratch + "/queries.json", std::ios::binary);
    out << rendered;
  }
  const std::uint64_t late = health.late_dropped + health.late_absorbed;
  add_check(&it, "stream_health_clean", !health.lossy() && late == 0);
  add_check(&it, "window_found", engine.latest() != nullptr);
  it.outputs.emplace_back("rows_delivered", std::to_string(delivered));
  it.work_units = delivered;
  it.attempted = delivered + health.parse_bad_lines;
  it.failed = late + health.faults_dropped + health.parse_bad_lines;
  add_count(&it, "stream.batches", static_cast<double>(batches));
  add_count(&it, "stream.windows_closed",
            static_cast<double>(engine.windows_closed()));
  add_count(&it, "stream.late", static_cast<double>(late));
  add_count(&it, "stream.dropped", static_cast<double>(health.faults_dropped));
  add_count(&it, "stream.bad_lines",
            static_cast<double>(health.parse_bad_lines));
  return it;
}

// ---- plan_matrix ------------------------------------------------------------

Iteration plan_matrix(std::uint64_t seed, Tracer* tracer) {
  Iteration it;
  it.scale = "default matrix, 6 h horizon, " +
             std::to_string(exec::num_workers()) + " workers";
  it.first_call_ns = mono_ns();
  plan::ScenarioMatrix matrix;
  {
    auto s = tracer->span("plan.expand");
    matrix = plan::default_matrix(kPlanHorizon);
    for (plan::ScenarioSpec& spec : matrix.scenarios) {
      spec.seed = seed;
    }
  }
  std::vector<plan::ScenarioResult> results;
  {
    auto s = tracer->span("plan.run");
    const std::uint64_t t0 = mono_ns();
    plan::PlanRunner runner(matrix, plan::PlanConfig{});
    results = runner.run();
    it.work_s = seconds_between(t0, mono_ns());
  }
  std::string json;
  {
    auto s = tracer->span("plan.render");
    json = plan::render_plan_json(matrix, results);
  }
  std::uint64_t failed = 0;
  for (const plan::ScenarioResult& r : results) {
    failed += r.ok ? 0 : 1;
  }
  Digest d;
  d.text(json);
  it.done_ns = mono_ns();

  add_check(&it, "all_scenarios_ran", results.size() == matrix.scenarios.size());
  add_check(&it, "no_failed_scenarios", failed == 0);
  it.outputs.emplace_back("plan_json_digest", hex(d.value()));
  it.work_units = results.size();
  it.attempted = matrix.scenarios.size();
  it.failed = failed + (matrix.scenarios.size() - results.size());
  add_count(&it, "plan.scenarios", static_cast<double>(results.size()));
  add_count(&it, "plan.failed", static_cast<double>(failed));
  add_count(&it, "exec.workers", static_cast<double>(exec::num_workers()));
  // The simulator runs inside run_scenario; its counters reach the
  // benchmark only through the metrics registry (armed in traced runs).
  if (obs::metrics_enabled()) {
    add_count(&it, "sim.events",
              static_cast<double>(obs::counter("sim.events").value()));
    add_count(&it, "sim.schedule_passes",
              static_cast<double>(obs::counter("sim.schedule_passes").value()));
    add_count(&it, "sim.evicted",
              static_cast<double>(obs::counter("sim.evictions").value()));
  }
  return it;
}

}  // namespace

bool known_workload(const std::string& workload) {
  return workload == "hostload_month" || workload == "trace_files" ||
         workload == "cgcd_ingest" || workload == "plan_matrix";
}

std::string make_inputs(const std::string& workload, std::uint64_t seed,
                        const std::string& dir) {
  fs::create_directories(dir);
  std::ostringstream meta;
  if (workload == "trace_files") {
    trace_inputs(seed, dir, &meta);
  } else if (workload == "cgcd_ingest") {
    ingest_inputs(seed, dir, &meta);
  } else {
    meta << "{}";  // generated inside the timed region
  }
  return meta.str();
}

Iteration run_iteration(const std::string& workload, std::uint64_t seed,
                        const std::string& inputs, const std::string& scratch,
                        Tracer* tracer) {
  fs::create_directories(scratch);
  if (workload == "hostload_month") {
    return hostload_month(seed, scratch, tracer);
  }
  if (workload == "trace_files") {
    return trace_files(inputs, scratch, tracer);
  }
  if (workload == "cgcd_ingest") {
    return cgcd_ingest(scratch, tracer);
  }
  return plan_matrix(seed, tracer);
}

std::string reference_output(const std::string& inputs) {
  stream::DaemonConfig config;
  config.input = "-";
  config.queries = {"all"};
  std::ifstream rows(inputs + "/task_events.csv", std::ios::binary);
  if (!rows) {
    throw util::DataError("cannot open " + inputs + "/task_events.csv");
  }
  std::ostringstream out;
  stream::run_daemon(config, rows, out);
  return out.str();
}

}  // namespace perfbench
