#include "analysis/hostload_analyzers.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "exec/parallel.hpp"
#include "stats/descriptive.hpp"
#include "stats/histogram.hpp"
#include "util/check.hpp"
#include "util/table.hpp"
#include "util/time_util.hpp"

namespace cgc::analysis {

namespace {

using trace::HostLoadSeries;
using trace::PriorityBand;
using trace::TraceSet;

/// Relative usage series of the requested metric for one machine.
std::vector<double> relative_series(const TraceSet& trace,
                                    const HostLoadSeries& h, Metric metric,
                                    PriorityBand min_band) {
  const auto machine = trace.machine_by_id(h.machine_id());
  CGC_CHECK_MSG(machine.has_value(), "host-load series without machine");
  return metric == Metric::kCpu
             ? h.cpu_relative(machine->cpu_capacity, min_band)
             : h.mem_relative(machine->mem_capacity, min_band);
}

}  // namespace

std::string_view metric_name(Metric metric) {
  return metric == Metric::kCpu ? "cpu" : "memory";
}

// ---------------------------------------------------------------------------
// Fig 7
// ---------------------------------------------------------------------------

MaxLoadDistribution analyze_max_host_load(const TraceSet& trace) {
  MaxLoadDistribution dist;
  // capacity value -> group index, per attribute.
  std::map<double, std::size_t> cpu_groups, mem_groups, pc_groups;
  const auto group_for = [](std::map<double, std::size_t>* index,
                            std::vector<MaxLoadDistribution::Group>* groups,
                            double capacity) {
    // Quantize to 1e-3 so float capacities group cleanly.
    const double key = std::round(capacity * 1000.0) / 1000.0;
    const auto [it, inserted] = index->try_emplace(key, groups->size());
    if (inserted) {
      groups->push_back({key, {}});
    }
    return it->second;
  };

  for (const HostLoadSeries& h : trace.host_load()) {
    if (h.empty()) {
      continue;
    }
    const auto machine = trace.machine_by_id(h.machine_id());
    CGC_CHECK(machine.has_value());
    const std::size_t gc =
        group_for(&cpu_groups, &dist.cpu, machine->cpu_capacity);
    dist.cpu[gc].max_loads.push_back(h.max_cpu());
    const std::size_t gm =
        group_for(&mem_groups, &dist.mem, machine->mem_capacity);
    dist.mem[gm].max_loads.push_back(h.max_mem());
    // mem_assigned shares the memory capacity grouping.
    if (dist.mem_assigned.size() < dist.mem.size()) {
      dist.mem_assigned.resize(dist.mem.size());
    }
    dist.mem_assigned[gm].capacity = dist.mem[gm].capacity;
    dist.mem_assigned[gm].max_loads.push_back(h.max_mem_assigned());
    const std::size_t gp =
        group_for(&pc_groups, &dist.page_cache, machine->page_cache_capacity);
    dist.page_cache[gp].max_loads.push_back(h.max_page_cache());
  }
  return dist;
}

std::vector<Figure> MaxLoadDistribution::to_figures(
    std::size_t num_bins) const {
  const auto make = [num_bins](const std::vector<Group>& groups,
                               const std::string& id,
                               const std::string& title) {
    Figure fig;
    fig.id = id;
    fig.title = title;
    for (const Group& g : groups) {
      if (g.max_loads.empty()) {
        continue;
      }
      stats::Histogram hist(0.0, 1.0, num_bins);
      hist.add_all(g.max_loads);
      Series s;
      char name[64];
      std::snprintf(name, sizeof(name), "cap_%.2f", g.capacity);
      s.name = name;
      s.column_names = {"max_load", "pdf_mass"};
      for (std::size_t b = 0; b < hist.num_bins(); ++b) {
        s.add_row({hist.bin_center(b), hist.pmf(b)});
      }
      fig.series.push_back(std::move(s));
    }
    return fig;
  };
  return {
      make(cpu, "fig07a", "Max host load distribution: CPU usage (Fig 7a)"),
      make(mem, "fig07b",
           "Max host load distribution: memory usage (Fig 7b)"),
      make(mem_assigned, "fig07c",
           "Max host load distribution: memory assigned (Fig 7c)"),
      make(page_cache, "fig07d",
           "Max host load distribution: page cache (Fig 7d)"),
  };
}

// ---------------------------------------------------------------------------
// Fig 8
// ---------------------------------------------------------------------------

QueueStateReport analyze_queue_state(const TraceSet& trace,
                                     std::int64_t machine_id) {
  QueueStateReport report;
  CGC_CHECK_MSG(!trace.host_load().empty(), "trace has no host load");
  const HostLoadSeries* series = nullptr;
  if (machine_id < 0) {
    // Busiest machine: largest mean running count.
    double best = -1.0;
    for (const HostLoadSeries& h : trace.host_load()) {
      double total = 0.0;
      for (std::size_t i = 0; i < h.size(); ++i) {
        total += h.running(i);
      }
      const double mean =
          h.empty() ? 0.0 : total / static_cast<double>(h.size());
      if (mean > best) {
        best = mean;
        series = &h;
      }
    }
  } else {
    series = trace.host_load_for(machine_id);
  }
  CGC_CHECK_MSG(series != nullptr, "machine has no host-load series");
  report.machine_id = series->machine_id();

  // Cumulative completion counters on this machine, re-played from the
  // event stream in lockstep with the sample grid.
  std::vector<trace::TaskEvent> machine_events;
  for (const trace::TaskEvent& e : trace.events()) {
    if (e.machine_id == report.machine_id) {
      machine_events.push_back(e);
    }
  }

  report.queue_figure.id = "fig08b";
  report.queue_figure.title =
      "Queuing state on machine " + std::to_string(report.machine_id) +
      " (Fig 8b)";
  Series qs;
  qs.name = "queue_state";
  qs.column_names = {"time_day", "pending", "running", "finished",
                     "abnormal"};
  std::size_t event_pos = 0;
  std::int64_t finished = 0;
  std::int64_t abnormal = 0;
  for (std::size_t i = 0; i < series->size(); ++i) {
    const trace::TimeSec t = series->time_at(i);
    while (event_pos < machine_events.size() &&
           machine_events[event_pos].time <= t) {
      const trace::TaskEvent& e = machine_events[event_pos];
      if (e.type == trace::TaskEventType::kFinish) {
        ++finished;
      } else if (trace::is_abnormal(e.type)) {
        ++abnormal;
      }
      ++event_pos;
    }
    qs.add_row({util::to_days(t), static_cast<double>(series->pending(i)),
                static_cast<double>(series->running(i)),
                static_cast<double>(finished),
                static_cast<double>(abnormal)});
  }
  report.queue_figure.series.push_back(std::move(qs));

  // Task-event timeline (Fig 8a): slot = per-machine task ordinal.
  report.events_figure.id = "fig08a";
  report.events_figure.title =
      "Task events on machine " + std::to_string(report.machine_id) +
      " (Fig 8a)";
  Series ev;
  ev.name = "task_events";
  ev.column_names = {"time_day", "task_slot", "event_code"};
  std::map<std::pair<std::int64_t, std::int32_t>, std::size_t> slots;
  for (const trace::TaskEvent& e : machine_events) {
    const auto key = std::make_pair(e.job_id, e.task_index);
    const auto [it, inserted] = slots.try_emplace(key, slots.size());
    ev.add_row({util::to_days(e.time), static_cast<double>(it->second),
                static_cast<double>(e.type)});
  }
  report.events_figure.series.push_back(std::move(ev));

  // Cluster-wide completion mix.
  std::int64_t n_finish = 0, n_fail = 0, n_kill = 0, n_evict = 0, n_lost = 0;
  for (const trace::TaskEvent& e : trace.events()) {
    switch (e.type) {
      case trace::TaskEventType::kFinish:
        ++n_finish;
        break;
      case trace::TaskEventType::kFail:
        ++n_fail;
        break;
      case trace::TaskEventType::kKill:
        ++n_kill;
        break;
      case trace::TaskEventType::kEvict:
        ++n_evict;
        break;
      case trace::TaskEventType::kLost:
        ++n_lost;
        break;
      default:
        break;
    }
  }
  const std::int64_t total = n_finish + n_fail + n_kill + n_evict + n_lost;
  const std::int64_t abn = total - n_finish;
  report.total_completions = total;
  if (total > 0) {
    report.abnormal_fraction =
        static_cast<double>(abn) / static_cast<double>(total);
  }
  if (abn > 0) {
    report.fail_share_of_abnormal =
        static_cast<double>(n_fail) / static_cast<double>(abn);
    report.kill_share_of_abnormal =
        static_cast<double>(n_kill) / static_cast<double>(abn);
    report.evict_share_of_abnormal =
        static_cast<double>(n_evict) / static_cast<double>(abn);
    report.lost_share_of_abnormal =
        static_cast<double>(n_lost) / static_cast<double>(abn);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Fig 9
// ---------------------------------------------------------------------------

QueueRunMassCount analyze_queue_run_mass_count(const TraceSet& trace) {
  constexpr int kBucketWidth = 10;
  constexpr int kNumBuckets = 6;  // [0,9] ... [50,inf)
  using BucketDurations = std::array<std::vector<double>, kNumBuckets>;

  const auto host_load = trace.host_load();
  // Ordered reduce (partials append in chunk order) keeps each bucket's
  // run list in machine order at any thread count.
  const BucketDurations durations = exec::parallel_reduce(
      0, host_load.size(), BucketDurations{},
      [&](std::size_t lo, std::size_t hi) {
        BucketDurations local;
        std::vector<std::int64_t> bucketed;
        for (std::size_t m = lo; m < hi; ++m) {
          const HostLoadSeries& h = host_load[m];
          bucketed.clear();
          bucketed.reserve(h.size());
          for (std::size_t i = 0; i < h.size(); ++i) {
            bucketed.push_back(
                std::min<std::int64_t>(h.running(i) / kBucketWidth,
                                       kNumBuckets - 1));
          }
          for (const auto& run : stats::state_runs(bucketed, h.period())) {
            local[run.level].push_back(util::to_minutes(run.duration));
          }
        }
        return local;
      },
      [](BucketDurations& acc, BucketDurations&& part) {
        for (int b = 0; b < kNumBuckets; ++b) {
          auto& dst = acc[static_cast<std::size_t>(b)];
          auto& src = part[static_cast<std::size_t>(b)];
          dst.insert(dst.end(), src.begin(), src.end());
        }
      },
      /*grain=*/1);

  QueueRunMassCount out;
  out.figure.id = "fig09";
  out.figure.title =
      "Mass-count of durations in unchanged queuing state (Fig 9)";
  for (int b = 0; b < kNumBuckets; ++b) {
    const auto& d = durations[static_cast<std::size_t>(b)];
    QueueRunMassCount::Bucket bucket;
    bucket.lo = b * kBucketWidth;
    bucket.hi = b == kNumBuckets - 1 ? -1 : (b + 1) * kBucketWidth - 1;
    bucket.num_runs = d.size();
    if (d.size() >= 10) {
      const stats::MassCount mc(d);
      bucket.mass_count = mc.disparity();
      Series s;
      char name[64];
      if (bucket.hi < 0) {
        std::snprintf(name, sizeof(name), "running_%d_plus", bucket.lo);
      } else {
        std::snprintf(name, sizeof(name), "running_%d_%d", bucket.lo,
                      bucket.hi);
      }
      s.name = name;
      s.column_names = {"duration_min", "count_cdf", "mass_cdf"};
      for (const auto& row : mc.plot()) {
        s.add_row({row[0], row[1], row[2]});
      }
      out.figure.series.push_back(std::move(s));
      char note[160];
      std::snprintf(note, sizeof(note),
                    "[%d,%s]: joint ratio=%.0f/%.0f mm-dist=%.0f min (%zu runs)",
                    bucket.lo, bucket.hi < 0 ? "inf" : std::to_string(bucket.hi).c_str(),
                    bucket.mass_count.joint_ratio_mass,
                    bucket.mass_count.joint_ratio_count,
                    bucket.mass_count.mm_distance, d.size());
      out.figure.annotations.push_back(note);
    }
    out.buckets.push_back(bucket);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fig 10
// ---------------------------------------------------------------------------

Figure analyze_usage_snapshot(const TraceSet& trace, Metric metric,
                              PriorityBand min_band,
                              std::size_t num_machines,
                              std::size_t time_stride) {
  Figure fig;
  char id[64];
  std::snprintf(id, sizeof(id), "fig10_%s_%s",
                std::string(metric_name(metric)).c_str(),
                std::string(trace::band_name(min_band)).c_str());
  fig.id = id;
  fig.title = std::string("Usage-level snapshot: ") +
              std::string(metric_name(metric)) + " usage, bands >= " +
              std::string(trace::band_name(min_band)) + " (Fig 10)";
  const auto host_load = trace.host_load();
  const std::size_t count = std::min(num_machines, host_load.size());
  CGC_CHECK_MSG(count > 0, "no machines to snapshot");
  const std::size_t stride = std::max<std::size_t>(1, host_load.size() / count);

  Series s;
  s.name = "levels";
  s.column_names = {"time_day", "machine", "level"};
  std::size_t row_index = 0;
  for (std::size_t m = 0; m < host_load.size() && row_index < count;
       m += stride, ++row_index) {
    const HostLoadSeries& h = host_load[m];
    const std::vector<double> rel =
        relative_series(trace, h, metric, min_band);
    for (std::size_t i = 0; i < rel.size(); i += time_stride) {
      s.add_row({util::to_days(h.time_at(i)),
                 static_cast<double>(row_index),
                 static_cast<double>(stats::usage_level(rel[i]))});
    }
  }
  fig.series.push_back(std::move(s));
  return fig;
}

// ---------------------------------------------------------------------------
// Tables II / III
// ---------------------------------------------------------------------------

LevelDurationTable analyze_level_durations(const TraceSet& trace,
                                           Metric metric,
                                           PriorityBand min_band) {
  constexpr std::size_t kLevels = 5;
  using LevelDurations = std::array<std::vector<double>, kLevels>;

  const auto host_load = trace.host_load();
  const LevelDurations durations = exec::parallel_reduce(
      0, host_load.size(), LevelDurations{},
      [&](std::size_t lo, std::size_t hi) {
        LevelDurations local;
        for (std::size_t m = lo; m < hi; ++m) {
          const HostLoadSeries& h = host_load[m];
          if (h.empty()) {
            continue;
          }
          const std::vector<double> rel =
              relative_series(trace, h, metric, min_band);
          for (const auto& run :
               stats::level_runs(rel, kLevels, h.period())) {
            local[run.level].push_back(util::to_minutes(run.duration));
          }
        }
        return local;
      },
      [](LevelDurations& acc, LevelDurations&& part) {
        for (std::size_t l = 0; l < kLevels; ++l) {
          acc[l].insert(acc[l].end(), part[l].begin(), part[l].end());
        }
      },
      /*grain=*/1);

  LevelDurationTable table;
  table.metric = metric;
  table.min_band = min_band;
  for (std::size_t l = 0; l < kLevels; ++l) {
    LevelDurationRow& row = table.rows[l];
    row.level = l;
    row.num_runs = durations[l].size();
    if (durations[l].empty()) {
      continue;
    }
    const auto summary =
        stats::summarize(std::span<const double>(durations[l]));
    row.avg_minutes = summary.mean();
    row.max_minutes = summary.max();
    if (durations[l].size() >= 10) {
      const auto mc = stats::MassCount(durations[l]).disparity();
      row.joint_ratio_mass = mc.joint_ratio_mass;
      row.joint_ratio_count = mc.joint_ratio_count;
      row.mm_distance_minutes = mc.mm_distance;
    }
  }
  return table;
}

std::string LevelDurationTable::render() const {
  util::AsciiTable table({"usage level", "avg (min)", "max (min)",
                          "joint ratio", "mm-dist (min)", "#runs"});
  table.set_caption(
      std::string("Continuous duration of unchanged ") +
      std::string(metric_name(metric)) + " usage level (bands >= " +
      std::string(trace::band_name(min_band)) + ")");
  static const char* kLevelNames[5] = {"[0,0.2)", "[0.2,0.4)", "[0.4,0.6)",
                                       "[0.6,0.8)", "[0.8,1]"};
  for (const LevelDurationRow& row : rows) {
    table.add_row(
        {kLevelNames[row.level], util::cell(row.avg_minutes, 3),
         util::cell(row.max_minutes, 5),
         util::cell_ratio(row.joint_ratio_mass, row.joint_ratio_count),
         util::cell(row.mm_distance_minutes, 3),
         util::cell_int(static_cast<long long>(row.num_runs))});
  }
  return table.render();
}

// ---------------------------------------------------------------------------
// Figs 11 / 12
// ---------------------------------------------------------------------------

UsageMassCountReport analyze_usage_mass_count(const TraceSet& trace,
                                              Metric metric,
                                              PriorityBand min_band) {
  const auto host_load = trace.host_load();
  const std::vector<double> usage = exec::parallel_reduce(
      0, host_load.size(), std::vector<double>{},
      [&](std::size_t lo, std::size_t hi) {
        std::vector<double> local;
        for (std::size_t m = lo; m < hi; ++m) {
          const std::vector<double> rel =
              relative_series(trace, host_load[m], metric, min_band);
          local.insert(local.end(), rel.begin(), rel.end());
        }
        return local;
      },
      [](std::vector<double>& acc, std::vector<double>&& part) {
        acc.insert(acc.end(), part.begin(), part.end());
      },
      /*grain=*/1);
  CGC_CHECK_MSG(!usage.empty(), "no usage samples");

  UsageMassCountReport report;
  report.metric = metric;
  report.min_band = min_band;
  report.mean_usage =
      stats::summarize(std::span<const double>(usage)).mean();
  // Zero samples have no mass; keep a floor so the mass CDF is defined.
  std::vector<double> positive = usage;
  std::erase_if(positive, [](double v) { return v <= 0.0; });
  CGC_CHECK_MSG(!positive.empty(), "all-zero usage");
  const stats::MassCount mc(std::move(positive));
  report.result = mc.disparity();

  const bool is_cpu = metric == Metric::kCpu;
  const bool all_bands = min_band == PriorityBand::kLow;
  report.figure.id = std::string(is_cpu ? "fig11" : "fig12") +
                     (all_bands ? "a" : "b");
  report.figure.title =
      std::string("Mass-count disparity of ") +
      std::string(metric_name(metric)) + " usage, " +
      (all_bands ? "all tasks" : "high-priority tasks") +
      (is_cpu ? " (Fig 11)" : " (Fig 12)");
  Series s;
  s.name = "mass_count";
  s.column_names = {"usage", "count_cdf", "mass_cdf"};
  for (const auto& row : mc.plot()) {
    s.add_row({row[0], row[1], row[2]});
  }
  report.figure.series.push_back(std::move(s));
  char note[160];
  std::snprintf(note, sizeof(note),
                "joint ratio=%.0f/%.0f mm-dist=%.0f%% mean usage=%.0f%%",
                report.result.joint_ratio_mass,
                report.result.joint_ratio_count,
                report.result.mm_distance * 100.0,
                report.mean_usage * 100.0);
  report.figure.annotations.push_back(note);
  return report;
}

// ---------------------------------------------------------------------------
// Fig 13
// ---------------------------------------------------------------------------

HostLoadComparison analyze_hostload_comparison(
    std::span<const trace::TraceSet* const> traces,
    std::size_t mean_filter_window) {
  HostLoadComparison comparison;
  for (const TraceSet* trace : traces) {
    HostLoadSystemStats sys;
    sys.system = trace->system_name();
    const auto host_load = trace->host_load();
    CGC_CHECK_MSG(!host_load.empty(),
                  "trace " + sys.system + " has no host load");

    std::vector<double> per_host_noise(host_load.size(), 0.0);
    std::vector<double> per_host_autocorr(host_load.size(), 0.0);
    // Map chunks fill disjoint per-host slots; the RunningStats pair
    // merges in chunk order so cluster-wide means are deterministic.
    using StatsPair = std::pair<stats::RunningStats, stats::RunningStats>;
    const StatsPair usage_stats = exec::parallel_reduce(
        0, host_load.size(), StatsPair{},
        [&](std::size_t lo, std::size_t hi) {
          StatsPair local;
          for (std::size_t m = lo; m < hi; ++m) {
            const std::vector<double> cpu = relative_series(
                *trace, host_load[m], Metric::kCpu, PriorityBand::kLow);
            const std::vector<double> mem = relative_series(
                *trace, host_load[m], Metric::kMem, PriorityBand::kLow);
            per_host_noise[m] =
                stats::noise_after_mean_filter(cpu, mean_filter_window)
                    .mean_abs;
            per_host_autocorr[m] = stats::autocorrelation(cpu, 1);
            for (const double v : cpu) {
              local.first.add(v);
            }
            for (const double v : mem) {
              local.second.add(v);
            }
          }
          return local;
        },
        [](StatsPair& acc, StatsPair&& part) {
          acc.first.merge(part.first);
          acc.second.merge(part.second);
        },
        /*grain=*/1);
    const stats::RunningStats& cpu_stats = usage_stats.first;
    const stats::RunningStats& mem_stats = usage_stats.second;

    const auto noise_summary =
        stats::summarize(std::span<const double>(per_host_noise));
    sys.noise_min = noise_summary.min();
    sys.noise_mean = noise_summary.mean();
    sys.noise_max = noise_summary.max();
    sys.mean_autocorrelation =
        stats::summarize(std::span<const double>(per_host_autocorr)).mean();
    sys.mean_cpu_usage = cpu_stats.mean();
    sys.mean_mem_usage = mem_stats.mean();

    // Representative machine: median mean-CPU machine.
    std::vector<std::pair<double, std::size_t>> by_usage;
    by_usage.reserve(host_load.size());
    for (std::size_t m = 0; m < host_load.size(); ++m) {
      const std::vector<double> cpu = relative_series(
          *trace, host_load[m], Metric::kCpu, PriorityBand::kLow);
      by_usage.emplace_back(
          stats::summarize(std::span<const double>(cpu)).mean(), m);
    }
    std::sort(by_usage.begin(), by_usage.end());
    const std::size_t mid = by_usage[by_usage.size() / 2].second;
    const HostLoadSeries& h = host_load[mid];
    sys.series_figure.id = "fig13_" + sanitize_name(sys.system);
    sys.series_figure.title =
        "Host load over time — " + sys.system + " (Fig 13)";
    Series s;
    s.name = "host_load";
    s.column_names = {"time_day", "cpu_usage", "mem_usage"};
    const std::vector<double> cpu =
        relative_series(*trace, h, Metric::kCpu, PriorityBand::kLow);
    const std::vector<double> mem =
        relative_series(*trace, h, Metric::kMem, PriorityBand::kLow);
    for (std::size_t i = 0; i < cpu.size(); ++i) {
      s.add_row({util::to_days(h.time_at(i)), cpu[i], mem[i]});
    }
    sys.series_figure.series.push_back(std::move(s));
    comparison.systems.push_back(std::move(sys));
  }

  if (comparison.systems.size() >= 2) {
    double grid_noise = 0.0;
    for (std::size_t i = 1; i < comparison.systems.size(); ++i) {
      grid_noise += comparison.systems[i].noise_mean;
    }
    grid_noise /= static_cast<double>(comparison.systems.size() - 1);
    if (grid_noise > 0.0) {
      comparison.cloud_to_grid_noise_ratio =
          comparison.systems[0].noise_mean / grid_noise;
    }
  }
  return comparison;
}

std::string HostLoadComparison::render() const {
  util::AsciiTable table({"system", "noise min", "noise mean", "noise max",
                          "autocorr(1)", "mean cpu", "mean mem"});
  table.set_caption("Host-load comparison (Fig 13)");
  for (const HostLoadSystemStats& s : systems) {
    table.add_row({s.system, util::cell(s.noise_min, 2),
                   util::cell(s.noise_mean, 3), util::cell(s.noise_max, 3),
                   util::cell(s.mean_autocorrelation, 3),
                   util::cell_pct(s.mean_cpu_usage),
                   util::cell_pct(s.mean_mem_usage)});
  }
  std::string out = table.render();
  if (cloud_to_grid_noise_ratio > 0.0) {
    out += "cloud/grid mean-noise ratio: " +
           util::cell(cloud_to_grid_noise_ratio, 3) + "\n";
  }
  return out;
}

}  // namespace cgc::analysis
