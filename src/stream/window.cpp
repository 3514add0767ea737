#include "stream/window.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <limits>
#include <map>
#include <ostream>
#include <utility>

#include "exec/parallel.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace cgc::stream {

namespace {

template <typename T>
void append_pod(std::string* out, const T& value) {
  const char* bytes = reinterpret_cast<const char*>(&value);
  out->append(bytes, sizeof(T));
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// JSON fragment for one StreamingEcdf: summary quantiles plus plot
/// points. Doubles are streamed at 12 significant digits — more than
/// the CI tolerance needs, few enough to keep query output small.
void write_sketch_json(std::ostream& out, const StreamingEcdf& sketch,
                       std::size_t max_points) {
  out << "{\"count\": " << sketch.count()
      << ", \"relative_error\": " << sketch.relative_error()
      << ", \"min\": " << sketch.min() << ", \"max\": " << sketch.max()
      << ", \"mean\": " << sketch.mean()
      << ", \"p50\": " << sketch.quantile(0.50)
      << ", \"p90\": " << sketch.quantile(0.90)
      << ", \"p99\": " << sketch.quantile(0.99) << ", \"points\": [";
  const auto points = sketch.plot_points(max_points);
  const char* sep = "";
  for (const auto& [value, f] : points) {
    out << sep << "[" << value << ", " << f << "]";
    sep = ", ";
  }
  out << "]}";
}

}  // namespace

std::uint64_t event_fault_key(const trace::TaskEvent& event) {
  std::uint64_t h = splitmix64(static_cast<std::uint64_t>(event.time));
  h = splitmix64(h ^ static_cast<std::uint64_t>(event.job_id));
  h = splitmix64(h ^ static_cast<std::uint32_t>(event.task_index));
  h = splitmix64(h ^ ((static_cast<std::uint64_t>(event.type) << 8) |
                      event.priority));
  return h;
}

void StreamHealth::merge(const StreamHealth& other) {
  late_dropped += other.late_dropped;
  late_absorbed += other.late_absorbed;
  faults_dropped += other.faults_dropped;
  faults_duplicated += other.faults_duplicated;
  parse_bad_lines += other.parse_bad_lines;
}

// ---------------------------------------------------------------------------
// WindowStats
// ---------------------------------------------------------------------------

WindowStats::WindowStats(const WindowConfig& config)
    : job_length(config.relative_error),
      task_length(config.relative_error),
      submit_gap(config.relative_error),
      host_load(config.relative_error),
      rate_bins(config.rate_bins, 0) {}

double WindowStats::noise_dispersion() const {
  if (rate_bins.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const std::int64_t c : rate_bins) {
    sum += static_cast<double>(c);
  }
  if (sum == 0.0) {
    return 0.0;
  }
  const double mean = sum / static_cast<double>(rate_bins.size());
  double m2 = 0.0;
  for (const std::int64_t c : rate_bins) {
    const double d = static_cast<double>(c) - mean;
    m2 += d * d;
  }
  const double variance = m2 / static_cast<double>(rate_bins.size());
  return variance / mean;
}

double WindowStats::noise_cv() const {
  if (rate_bins.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const std::int64_t c : rate_bins) {
    sum += static_cast<double>(c);
  }
  if (sum == 0.0) {
    return 0.0;
  }
  const double mean = sum / static_cast<double>(rate_bins.size());
  double m2 = 0.0;
  for (const std::int64_t c : rate_bins) {
    const double d = static_cast<double>(c) - mean;
    m2 += d * d;
  }
  return std::sqrt(m2 / static_cast<double>(rate_bins.size())) / mean;
}

void WindowStats::append_state(std::string* out) const {
  CGC_CHECK(out != nullptr);
  append_pod(out, index);
  append_pod(out, start);
  append_pod(out, end);
  events.append_state(out);
  job_length.append_state(out);
  task_length.append_state(out);
  submit_gap.append_state(out);
  submit_gap_moments.append_state(out);
  job_length_probe.append_state(out);
  host_load.append_state(out);
  append_pod(out, static_cast<std::uint64_t>(rate_bins.size()));
  for (const std::int64_t c : rate_bins) {
    append_pod(out, c);
  }
  append_pod(out, pending_at_close);
  append_pod(out, running_at_close);
  append_pod(out, hosts_seen);
}

void WindowStats::write_json(std::ostream& out,
                             const std::string& metric) const {
  const auto previous_precision = out.precision(12);
  const bool all = metric == "all";
  out << "{\"window\": {\"index\": " << index << ", \"start\": " << start
      << ", \"end\": " << end << ", \"closed\": " << (closed ? "true" : "false")
      << ", \"events\": " << events.total() << "}";
  if (all || metric == "priority_mix") {
    const std::int64_t submits = events.total(trace::TaskEventType::kSubmit);
    out << ",\n \"priority_mix\": {\"submits\": " << submits << ", \"bands\": {";
    const char* sep = "";
    for (std::size_t b = 0; b < trace::kNumBands; ++b) {
      const auto band = static_cast<trace::PriorityBand>(b);
      const std::int64_t n = events.submits_in_band(band);
      const double frac =
          submits == 0 ? 0.0
                       : static_cast<double>(n) / static_cast<double>(submits);
      out << sep << "\"" << trace::band_name(band) << "\": " << frac;
      sep = ", ";
    }
    out << "}, \"per_priority\": [";
    sep = "";
    for (int p = trace::kMinPriority; p <= trace::kMaxPriority; ++p) {
      out << sep << events.count(p, trace::TaskEventType::kSubmit);
      sep = ", ";
    }
    out << "]}";
  }
  if (all || metric == "job_cdf") {
    out << ",\n \"job_cdf\": ";
    write_sketch_json(out, job_length, 128);
    out << ",\n \"job_probe\": {";
    const char* sep = "";
    for (std::size_t i = 0; i < job_length_probe.probes().size(); ++i) {
      out << sep << "\"p" << static_cast<int>(job_length_probe.probes()[i] * 100)
          << "\": " << job_length_probe.estimate(i);
      sep = ", ";
    }
    out << "}";
  }
  if (all || metric == "task_cdf") {
    out << ",\n \"task_cdf\": ";
    write_sketch_json(out, task_length, 128);
  }
  if (all || metric == "submission") {
    out << ",\n \"submission\": {\"count\": " << submit_gap.count()
        << ", \"mean_gap_s\": " << submit_gap_moments.mean()
        << ", \"stddev_s\": " << submit_gap_moments.stddev()
        << ", \"min_s\": " << submit_gap_moments.min()
        << ", \"max_s\": " << submit_gap_moments.max()
        << ", \"p50\": " << submit_gap.quantile(0.50)
        << ", \"p90\": " << submit_gap.quantile(0.90)
        << ", \"p99\": " << submit_gap.quantile(0.99) << "}";
  }
  if (all || metric == "host_load") {
    out << ",\n \"host_load\": {\"hosts\": " << hosts_seen << ", \"sketch\": ";
    write_sketch_json(out, host_load, 128);
    out << "}";
  }
  if (all || metric == "queue") {
    const std::int64_t terminals = events.terminals();
    const std::int64_t abnormal = events.abnormal_terminals();
    out << ",\n \"queue\": {\"pending\": " << pending_at_close
        << ", \"running\": " << running_at_close
        << ", \"submits\": " << events.total(trace::TaskEventType::kSubmit)
        << ", \"schedules\": " << events.total(trace::TaskEventType::kSchedule)
        << ", \"terminals\": " << terminals << ", \"abnormal\": " << abnormal
        << ", \"abnormal_fraction\": "
        << (terminals == 0 ? 0.0
                           : static_cast<double>(abnormal) /
                                 static_cast<double>(terminals))
        << "}";
  }
  if (all || metric == "noise") {
    std::int64_t submits = 0;
    for (const std::int64_t c : rate_bins) {
      submits += c;
    }
    out << ",\n \"noise\": {\"bins\": " << rate_bins.size()
        << ", \"submits\": " << submits << ", \"mean_per_bin\": "
        << (rate_bins.empty()
                ? 0.0
                : static_cast<double>(submits) /
                      static_cast<double>(rate_bins.size()))
        << ", \"dispersion\": " << noise_dispersion()
        << ", \"cv\": " << noise_cv() << "}";
  }
  out << "}\n";
  out.precision(previous_precision);
}

// ---------------------------------------------------------------------------
// SlidingWindow
// ---------------------------------------------------------------------------

/// Count-only deltas one parallel chunk accumulates for one window.
struct SlidingWindow::WindowDelta {
  CounterBank bank;
  std::vector<std::int64_t> bins;
};

/// One chunk's (or the merged batch's) parallel-phase result. The map is
/// ordered so the fold over windows is canonical.
struct SlidingWindow::BatchPartial {
  std::map<std::int64_t, WindowDelta> windows;
};

SlidingWindow::SlidingWindow(WindowConfig config) : config_(config) {
  if (config_.slide == 0) {
    config_.slide = config_.width;
  }
  CGC_CHECK_MSG(config_.width > 0, "window width must be positive");
  CGC_CHECK_MSG(config_.slide > 0 && config_.width % config_.slide == 0,
                "window width must be a multiple of the slide");
  CGC_CHECK_MSG(config_.watermark_lag >= 0, "watermark lag must be >= 0");
  CGC_CHECK_MSG(config_.rate_bins > 0, "need at least one rate bin");
  // Validates the sketch error bound eagerly (same check as the sketches).
  (void)stats::bucketing::log_gamma_for_error(config_.relative_error);
}

std::int64_t SlidingWindow::first_window_of(TimeSec t) const {
  const std::int64_t last = window_of(t);
  const std::int64_t span = config_.width / config_.slide;
  return std::max<std::int64_t>(0, last - span + 1);
}

TimeSec SlidingWindow::watermark() const {
  if (!any_event_) {
    return std::numeric_limits<TimeSec>::min();
  }
  return max_event_time_ - config_.watermark_lag;
}

WindowStats& SlidingWindow::open_window(std::int64_t index) {
  if (!any_open_) {
    any_open_ = true;
    first_open_index_ = index;
  }
  CGC_CHECK_MSG(index >= first_open_index_,
                "open_window called for a closed window");
  while (first_open_index_ + static_cast<std::int64_t>(open_.size()) <=
         index) {
    const std::int64_t i =
        first_open_index_ + static_cast<std::int64_t>(open_.size());
    WindowStats ws(config_);
    ws.index = i;
    ws.start = i * config_.slide;
    ws.end = ws.start + config_.width;
    open_.push_back(std::move(ws));
    if (config_.keep_events) {
      open_events_.emplace_back();
    }
  }
  return open_[static_cast<std::size_t>(index - first_open_index_)];
}

void SlidingWindow::ingest(std::span<const trace::TaskEvent> events) {
  // Fault filter: deterministic per-event drop/duplicate injection,
  // keyed by a stable event hash so the damage set is identical at any
  // thread count and batching.
  std::vector<trace::TaskEvent> filtered;
  if (fault::armed()) {
    filtered.reserve(events.size());
    for (const trace::TaskEvent& event : events) {
      const std::uint64_t key = event_fault_key(event);
      if (fault::inject("stream.drop", key)) {
        ++health_.faults_dropped;
        continue;
      }
      filtered.push_back(event);
      if (fault::inject("stream.dup", key)) {
        ++health_.faults_duplicated;
        filtered.push_back(event);
      }
    }
    events = filtered;
  }
  if (events.empty()) {
    close_ready_windows();
    return;
  }
  events_ingested_ += events.size();
  if (obs::metrics_enabled()) {
    static obs::Counter& ingested = obs::counter("stream.events_ingested");
    ingested.add(events.size());
  }

  // Parallel phase: per-chunk CounterBank / rate-bin accumulators over
  // deterministic chunk boundaries, folded in chunk index order. All
  // integer adds — bit-identical at any CGC_THREADS.
  const TimeSec slide = config_.slide;
  const TimeSec width = config_.width;
  const std::size_t rate_bins = config_.rate_bins;
  BatchPartial batch = exec::parallel_reduce<BatchPartial>(
      0, events.size(), BatchPartial{},
      [&](std::size_t lo, std::size_t hi) {
        BatchPartial partial;
        for (std::size_t i = lo; i < hi; ++i) {
          const trace::TaskEvent& event = events[i];
          const TimeSec t = std::max<TimeSec>(0, event.time);
          const std::int64_t last = t / slide;
          const std::int64_t span_windows = width / slide;
          const std::int64_t first =
              std::max<std::int64_t>(0, last - span_windows + 1);
          for (std::int64_t w = first; w <= last; ++w) {
            WindowDelta& delta = partial.windows[w];
            delta.bank.add(event.priority, event.type);
            if (event.type == trace::TaskEventType::kSubmit) {
              if (delta.bins.empty()) {
                delta.bins.assign(rate_bins, 0);
              }
              const TimeSec rel = t - w * slide;
              const auto bin = static_cast<std::size_t>(std::min<std::int64_t>(
                  static_cast<std::int64_t>(rate_bins) - 1,
                  rel * static_cast<std::int64_t>(rate_bins) / width));
              ++delta.bins[bin];
            }
          }
        }
        return partial;
      },
      [](BatchPartial& acc, BatchPartial&& partial) {
        for (auto& [w, delta] : partial.windows) {
          WindowDelta& into = acc.windows[w];
          into.bank.merge(delta.bank);
          if (!delta.bins.empty()) {
            if (into.bins.empty()) {
              into.bins = std::move(delta.bins);
            } else {
              for (std::size_t b = 0; b < into.bins.size(); ++b) {
                into.bins[b] += delta.bins[b];
              }
            }
          }
        }
      });

  // Apply per-window deltas. A window that closed in a *previous* batch
  // makes its share of the delta late (per window-assignment — with
  // overlapping windows one event can be late for its oldest window and
  // on time for the rest).
  for (auto& [w, delta] : batch.windows) {
    if (any_open_ && w < first_open_index_) {
      const auto n = static_cast<std::uint64_t>(delta.bank.total());
      if (config_.late_policy == LatePolicy::kAbsorbOldest) {
        health_.late_absorbed += n;
        // Reassigned, not lost: counts land in the oldest open window
        // (its rate bins are left alone — noise reflects on-time
        // arrivals only).
        open_window(first_open_index_).events.merge(delta.bank);
      } else {
        health_.late_dropped += n;
        if (obs::metrics_enabled()) {
          static obs::Counter& late = obs::counter("stream.late_dropped");
          late.add(n);
        }
      }
      continue;
    }
    WindowStats& ws = open_window(w);
    ws.events.merge(delta.bank);
    if (!delta.bins.empty()) {
      for (std::size_t b = 0; b < ws.rate_bins.size(); ++b) {
        ws.rate_bins[b] += delta.bins[b];
      }
    }
  }

  // Sequential phase: the stateful task/job/host bookkeeping, in
  // arrival order. The watermark advances per event and windows close
  // the moment it passes their end, so the queue/host snapshot in a
  // closed window reflects the stream state at that point — not the
  // end of the batch.
  for (const trace::TaskEvent& event : events) {
    const TimeSec t = std::max<TimeSec>(0, event.time);
    if (!any_event_ || t > max_event_time_) {
      max_event_time_ = t;
      any_event_ = true;
      close_ready_windows();
    }
    apply_sequential(event);
  }
  if (obs::metrics_enabled()) {
    static obs::Gauge& open_windows = obs::gauge("stream.open_windows");
    open_windows.set(static_cast<std::int64_t>(open_.size()));
  }
}

void SlidingWindow::add_sample_to_windows(TimeSec t,
                                          StreamingEcdf WindowStats::*sketch,
                                          double value) {
  const std::int64_t last = window_of(t);
  for (std::int64_t w = first_window_of(t); w <= last; ++w) {
    if (any_open_ && w < first_open_index_) {
      continue;  // late for this window; the event counts already say so
    }
    (open_window(w).*sketch).add(value);
  }
}

void SlidingWindow::apply_sequential(const trace::TaskEvent& event) {
  const TimeSec t = std::max<TimeSec>(0, event.time);
  if (config_.keep_events) {
    const std::int64_t last = window_of(t);
    for (std::int64_t w = first_window_of(t); w <= last; ++w) {
      if (any_open_ && w < first_open_index_) {
        continue;
      }
      open_window(w);  // ensures the deques cover w
      open_events_[static_cast<std::size_t>(w - first_open_index_)].push_back(
          event);
    }
  }
  switch (event.type) {
    case trace::TaskEventType::kSubmit: {
      ++pending_;
      auto [job, inserted] = jobs_.try_emplace(event.job_id);
      if (inserted) {
        job->first_submit = t;
        if (last_job_submit_ >= 0) {
          const auto gap = static_cast<double>(
              std::max<TimeSec>(0, t - last_job_submit_));
          const std::int64_t last = window_of(t);
          for (std::int64_t w = first_window_of(t); w <= last; ++w) {
            if (any_open_ && w < first_open_index_) {
              continue;
            }
            WindowStats& ws = open_window(w);
            ws.submit_gap.add(gap);
            ws.submit_gap_moments.add(gap);
          }
        }
        last_job_submit_ = t;
      }
      ++job->live;
      break;
    }
    case trace::TaskEventType::kSchedule: {
      pending_ = std::max<std::int64_t>(0, pending_ - 1);
      ++running_;
      running_tasks_[trace::task_key_of(event)] =
          TaskRun{t, event.machine_id};
      if (event.machine_id >= 0) {
        ++host_running_[event.machine_id];
      }
      break;
    }
    case trace::TaskEventType::kUpdate:
      break;
    default: {  // terminal: EVICT/FAIL/FINISH/KILL/LOST
      const trace::TaskKey key = trace::task_key_of(event);
      if (const TaskRun* found = running_tasks_.find(key)) {
        const TaskRun run = *found;
        running_tasks_.erase(key);
        running_ = std::max<std::int64_t>(0, running_ - 1);
        add_sample_to_windows(
            t, &WindowStats::task_length,
            static_cast<double>(std::max<TimeSec>(0, t - run.schedule_time)));
        if (run.machine_id >= 0) {
          std::int64_t* host = host_running_.find(run.machine_id);
          if (host != nullptr && *host > 0) {
            --*host;
          }
        }
      } else {
        // Terminal without a live placement: the task died from pending
        // (or its SCHEDULE was lost); no run-duration sample.
        pending_ = std::max<std::int64_t>(0, pending_ - 1);
      }
      JobState* job = jobs_.find(event.job_id);
      if (job != nullptr && job->live > 0) {
        if (--job->live == 0) {
          const auto length = static_cast<double>(
              std::max<TimeSec>(0, t - job->first_submit));
          const std::int64_t last = window_of(t);
          for (std::int64_t w = first_window_of(t); w <= last; ++w) {
            if (any_open_ && w < first_open_index_) {
              continue;
            }
            WindowStats& ws = open_window(w);
            ws.job_length.add(length);
            ws.job_length_probe.add(length);
          }
        }
      }
      break;
    }
  }
}

void SlidingWindow::close_ready_windows() {
  const TimeSec wm = watermark();
  while (any_open_ && !open_.empty() && open_.front().end <= wm) {
    close_oldest();
  }
}

void SlidingWindow::close_oldest() {
  CGC_CHECK(!open_.empty());
  const std::uint64_t t0 = obs::metrics_enabled() ? obs::now_ns() : 0;
  WindowStats ws = std::move(open_.front());
  open_.pop_front();
  ++first_open_index_;
  std::vector<trace::TaskEvent> events;
  if (config_.keep_events) {
    events = std::move(open_events_.front());
    open_events_.pop_front();
  }

  // Snapshot queue and host state. Gauges are as-of the close, i.e. the
  // last ingest batch boundary at or past the window end — snapshot
  // granularity is the batch, documented in DESIGN §12.
  ws.pending_at_close = pending_;
  ws.running_at_close = running_;
  std::int64_t hosts = 0;
  // cgc-lint: allow(unordered-iteration) StreamingEcdf::add_n commutes —
  // integer bucket counts plus exact min/max — so the table's slot order
  // cannot reach the window state.
  for (const auto& [machine, running] : host_running_) {
    if (running > 0) {
      ++hosts;
      ws.host_load.add_n(static_cast<double>(running), 1);
    }
  }
  host_running_.erase_if(
      [](std::int64_t, std::int64_t running) { return running <= 0; });
  ws.hosts_seen = hosts;
  ws.closed = true;

  ++windows_closed_;
  if (spill_) {
    spill_(ws, events);
  }
  closed_.push_back(std::move(ws));
  while (closed_.size() > config_.max_closed_retained) {
    closed_.pop_front();
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& closed_count = obs::counter("stream.windows_closed");
    closed_count.add(1);
    static obs::Histogram& close_ns =
        obs::histogram("stream.window_close_ns");
    close_ns.observe(obs::now_ns() - t0);
  }
}

void SlidingWindow::flush() {
  while (!open_.empty()) {
    close_oldest();
  }
}

const WindowStats* SlidingWindow::latest() const {
  return closed_.empty() ? nullptr : &closed_.back();
}

const WindowStats* SlidingWindow::find(std::int64_t index) const {
  if (!closed_.empty() && index >= closed_.front().index &&
      index <= closed_.back().index) {
    return &closed_[static_cast<std::size_t>(index - closed_.front().index)];
  }
  if (any_open_ && index >= first_open_index_ &&
      index < first_open_index_ + static_cast<std::int64_t>(open_.size())) {
    return &open_[static_cast<std::size_t>(index - first_open_index_)];
  }
  return nullptr;
}

std::vector<const WindowStats*> SlidingWindow::open() const {
  std::vector<const WindowStats*> out;
  out.reserve(open_.size());
  for (const WindowStats& ws : open_) {
    out.push_back(&ws);
  }
  return out;
}

}  // namespace cgc::stream
