#include "stream/replay.hpp"

#include <algorithm>
#include <atomic>
#include <istream>
#include <tuple>

#include "exec/parallel.hpp"
#include "stream/shutdown.hpp"
#include "trace/google_format.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"

namespace cgc::stream {

namespace {

/// Stream sort order: time, then stable identity, then lifecycle order
/// (SUBMIT < SCHEDULE < terminals) so a task's same-second events
/// replay in state-machine order.
bool event_before(const trace::TaskEvent& a, const trace::TaskEvent& b) {
  return std::tuple(a.time, a.job_id, a.task_index,
                    static_cast<int>(a.type)) <
         std::tuple(b.time, b.job_id, b.task_index, static_cast<int>(b.type));
}

}  // namespace

std::vector<trace::TaskEvent> synthesize_events(
    const trace::TraceSet& trace) {
  std::vector<trace::TaskEvent> events;
  if (!trace.events().empty()) {
    events.assign(trace.events().begin(), trace.events().end());
    return events;
  }
  events.reserve(trace.tasks().size() * 3);
  for (const trace::Task& task : trace.tasks()) {
    trace::TaskEvent base;
    base.job_id = task.job_id;
    base.task_index = task.task_index;
    base.priority = task.priority;
    base.machine_id = -1;

    trace::TaskEvent submit = base;
    submit.time = task.submit_time;
    submit.type = trace::TaskEventType::kSubmit;
    events.push_back(submit);

    if (task.schedule_time >= 0) {
      trace::TaskEvent schedule = base;
      schedule.time = task.schedule_time;
      schedule.type = trace::TaskEventType::kSchedule;
      schedule.machine_id = task.machine_id;
      events.push_back(schedule);
    }
    if (task.end_time >= 0) {
      trace::TaskEvent end = base;
      end.time = task.end_time;
      end.type = task.end_event;
      end.machine_id = task.machine_id;
      events.push_back(end);
    }
  }
  exec::parallel_sort(&events, event_before);
  return events;
}

bool parse_google_event_line(std::string_view line,
                             trace::TaskEvent* event) {
  return trace::parse_task_event_row(line, event);
}

std::uint64_t read_event_stream(
    std::istream& in, std::size_t batch_size,
    const std::function<void(std::span<const trace::TaskEvent>)>& sink,
    StreamHealth* health) {
  CGC_CHECK(batch_size > 0);
  util::LineReader lines(in);
  // Raised by a sink call that throws, so the batch being read ahead
  // stops at the next line instead of waiting for batch_size rows.
  std::atomic<bool> sink_failed{false};
  // Fills *batch with the next batch_size rows (fewer at the end of the
  // input, once a shutdown is requested or once a sink call failed);
  // returns the bad lines met.
  const auto parse_batch = [&](std::vector<trace::TaskEvent>* batch) {
    batch->clear();
    std::uint64_t bad_lines = 0;
    std::string_view line;
    while (batch->size() < batch_size && !shutdown_requested() &&
           !sink_failed.load(std::memory_order_relaxed) &&
           lines.next(&line)) {
      if (line.empty() || line[0] == '#') {
        continue;
      }
      trace::TaskEvent event;
      if (trace::parse_task_event_row(line, &event)) {
        batch->push_back(event);
      } else {
        ++bad_lines;
      }
    }
    return bad_lines;
  };

  // Pipelined: while the sink ingests batch k on a pool worker, this
  // thread reads and parses batch k+1. Sink calls stay serialized and in
  // order, and each batch's bad lines are counted before its sink call,
  // so a sink sees what a serial read-then-ingest loop would show it.
  std::vector<trace::TaskEvent> batch;
  std::vector<trace::TaskEvent> ahead;
  batch.reserve(batch_size);
  ahead.reserve(batch_size);
  std::uint64_t delivered = 0;
  std::uint64_t bad_lines = parse_batch(&batch);
  for (;;) {
    if (health != nullptr) {
      health->parse_bad_lines += bad_lines;
    }
    if (batch.empty()) {
      return delivered;
    }
    bool stop = false;
    exec::overlap([&] { bad_lines = parse_batch(&ahead); },
                  [&] {
                    try {
                      sink(batch);
                    } catch (...) {
                      sink_failed.store(true, std::memory_order_relaxed);
                      throw;
                    }
                    stop = shutdown_requested();
                  });
    delivered += batch.size();
    if (stop) {
      return delivered;  // a shutdown during this call drops `ahead`
    }
    batch.swap(ahead);
  }
}

}  // namespace cgc::stream
