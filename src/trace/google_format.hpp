// Reader/writer for Google clusterdata-2011-style trace tables.
//
// Implements the documented column layout of the public Google
// cluster-usage trace (the trace the paper analyzes):
//
//   task_events (13 columns):
//     time(us), missing_info, job_id, task_index, machine_id, event_type,
//     user, scheduling_class, priority(0-11), cpu_request, mem_request,
//     disk_request, different_machines
//   machine_events (6 columns):
//     time(us), machine_id, event_type(0=ADD,1=REMOVE,2=UPDATE),
//     platform_id, cpu_capacity, mem_capacity
//
// plus a derived per-machine usage table of our own (the public trace
// reports usage per task; the paper's host-load analyses aggregate to
// machines, so we persist the aggregated form):
//
//   host_usage (12 columns):
//     machine_id, time(s), cpu_low, cpu_mid, cpu_high, mem_low, mem_mid,
//     mem_high, mem_assigned, page_cache, running_tasks, pending_tasks
//
// Event codes follow the clusterdata format: 0 SUBMIT, 1 SCHEDULE,
// 2 EVICT, 3 FAIL, 4 FINISH, 5 KILL, 6 LOST, 7/8 UPDATE. Priorities in
// the file are 0-11 and are shifted to the paper's 1-12 in memory.
#pragma once

#include <string>
#include <string_view>

#include "trace/parse_report.hpp"
#include "trace/trace_set.hpp"

namespace cgc::trace {

namespace detail {
/// Reads the three clusterdata tables back from `directory`. Tasks and
/// jobs are reconstructed from the event stream via the task state
/// machine: each terminal event closes a task record; jobs aggregate
/// their tasks. Files that are absent are skipped (a workload-only
/// directory may have no host_usage.csv). Honors `options` (tolerant
/// mode skips and accounts bad records into `report`, which aggregates
/// across the three tables; see parse_report.hpp). Called only by
/// trace::Loader (trace/loader.hpp), the public way to read a trace.
TraceSet read_google_trace_impl(const std::string& directory,
                                const std::string& system_name,
                                const ParseOptions& options,
                                ParseReport* report);
}  // namespace detail

/// Parses one task_events row in a single forward pass over its first 9
/// columns — the one row grammar behind both the trace-file reader and
/// the cgcd pipe (stream::parse_google_event_line). Time is divided from
/// microseconds to seconds, event codes 0-8 map to TaskEventType (7 and
/// 8 to kUpdate), file priorities 0-11 shift to 1-12, and an empty
/// machine column means -1. Integer columns accept exactly what
/// util::parse_int accepts. The row is taken as is: a '\r' before the
/// line end belongs to the last column.
///
/// Returns false on a malformed row, leaving *event unspecified; when
/// `error` is given it receives the reason: "task_events row too short
/// (truncated record?)" (checked first, whatever the columns hold), or
/// for the first bad column in order "bad integer field: '<text>'",
/// "unknown task event code <n>" or "priority out of range". Never
/// throws.
bool parse_task_event_row(std::string_view row, TaskEvent* event,
                          std::string* error = nullptr);

/// Writes trace.events() in clusterdata task_events layout.
void write_task_events(const TraceSet& trace, const std::string& path);

/// Writes trace.machines() in clusterdata machine_events layout
/// (a single ADD event per machine at time 0).
void write_machine_events(const TraceSet& trace, const std::string& path);

/// Writes trace.host_load() in the host_usage layout.
void write_host_usage(const TraceSet& trace, const std::string& path);

/// Convenience: writes all three tables into `directory` as
/// task_events.csv, machine_events.csv, host_usage.csv.
void write_google_trace(const TraceSet& trace, const std::string& directory);

/// Reconstructs per-task and per-job records from an event stream.
/// Exposed separately so tests can exercise the state-machine
/// reconstruction logic directly. Events must be time-sorted.
void rebuild_tasks_and_jobs(TraceSet* trace);

}  // namespace cgc::trace
