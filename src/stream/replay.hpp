// Event-stream sources for the online daemon.
//
// The SlidingWindow engine consumes trace::TaskEvent batches; this
// module turns the two kinds of input cgcd accepts into that shape:
//
//   * a loaded TraceSet (any cgc::trace::Loader format) — replayed via
//     synthesize_events(), which uses the trace's own event log when it
//     has one and otherwise reconstructs the SUBMIT/SCHEDULE/terminal
//     triple per task record (generator workloads carry tasks but no
//     event rows);
//   * a pipe of Google clusterdata task_events rows on stdin — read in
//     blocks, parsed row by row with the trace reader's row grammar,
//     malformed rows counted into StreamHealth and never fatal.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string_view>
#include <vector>

#include "stream/window.hpp"
#include "trace/trace_set.hpp"

namespace cgc::stream {

/// Builds a time-sorted event stream from `trace`. The trace's own
/// events are used verbatim when present (finalize() already sorted
/// them); otherwise events are synthesized from the task records.
/// Synthesis emits one submit/schedule/terminal cycle per task —
/// resubmission cycles are not reconstructed (the Task record only
/// keeps their count), so replayed queue depths are a lower bound for
/// traces with evictions.
std::vector<trace::TaskEvent> synthesize_events(const trace::TraceSet& trace);

/// Parses one Google clusterdata task_events row (13 columns, of which
/// the first 9 are read: time in microseconds, event codes 0-8, file
/// priorities 0-11 shifted to the paper's 1-12). Returns false and
/// leaves *event unspecified on a malformed row. Never throws. The
/// grammar is trace::parse_task_event_row's, shared with the trace-file
/// reader; the line is taken as is (a trailing '\r' is data).
bool parse_google_event_line(std::string_view line, trace::TaskEvent* event);

/// Streams Google-format task-event rows from `in` (typically a pipe),
/// delivering batches of up to `batch_size` events to `sink`. Lines are
/// framed by util::LineReader (1 MiB blocks, std::getline's rules: '\r'
/// is kept, an unterminated last line counts); empty lines and lines
/// starting with '#' are skipped. Malformed rows are skipped and counted
/// into health->parse_bad_lines (never fatal — the daemon's degraded-
/// ingest contract); a batch's bad lines are counted before its sink
/// call. Returns the number of events delivered.
///
/// Reading and ingest overlap (exec::overlap): while `sink` handles
/// batch k, the calling thread reads and parses batch k+1.
///   * `sink` may run on a pool worker; calls are serialized and in
///     order. Each call happens-before the next one and before this
///     function returns, and the batches (contents and sizes) are those
///     of a serial read-then-ingest loop.
///   * `in` is read only on the calling thread. Pool workers block
///     SIGTERM/SIGINT (util::ThreadPool), so when the caller is the only
///     other thread, as in cgcd, those signals interrupt its blocked
///     read.
///   * shutdown_requested() is polled before every line: once it is up,
///     the partial batch is delivered and reading stops. If it is up
///     when a sink call returns, the batch read ahead is dropped and no
///     further call is made, so a SIGTERM'd daemon can spill the open
///     window and exit.
///   * If `sink` throws, no further call is made and the exception
///     reaches the caller once the read in flight returns: reading ahead
///     stops at the next line, but a read(2) blocked on an idle pipe
///     keeps the error until a line, the end of input or a signal
///     arrives.
std::uint64_t read_event_stream(
    std::istream& in, std::size_t batch_size,
    const std::function<void(std::span<const trace::TaskEvent>)>& sink,
    StreamHealth* health);

}  // namespace cgc::stream
