// Table tests for the Google task_events row grammar and the two readers
// that apply it: the streaming pipe reader (stream::read_event_stream /
// parse_google_event_line) and the trace-file reader behind
// trace::load_trace's Google CSV format. They pin field rules (which integer spellings
// parse, which rows are too short, event-code and priority ranges), line
// framing (comments, blank lines, CR handling, an unterminated last line,
// lines longer than any read buffer), batching, cooperative shutdown,
// identical deliveries under every pool size, and the tolerant-mode
// messages of the trace reader.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel.hpp"
#include "stream/replay.hpp"
#include "stream/shutdown.hpp"
#include "trace/google_format.hpp"
#include "trace/loader.hpp"
#include "trace/parse_report.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

namespace cgc {
namespace {

using trace::TaskEvent;
using trace::TaskEventType;

/// One row of the parser table: the input line, whether it parses, and
/// (when it does) the fields it must produce.
struct RowCase {
  const char* name;
  std::string line;
  bool ok;
  util::TimeSec time = 0;
  std::int64_t job_id = 0;
  std::int32_t task_index = 0;
  std::int64_t machine_id = -1;
  TaskEventType type = TaskEventType::kSubmit;
  int priority = 1;
};

/// A 9-field row with every column given explicitly.
std::string row9(const std::string& time, const std::string& job,
                 const std::string& task, const std::string& machine,
                 const std::string& code, const std::string& priority) {
  return time + ",," + job + "," + task + "," + machine + "," + code +
         ",user,0," + priority;
}

/// The same row with the four trailing request columns of the 13-field
/// clusterdata layout.
std::string row13(const std::string& time, const std::string& job,
                  const std::string& task, const std::string& machine,
                  const std::string& code, const std::string& priority) {
  return row9(time, job, task, machine, code, priority) + ",0.5,0.25,,0";
}

std::vector<RowCase> row_cases() {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const auto ok = [](const char* name, std::string line, util::TimeSec time,
                     std::int64_t job, std::int32_t task, std::int64_t machine,
                     TaskEventType type, int priority) {
    return RowCase{name, std::move(line), true, time, job, task,
                   machine, type, priority};
  };
  const auto bad = [](const char* name, std::string line) {
    return RowCase{name, std::move(line), false};
  };
  const TaskEventType S = TaskEventType::kSubmit;
  return {
      // Row width.
      ok("nine fields", row9("0", "1", "2", "", "0", "1"), 0, 1, 2, -1, S, 2),
      ok("thirteen fields", row13("3000000", "7", "0", "42", "1", "11"), 3, 7,
         0, 42, TaskEventType::kSchedule, 12),
      ok("bare minimum", "0,,0,0,,0,,,0", 0, 0, 0, -1, S, 1),
      bad("eight fields", "0,,1,2,,0,user,0"),
      bad("five fields", "0,,1,2,"),
      bad("one field", "garbage"),
      bad("only commas, eight", ",,,,,,,"),
      bad("only commas, nine", ",,,,,,,,"),
      // Machine column.
      ok("empty machine", row9("0", "1", "2", "", "0", "1"), 0, 1, 2, -1, S,
         2),
      ok("negative machine", row9("0", "1", "2", "-5", "0", "1"), 0, 1, 2, -5,
         S, 2),
      bad("bad machine", row9("0", "1", "2", "m1", "0", "1")),
      // Integer spellings, exercised on each parsed column.
      bad("empty time", row9("", "1", "2", "", "0", "1")),
      bad("empty job", row9("0", "", "2", "", "0", "1")),
      bad("empty task", row9("0", "1", "", "", "0", "1")),
      bad("empty code", row9("0", "1", "2", "", "", "1")),
      bad("empty priority", row9("0", "1", "2", "", "0", "")),
      bad("plus sign", row9("0", "+5", "2", "", "0", "1")),
      bad("leading space", row9("0", " 5", "2", "", "0", "1")),
      bad("trailing space", row9("0", "5 ", "2", "", "0", "1")),
      bad("hex", row9("0", "0x10", "2", "", "0", "1")),
      bad("lone minus", row9("0", "-", "2", "", "0", "1")),
      bad("double minus", row9("0", "--5", "2", "", "0", "1")),
      bad("decimal point", row9("1.5", "1", "2", "", "0", "1")),
      bad("plus on time", row9("+0", "1", "2", "", "0", "1")),
      bad("space in priority", row9("0", "1", "2", "", "0", " 1")),
      ok("minus zero", row9("-0", "1", "2", "", "0", "1"), 0, 1, 2, -1, S, 2),
      ok("leading zeros", row9("000", "007", "0002", "", "00", "01"), 0, 7, 2,
         -1, S, 2),
      ok("leading zeros past 19 digits",
         row9("0", "0000000000000000000000042", "2", "", "0", "1"), 0, 42, 2,
         -1, S, 2),
      ok("18 digits", row9("0", "999999999999999999", "2", "", "0", "1"), 0,
         999999999999999999, 2, -1, S, 2),
      ok("19 digits", row9("0", "1000000000000000000", "2", "", "0", "1"), 0,
         1000000000000000000, 2, -1, S, 2),
      ok("INT64_MAX", row9("0", "9223372036854775807", "2", "", "0", "1"), 0,
         kMax, 2, -1, S, 2),
      ok("INT64_MIN", row9("0", "-9223372036854775808", "2", "", "0", "1"), 0,
         kMin, 2, -1, S, 2),
      bad("19-digit overflow",
          row9("0", "9223372036854775808", "2", "", "0", "1")),
      bad("19-digit negative overflow",
          row9("0", "-9223372036854775809", "2", "", "0", "1")),
      bad("20 digits", row9("99999999999999999999", "1", "2", "", "0", "1")),
      // Time: microseconds truncated toward zero, negatives allowed.
      ok("negative time", row9("-1500000", "1", "2", "", "0", "1"), -1, 1, 2,
         -1, S, 2),
      ok("sub-second time", row9("999999", "1", "2", "", "0", "1"), 0, 1, 2,
         -1, S, 2),
      ok("time rounds down", row9("2999999", "1", "2", "", "0", "1"), 2, 1, 2,
         -1, S, 2),
      // Task index keeps the low 32 bits, as a static_cast does.
      ok("wide task index", row9("0", "1", "4294967297", "", "0", "1"), 0, 1,
         1, -1, S, 2),
      // Event codes.
      ok("code 2 evict", row9("0", "1", "2", "3", "2", "1"), 0, 1, 2, 3,
         TaskEventType::kEvict, 2),
      ok("code 3 fail", row9("0", "1", "2", "3", "3", "1"), 0, 1, 2, 3,
         TaskEventType::kFail, 2),
      ok("code 4 finish", row9("0", "1", "2", "3", "4", "1"), 0, 1, 2, 3,
         TaskEventType::kFinish, 2),
      ok("code 5 kill", row9("0", "1", "2", "3", "5", "1"), 0, 1, 2, 3,
         TaskEventType::kKill, 2),
      ok("code 6 lost", row9("0", "1", "2", "3", "6", "1"), 0, 1, 2, 3,
         TaskEventType::kLost, 2),
      ok("code 7 update", row9("0", "1", "2", "", "7", "1"), 0, 1, 2, -1,
         TaskEventType::kUpdate, 2),
      ok("code 8 update", row9("0", "1", "2", "", "8", "1"), 0, 1, 2, -1,
         TaskEventType::kUpdate, 2),
      bad("code 9", row9("0", "1", "2", "", "9", "1")),
      bad("code -1", row9("0", "1", "2", "", "-1", "1")),
      // Priorities: file 0-11 → paper 1-12.
      ok("priority 0", row9("0", "1", "2", "", "0", "0"), 0, 1, 2, -1, S, 1),
      ok("priority 11", row9("0", "1", "2", "", "0", "11"), 0, 1, 2, -1, S,
         12),
      bad("priority -1", row9("0", "1", "2", "", "0", "-1")),
      bad("priority 12", row9("0", "1", "2", "", "0", "12")),
      // Unparsed columns may hold anything.
      ok("free-text columns", "5000000,missing,1,2,,0,some user,class x,3", 5,
         1, 2, -1, S, 4),
      // CR is data: it breaks a 9-field row's priority, but lands in an
      // unparsed column of a 13-field row.
      bad("CR on nine fields", row9("0", "1", "2", "", "0", "1") + "\r"),
      ok("CR on thirteen fields", row13("0", "1", "2", "", "0", "1") + "\r",
         0, 1, 2, -1, S, 2),
      bad("empty line", ""),
  };
}

TEST(TaskEventsRowTest, ParserTable) {
  for (const RowCase& c : row_cases()) {
    SCOPED_TRACE(std::string(c.name) + ": '" + c.line + "'");
    TaskEvent event;
    const bool parsed = stream::parse_google_event_line(c.line, &event);
    ASSERT_EQ(parsed, c.ok);
    if (!c.ok) {
      continue;
    }
    EXPECT_EQ(event.time, c.time);
    EXPECT_EQ(event.job_id, c.job_id);
    EXPECT_EQ(event.task_index, c.task_index);
    EXPECT_EQ(event.machine_id, c.machine_id);
    EXPECT_EQ(event.type, c.type);
    EXPECT_EQ(static_cast<int>(event.priority), c.priority);
  }
}

/// Everything read_event_stream delivered, batch by batch.
struct Delivery {
  std::vector<std::size_t> batch_sizes;
  std::vector<TaskEvent> events;
  std::uint64_t returned = 0;
  stream::StreamHealth health;
};

Delivery read_all(std::istream& in, std::size_t batch_size) {
  Delivery d;
  d.returned = stream::read_event_stream(
      in, batch_size,
      [&d](std::span<const TaskEvent> batch) {
        d.batch_sizes.push_back(batch.size());
        d.events.insert(d.events.end(), batch.begin(), batch.end());
      },
      &d.health);
  return d;
}

Delivery read_text(const std::string& text, std::size_t batch_size = 8192) {
  std::istringstream in(text);
  return read_all(in, batch_size);
}

/// Submit row for job `job` at second `t`.
std::string submit_row(std::int64_t t, std::int64_t job) {
  return row9(std::to_string(t * 1000000), std::to_string(job), "0", "", "0",
              "1");
}

class EventStreamTest : public ::testing::Test {
 protected:
  void SetUp() override { stream::clear_shutdown(); }
  void TearDown() override { stream::clear_shutdown(); }
};

TEST_F(EventStreamTest, CommentsAndBlankLinesAreSkippedNotCounted) {
  const Delivery d = read_text("# header\n\n" + submit_row(1, 1) +
                               "\n#" + submit_row(2, 2) + "\n\n\n" +
                               submit_row(3, 3) + "\n");
  ASSERT_EQ(d.events.size(), 2u);
  EXPECT_EQ(d.events[0].job_id, 1);
  EXPECT_EQ(d.events[1].job_id, 3);
  EXPECT_EQ(d.health.parse_bad_lines, 0u);
  EXPECT_EQ(d.returned, 2u);
}

TEST_F(EventStreamTest, MalformedLinesAreCountedAndSkipped) {
  const Delivery d =
      read_text(submit_row(1, 1) + "\ngarbage\n \n\r\n" + submit_row(2, 2) +
                "\n" + row9("0", "1", "2", "", "9", "1") + "\n");
  EXPECT_EQ(d.events.size(), 2u);
  EXPECT_EQ(d.health.parse_bad_lines, 4u);  // garbage, " ", "\r", code 9
  EXPECT_EQ(d.returned, 2u);
}

TEST_F(EventStreamTest, NullHealthIsAllowed) {
  std::istringstream in("garbage\n" + submit_row(1, 1) + "\n");
  std::vector<TaskEvent> got;
  const std::uint64_t n = stream::read_event_stream(
      in, 4,
      [&got](std::span<const TaskEvent> batch) {
        got.insert(got.end(), batch.begin(), batch.end());
      },
      nullptr);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(got.size(), 1u);
}

TEST_F(EventStreamTest, UnterminatedLastLineIsParsed) {
  const Delivery d = read_text(submit_row(1, 1) + "\n" + submit_row(2, 2));
  ASSERT_EQ(d.events.size(), 2u);
  EXPECT_EQ(d.events[1].job_id, 2);
  EXPECT_EQ(d.health.parse_bad_lines, 0u);
}

TEST_F(EventStreamTest, UnterminatedLastLineWithoutAnyNewline) {
  const Delivery d = read_text(submit_row(9, 9));
  ASSERT_EQ(d.events.size(), 1u);
  EXPECT_EQ(d.events[0].time, 9);
}

TEST_F(EventStreamTest, EmptyInputDeliversNothing) {
  const Delivery d = read_text("");
  EXPECT_TRUE(d.batch_sizes.empty());
  EXPECT_EQ(d.returned, 0u);
}

TEST_F(EventStreamTest, CarriageReturnsAreNotStripped) {
  // A CRLF file of 9-field rows: the CR sticks to the priority column,
  // so every row is malformed; 13-field rows carry it harmlessly.
  const Delivery nine =
      read_text(submit_row(1, 1) + "\r\n" + submit_row(2, 2) + "\r\n");
  EXPECT_EQ(nine.events.size(), 0u);
  EXPECT_EQ(nine.health.parse_bad_lines, 2u);
  const Delivery thirteen =
      read_text(row13("1000000", "1", "0", "", "0", "1") + "\r\n" +
                row13("2000000", "2", "0", "", "0", "1") + "\r\n");
  EXPECT_EQ(thirteen.events.size(), 2u);
  EXPECT_EQ(thirteen.health.parse_bad_lines, 0u);
  // A CR-only separator is not a line break.
  const Delivery cr_only =
      read_text(submit_row(1, 1) + "\r" + submit_row(2, 2) + "\r");
  EXPECT_EQ(cr_only.events.size(), 0u);
  EXPECT_EQ(cr_only.health.parse_bad_lines, 1u);
}

TEST_F(EventStreamTest, LinesLongerThanAnyReadBufferAreFramedExactly) {
  // 3 MiB lines: a valid 13-field row whose last column is long, a
  // garbage line, and a long comment — each one line, wherever the
  // reader's block boundaries fall.
  const std::string long_tail(3u << 20, 'x');
  const std::string text = submit_row(1, 1) + "\n" +
                           row13("2000000", "2", "0", "", "0", "1") +
                           long_tail + "\n" + long_tail + "\n#" + long_tail +
                           "\n" + submit_row(3, 3) + "\n" +
                           row13("4000000", "4", "0", "", "0", "1") +
                           long_tail;
  const Delivery d = read_text(text);
  ASSERT_EQ(d.events.size(), 4u);
  EXPECT_EQ(d.events[0].job_id, 1);
  EXPECT_EQ(d.events[1].job_id, 2);
  EXPECT_EQ(d.events[2].job_id, 3);
  EXPECT_EQ(d.events[3].job_id, 4);
  EXPECT_EQ(d.health.parse_bad_lines, 1u);
}

TEST_F(EventStreamTest, ManyRowsAcrossBlockBoundariesArriveInOrder) {
  // ~4 MiB of rows of varying width, so rows straddle any block size.
  std::string text;
  std::int64_t rows = 0;
  for (std::int64_t i = 0; text.size() < (4u << 20); ++i) {
    text += row9(std::to_string(i * 1000000), std::to_string(i),
                 std::to_string(i % 97), i % 3 == 0 ? "" : std::to_string(i),
                 std::to_string(i % 9), std::to_string(i % 12)) +
            std::string(static_cast<std::size_t>(i % 7), ',') + "\n";
    ++rows;
  }
  const Delivery d = read_text(text, 1000);
  ASSERT_EQ(d.events.size(), static_cast<std::size_t>(rows));
  for (std::int64_t i = 0; i < rows; ++i) {
    const TaskEvent& e = d.events[static_cast<std::size_t>(i)];
    ASSERT_EQ(e.time, i);
    ASSERT_EQ(e.job_id, i);
    ASSERT_EQ(e.task_index, i % 97);
    ASSERT_EQ(e.machine_id, i % 3 == 0 ? -1 : i);
    ASSERT_EQ(static_cast<int>(e.priority), static_cast<int>(i % 12) + 1);
  }
}

TEST_F(EventStreamTest, BatchesEndExactlyAtBatchSize) {
  std::string eight;
  for (int i = 0; i < 8; ++i) {
    eight += submit_row(i, i) + "\n";
  }
  const Delivery exact = read_text(eight, 4);
  EXPECT_EQ(exact.batch_sizes, (std::vector<std::size_t>{4, 4}));
  EXPECT_EQ(exact.returned, 8u);

  const Delivery one_over = read_text(eight + submit_row(8, 8) + "\n", 4);
  EXPECT_EQ(one_over.batch_sizes, (std::vector<std::size_t>{4, 4, 1}));

  // Bad and skipped lines do not count towards a batch.
  const Delivery padded =
      read_text("#c\n" + eight.substr(0, eight.size() / 2) + "bad\n\n" +
                    eight.substr(eight.size() / 2),
                4);
  EXPECT_EQ(padded.batch_sizes, (std::vector<std::size_t>{4, 4}));
  EXPECT_EQ(padded.health.parse_bad_lines, 1u);

  const Delivery single = read_text(eight, 1);
  EXPECT_EQ(single.batch_sizes, std::vector<std::size_t>(8, 1));
}

/// Runs `check` under the shared pool and then under an 8-worker pool,
/// lowering the shutdown flag before each run.
template <typename Check>
void under_shared_and_eight_workers(Check check) {
  check();
  stream::clear_shutdown();
  util::ThreadPool eight(8);
  exec::ScopedPool scoped(&eight);
  check();
}

TEST_F(EventStreamTest, ShutdownBeforeStartReadsNothing) {
  under_shared_and_eight_workers([] {
    stream::request_shutdown();
    const Delivery d = read_text(submit_row(1, 1) + "\n");
    EXPECT_EQ(d.returned, 0u);
    EXPECT_TRUE(d.batch_sizes.empty());
  });
}

TEST_F(EventStreamTest, ShutdownMidStreamStopsAfterTheCurrentBatch) {
  under_shared_and_eight_workers([] {
    std::string text;
    for (int i = 0; i < 100; ++i) {
      text += submit_row(i, i) + "\n";
    }
    std::istringstream in(text);
    std::vector<std::size_t> batches;
    const std::uint64_t n = stream::read_event_stream(
        in, 10,
        [&batches](std::span<const TaskEvent> batch) {
          batches.push_back(batch.size());
          stream::request_shutdown();  // a SIGTERM landing during ingest
        },
        nullptr);
    EXPECT_EQ(n, 10u);
    EXPECT_EQ(batches, (std::vector<std::size_t>{10}));
  });
}

/// Hands out one line per underflow and raises the shutdown flag when
/// line `cutoff` is fetched: a SIGTERM landing while rows are parsed.
class ShutdownAtLineBuf : public std::streambuf {
 public:
  ShutdownAtLineBuf(std::vector<std::string> lines, std::size_t cutoff)
      : lines_(std::move(lines)), cutoff_(cutoff) {}

 protected:
  int_type underflow() override {
    if (next_ >= lines_.size()) {
      return traits_type::eof();
    }
    if (next_ == cutoff_) {
      stream::request_shutdown();
    }
    current_ = lines_[next_++] + "\n";
    setg(current_.data(), current_.data(),
         current_.data() + current_.size());
    return traits_type::to_int_type(current_[0]);
  }

 private:
  std::vector<std::string> lines_;
  std::size_t cutoff_;
  std::size_t next_ = 0;
  std::string current_;
};

TEST_F(EventStreamTest, ShutdownWhileParsingDeliversThePartialBatch) {
  under_shared_and_eight_workers([] {
    std::vector<std::string> lines;
    for (int i = 0; i < 100; ++i) {
      lines.push_back(submit_row(i, i));
    }
    // The flag goes up as row 5 is fetched: row 5 is still parsed, the
    // six rows of the first batch are delivered, and reading stops.
    ShutdownAtLineBuf buf(std::move(lines), /*cutoff=*/5);
    std::istream in(&buf);
    const Delivery d = read_all(in, 10);
    EXPECT_EQ(d.batch_sizes, (std::vector<std::size_t>{6}));
    EXPECT_EQ(d.returned, 6u);
  });
}

// ---- pipe reader: the same deliveries under every pool ---------------------

/// Everything one read_event_stream call showed its sink, call by call.
struct CallLog {
  std::vector<std::size_t> batch_sizes;
  /// health->parse_bad_lines as each sink call saw it.
  std::vector<std::uint64_t> bad_lines_seen;
  std::vector<TaskEvent> events;
  std::uint64_t returned = 0;
  std::uint64_t bad_lines = 0;  ///< after the call returned
};

CallLog log_reads(const std::string& text, std::size_t batch_size) {
  CallLog log;
  stream::StreamHealth health;
  std::istringstream in(text);
  log.returned = stream::read_event_stream(
      in, batch_size,
      [&](std::span<const TaskEvent> batch) {
        log.batch_sizes.push_back(batch.size());
        log.bad_lines_seen.push_back(health.parse_bad_lines);
        log.events.insert(log.events.end(), batch.begin(), batch.end());
      },
      &health);
  log.bad_lines = health.parse_bad_lines;
  return log;
}

/// The serial reading of `text` that read_event_stream's contract
/// describes, written out independently: std::getline framing, '#' and
/// empty lines skipped, a bad row counted before the batch it precedes
/// is delivered, a batch delivered as soon as it is full.
CallLog reference_reads(const std::string& text, std::size_t batch_size) {
  CallLog log;
  std::vector<TaskEvent> batch;
  const auto deliver = [&] {
    log.batch_sizes.push_back(batch.size());
    log.bad_lines_seen.push_back(log.bad_lines);
    log.events.insert(log.events.end(), batch.begin(), batch.end());
    log.returned += batch.size();
    batch.clear();
  };
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    TaskEvent event;
    if (!stream::parse_google_event_line(line, &event)) {
      ++log.bad_lines;
      continue;
    }
    batch.push_back(event);
    if (batch.size() == batch_size) {
      deliver();
    }
  }
  if (!batch.empty()) {
    deliver();
  }
  return log;
}

void expect_same_log(const CallLog& got, const CallLog& want,
                     const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(got.returned, want.returned);
  EXPECT_EQ(got.bad_lines, want.bad_lines);
  EXPECT_EQ(got.batch_sizes, want.batch_sizes);
  EXPECT_EQ(got.bad_lines_seen, want.bad_lines_seen);
  ASSERT_EQ(got.events.size(), want.events.size());
  for (std::size_t i = 0; i < got.events.size(); ++i) {
    const TaskEvent& a = got.events[i];
    const TaskEvent& b = want.events[i];
    ASSERT_TRUE(a.time == b.time && a.job_id == b.job_id &&
                a.task_index == b.task_index &&
                a.machine_id == b.machine_id && a.type == b.type &&
                a.priority == b.priority)
        << "event " << i;
  }
}

/// ~50k rows of mixed input: valid 9- and 13-column rows, bad rows of
/// several kinds, comments, blank lines, CRLF rows (harmless on 13
/// columns, a bad priority on 9) and an unterminated last line.
std::string mixed_pipe_text() {
  std::string text;
  for (std::int64_t i = 0; i < 50000; ++i) {
    const std::string t = std::to_string(i * 1000000);
    const std::string job = std::to_string(i / 3);
    const std::string task = std::to_string(i % 3);
    const std::string code = std::to_string(i % 9);
    const std::string prio = std::to_string(i % 12);
    if (i % 11 == 0) {
      text += "# comment " + job + "\n";
    }
    if (i % 13 == 0) {
      text += "\n";
    }
    switch (i % 17) {
      case 3:
        text += "garbage," + t + "\n";
        break;
      case 6:
        text += row9(t, job, task, "", "9", prio) + "\n";  // bad code
        break;
      case 9:
        text += t + ",," + job + "\n";  // too short
        break;
      case 12:
        text += row9(t, job, task, "7", code, prio) + "\r\n";  // CR: bad
        break;
      case 15:
        text += row13(t, job, task, "7", code, prio) + "\r\n";
        break;
      default:
        text += (i % 2 == 0 ? row9(t, job, task, "", code, prio)
                            : row13(t, job, task, job, code, prio)) +
                "\n";
    }
  }
  return text + row9("1", "1", "0", "", "0", "1");  // no final newline
}

TEST_F(EventStreamTest, SameDeliveriesAtEveryPoolAndBatchSize) {
  const std::string text = mixed_pipe_text();
  util::ThreadPool one(1);
  util::ThreadPool eight(8);
  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{7},
                                       std::size_t{8192}}) {
    const CallLog want = reference_reads(text, batch_size);
    ASSERT_GT(want.bad_lines, 1000u);
    ASSERT_GT(want.batch_sizes.size(), batch_size == 8192 ? 4u : 5000u);
    const std::string at = "batch " + std::to_string(batch_size);
    expect_same_log(log_reads(text, batch_size), want, at + ", shared pool");
    {
      exec::ScopedPool scoped(&one);
      expect_same_log(log_reads(text, batch_size), want, at + ", 1 worker");
    }
    {
      exec::ScopedPool scoped(&eight);
      expect_same_log(log_reads(text, batch_size), want,
                      at + ", 8 workers");
    }
  }
}

/// Thrown by a sink; carries the call that threw.
struct SinkFailure {
  int call;
};

TEST_F(EventStreamTest, SinkExceptionStopsReadingAndReachesTheCaller) {
  const std::string text = mixed_pipe_text();
  util::ThreadPool one(1);
  util::ThreadPool eight(8);
  for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr),
                                 &one, &eight}) {
    exec::ScopedPool scoped(pool);
    int calls = 0;
    std::istringstream in(text);
    try {
      stream::read_event_stream(
          in, 7,
          [&calls](std::span<const TaskEvent>) {
            if (++calls == 3) {
              throw SinkFailure{calls};
            }
          },
          nullptr);
      ADD_FAILURE() << "the sink's exception was swallowed";
    } catch (const SinkFailure& failure) {
      EXPECT_EQ(failure.call, 3);
    }
    EXPECT_EQ(calls, 3) << "a sink call after the one that threw";
  }
}

TEST_F(EventStreamTest, SinkExceptionOnAnIdlePipeEndsTheReadAhead) {
  // Batch 0 is the four rows written up front; the writer then stays
  // open and quiet, so the read-ahead of batch 1 blocks in read(2) while
  // the sink, on the pool's one worker, throws on batch 0. One more row
  // must then end the read-ahead and bring the exception back: it may
  // not wait for the three rows that would complete batch 1.
  util::ThreadPool one(1);
  exec::ScopedPool scoped(&one);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const auto write_row = [&fds](std::int64_t t) {
    const std::string row = submit_row(t, t) + "\n";
    ASSERT_EQ(::write(fds[1], row.data(), row.size()),
              static_cast<ssize_t>(row.size()));
  };
  for (std::int64_t t = 1; t <= 4; ++t) {
    write_row(t);
  }
  std::atomic<bool> sink_threw{false};
  std::promise<void> finished;
  std::future<void> result = finished.get_future();
  std::thread reader([&] {
    util::FdInputBuf buf(fds[0]);
    std::istream in(&buf);
    try {
      stream::read_event_stream(
          in, 4,
          [&sink_threw](std::span<const TaskEvent>) {
            sink_threw = true;
            throw SinkFailure{1};
          },
          nullptr);
      finished.set_value();
    } catch (...) {
      finished.set_exception(std::current_exception());
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!sink_threw && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(sink_threw) << "batch 0 never reached the sink";
  // Let the failure reach the reader's flag before the next row lands.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  write_row(5);
  const bool returned = result.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  ::close(fds[1]);  // unblocks a reader that is still waiting
  reader.join();
  ::close(fds[0]);
  ASSERT_TRUE(returned) << "the sink's failure waited for a full batch";
  EXPECT_THROW(result.get(), SinkFailure);
}

// ---- trace-file reader -----------------------------------------------------

class TaskEventsFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cgc_task_events_parse_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write_events(const std::string& content) {
    std::ofstream out(dir_ / "task_events.csv", std::ios::binary);
    out << content;
    return (dir_ / "task_events.csv").string();
  }

  /// Loads the fixture dir as a Google CSV trace named "g".
  trace::TraceSet load(trace::Strictness strictness,
                       trace::LoadReport* report = nullptr) const {
    return trace::load_trace(dir_.string(),
                             {.format = trace::TraceFormat::kGoogleCsv,
                              .system_name = "g",
                              .strictness = strictness},
                             report);
  }

  std::filesystem::path dir_;
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

TEST_F(TaskEventsFileTest, TolerantMessagesNameLineAndCause) {
  // Line numbers count every physical line, comments included. The
  // trace reader strips a trailing CR (line 3 parses), unlike the pipe.
  const std::string path = write_events(
      "# header\n" +                                           // 1
      submit_row(1, 1) + "\n" +                                // 2
      submit_row(2, 2) + "\r\n" +                              // 3
      "0,,1,2,,0\n" +                                          // 4
      row9("0", "x1", "2", "", "0", "1") + "\n" +              // 5
      row9("0", "1", "2", "", "9", "1") + "\n" +               // 6
      row9("0", "1", "2", "", "0", "12") + "\n" +              // 7
      "; gwa-style comment\n" +                                // 8
      row9("0", "1", "2", "", "0", " 3") + "\n" +              // 9
      row9("", "1", "2", "", "0", "1") + "\n" +                // 10
      submit_row(3, 3));                                       // 11
  trace::LoadReport loaded;
  const trace::TraceSet t = load(trace::Strictness::kTolerant, &loaded);
  const trace::ParseReport& report = loaded.parse;
  EXPECT_EQ(report.records_ok, 3u);
  ASSERT_EQ(report.lines_bad, 6u);
  ASSERT_EQ(report.samples.size(), 6u);
  const std::vector<std::pair<int, std::string>> expected = {
      {4, "task_events row too short (truncated record?)"},
      {5, "bad integer field: 'x1'"},
      {6, "unknown task event code 9"},
      {7, "priority out of range"},
      {9, "bad integer field: ' 3'"},
      {10, "bad integer field: ''"},
  };
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const std::string& sample = report.samples[i];
    EXPECT_EQ(sample.rfind(path + ":" + std::to_string(expected[i].first) +
                               ": ",
                           0),
              0u)
        << sample;
    EXPECT_TRUE(ends_with(sample, expected[i].second)) << sample;
  }
  EXPECT_EQ(t.events().size(), 3u);
}

TEST_F(TaskEventsFileTest, ShortRowWinsOverBadInteger) {
  // A row that is both short and garbled reports the width first.
  write_events("x,,y\n");
  trace::LoadReport loaded;
  (void)load(trace::Strictness::kTolerant, &loaded);
  const trace::ParseReport& report = loaded.parse;
  ASSERT_EQ(report.samples.size(), 1u);
  EXPECT_TRUE(ends_with(report.samples[0],
                        "task_events row too short (truncated record?)"))
      << report.samples[0];
}

TEST_F(TaskEventsFileTest, StrictModeThrowsWithPathAndLine) {
  const std::string path =
      write_events(submit_row(1, 1) + "\n" +
                   row9("0", "1", "2", "", "0", "-1") + "\n");
  try {
    (void)load(trace::Strictness::kStrict);
    FAIL() << "expected a parse error";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind(path + ":2: ", 0), 0u) << what;
    EXPECT_TRUE(ends_with(what, "priority out of range")) << what;
  }
}

TEST_F(TaskEventsFileTest, FileAndPipeAgreeOnCleanRows) {
  // 20 tasks, each submitted, scheduled and finished.
  const char* const codes[] = {"0", "1", "4"};
  std::string text;
  for (int i = 0; i < 60; ++i) {
    const int task = i / 3;
    text += row13(std::to_string(i * 1500000), std::to_string(100 + task % 7),
                  std::to_string(task),
                  i % 3 == 0 ? "" : std::to_string(task % 5), codes[i % 3],
                  std::to_string(task % 12)) +
            "\n";
  }
  write_events(text);
  const trace::TraceSet t = load(trace::Strictness::kStrict);
  const Delivery d = read_text(text);
  ASSERT_EQ(t.events().size(), d.events.size());
  // The trace reader sorts by time; the rows are already time-ordered.
  for (std::size_t i = 0; i < d.events.size(); ++i) {
    const TaskEvent& a = t.events()[i];
    const TaskEvent& b = d.events[i];
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.job_id, b.job_id);
    EXPECT_EQ(a.task_index, b.task_index);
    EXPECT_EQ(a.machine_id, b.machine_id);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.priority, b.priority);
  }
}

}  // namespace
}  // namespace cgc
