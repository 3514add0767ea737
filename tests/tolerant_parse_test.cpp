// Tests for tolerant trace parsing: bad-line accounting in ParseReport,
// the bad-line cap, strict-mode compatibility, and the parser fault
// sites (trace.parse_line skip-and-account vs io.read propagation).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "fault/fault.hpp"
#include "trace/loader.hpp"
#include "trace/parse_report.hpp"
#include "util/check.hpp"

namespace cgc::trace {
namespace {

class TolerantParseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::configure("");
    dir_ = std::filesystem::temp_directory_path() /
           ("cgc_tolerant_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::configure("");
    std::filesystem::remove_all(dir_);
  }

  std::string write_file(const std::string& name,
                         const std::string& content) {
    const std::string p = (dir_ / name).string();
    std::ofstream out(p);
    out << content;
    return p;
  }

  std::filesystem::path dir_;
};

/// 18-field SWF row for job `id`, all values well-formed.
std::string swf_row(int id) {
  return std::to_string(id) +
         " 100 5 60.0 4 -1 1024 4 -1 -1 1 7 -1 -1 -1 -1 -1 -1\n";
}

constexpr char kBadRow[] = "2 100 not_a_number 60.0 4\n";

/// Loader options for an SWF file named "swf" at `strictness`.
LoadOptions swf(Strictness strictness) {
  return {.format = TraceFormat::kSwf,
          .system_name = "swf",
          .strictness = strictness};
}

TEST_F(TolerantParseTest, StrictThrowsWithPathAndLine) {
  // Line 1 is the header; the bad row lands on line 3.
  const std::string p =
      write_file("t.swf", "; header\n" + swf_row(1) + kBadRow + swf_row(3));
  try {
    load_trace(p, swf(Strictness::kStrict));
    FAIL() << "expected a parse error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find(p + ":3:"), std::string::npos)
        << e.what();
  }
}

TEST_F(TolerantParseTest, StrictBadRecordIsADataError) {
  // Malformed input is data, not a program error: strict mode raises the
  // class that PlanRunner and error::merge_exit_code key on.
  const std::string p =
      write_file("t.swf", "; header\n" + swf_row(1) + kBadRow);
  EXPECT_THROW(load_trace(p, swf(Strictness::kStrict)), util::DataError);
}

TEST_F(TolerantParseTest, TolerantSkipsAndAccounts) {
  const std::string p =
      write_file("t.swf", "; header\n" + swf_row(1) + kBadRow + swf_row(3));
  LoadReport loaded;
  const TraceSet trace = load_trace(p, swf(Strictness::kTolerant), &loaded);
  const ParseReport& report = loaded.parse;
  EXPECT_EQ(trace.jobs().size(), 2u);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.lines_bad, 1u);
  EXPECT_EQ(report.records_ok, 2u);
  ASSERT_EQ(report.samples.size(), 1u);
  EXPECT_NE(report.samples[0].find(p + ":3:"), std::string::npos)
      << report.samples[0];
}

TEST_F(TolerantParseTest, GwaTolerantSkipsAndAccounts) {
  const std::string p = write_file(
      "t.gwf",
      "; header\n"
      "1 100 5 60.0 4 -1 1024 4 -1 -1 1\n"
      "garbage line with words\n"
      "3 200 5 60.0 4 -1 1024 4 -1 -1 1\n");
  LoadReport loaded;
  const TraceSet trace = load_trace(p,
                                    {.format = TraceFormat::kGwa,
                                     .system_name = "gwa",
                                     .strictness = Strictness::kTolerant},
                                    &loaded);
  const ParseReport& report = loaded.parse;
  EXPECT_EQ(trace.jobs().size(), 2u);
  EXPECT_EQ(report.lines_bad, 1u);
  EXPECT_EQ(report.records_ok, 2u);
}

TEST_F(TolerantParseTest, GoogleTolerantSkipsAndAccounts) {
  const std::string d = (dir_ / "gtrace").string();
  std::filesystem::create_directories(d);
  {
    std::ofstream out(d + "/task_events.csv");
    out << "1000000,,1,0,5,0,,0,3,,,,\n";
    out << "not_a_time,,1,0,5,0,,0,3,,,,\n";
    out << "2000000,,1,0,5,4,,0,3,,,,\n";
  }
  LoadReport loaded;
  const TraceSet trace = load_trace(d,
                                    {.format = TraceFormat::kGoogleCsv,
                                     .system_name = "google",
                                     .strictness = Strictness::kTolerant},
                                    &loaded);
  const ParseReport& report = loaded.parse;
  EXPECT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(report.lines_bad, 1u);
  EXPECT_EQ(report.records_ok, 2u);
}

TEST_F(TolerantParseTest, CapAbortsWithDataError) {
  std::string content = "; header\n";
  for (int i = 0; i < 4; ++i) {
    content += kBadRow;
  }
  const std::string p = write_file("t.swf", content);
  LoadOptions options = swf(Strictness::kTolerant);
  options.max_bad_lines = 2;
  LoadReport loaded;
  EXPECT_THROW(load_trace(p, options, &loaded), util::DataError);
  EXPECT_GT(loaded.parse.lines_bad, options.max_bad_lines);
}

TEST_F(TolerantParseTest, SampleRecordingIsCapped) {
  std::string content;
  for (int i = 0; i < 10; ++i) {
    content += kBadRow;
  }
  const std::string p = write_file("t.swf", content);
  LoadOptions options = swf(Strictness::kTolerant);
  options.max_recorded = 3;
  LoadReport loaded;
  load_trace(p, options, &loaded);
  EXPECT_EQ(loaded.parse.lines_bad, 10u);
  EXPECT_EQ(loaded.parse.samples.size(), 3u);
}

TEST_F(TolerantParseTest, InjectedParseFaultSkipsDeterministically) {
  // Lines 2..5 carry records; every=2 drops the even line numbers.
  const std::string p = write_file("t.swf", "; header\n" + swf_row(1) +
                                                swf_row(2) + swf_row(3) +
                                                swf_row(4));
  fault::configure("trace.parse_line:every=2");
  LoadReport loaded;
  const TraceSet trace = load_trace(p, swf(Strictness::kTolerant), &loaded);
  const ParseReport& report = loaded.parse;
  EXPECT_EQ(trace.jobs().size(), 2u);
  EXPECT_EQ(report.lines_bad, 2u);
  for (const std::string& s : report.samples) {
    EXPECT_NE(s.find("injected"), std::string::npos) << s;
  }
  // The same spec in strict mode fails on the first injected line.
  fault::configure("trace.parse_line:every=2");
  try {
    load_trace(p, swf(Strictness::kStrict));
    FAIL() << "expected a parse error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos)
        << e.what();
  }
}

TEST_F(TolerantParseTest, IoFaultPropagatesEvenWhenTolerant) {
  const std::string p =
      write_file("t.swf", "; header\n" + swf_row(1) + swf_row(2));
  fault::configure("io.read:once=2");
  LoadReport loaded;
  // io.read defaults to the transient kind at the call site: not a
  // record-level problem, so tolerant mode must not swallow it.
  EXPECT_THROW(load_trace(p, swf(Strictness::kTolerant), &loaded),
               util::TransientError);
  EXPECT_EQ(loaded.parse.lines_bad, 0u);
}

// ---- non-finite numeric fields -------------------------------------------

// std::from_chars accepts these; no trace field means them, so each is a
// bad field like any other garbage.
constexpr const char* kNonFinite[] = {"nan", "inf", "-infinity", "NAN"};

/// Loads `path` tolerant (one bad line counted at `bad_line`, `good`
/// records kept) and strict (util::Error naming path:bad_line).
void expect_one_bad_line(const std::string& path, LoadOptions options,
                         std::size_t bad_line, std::size_t good) {
  options.strictness = Strictness::kTolerant;
  LoadReport loaded;
  load_trace(path, options, &loaded);
  EXPECT_EQ(loaded.parse.lines_bad, 1u);
  EXPECT_EQ(loaded.parse.records_ok, good);
  ASSERT_EQ(loaded.parse.samples.size(), 1u);
  const std::string& sample = loaded.parse.samples[0];
  EXPECT_NE(sample.find(":" + std::to_string(bad_line) + ":"),
            std::string::npos)
      << sample;
  EXPECT_NE(sample.find("bad double field"), std::string::npos) << sample;

  options.strictness = Strictness::kStrict;
  try {
    load_trace(path, options);
    FAIL() << "expected a parse error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find(":" + std::to_string(bad_line) + ":"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(TolerantParseTest, SwfNonFiniteFieldIsABadLine) {
  for (const std::string token : kNonFinite) {
    SCOPED_TRACE(token);
    // Field 3 is the run time.
    const std::string p = write_file(
        "nf.swf", "; header\n" + swf_row(1) + "2 100 5 " + token +
                      " 4 -1 1024 4 -1 -1 1 7 -1 -1 -1 -1 -1 -1\n" +
                      swf_row(3));
    expect_one_bad_line(p, swf(Strictness::kTolerant), 3, 2);
  }
}

TEST_F(TolerantParseTest, GwaNonFiniteFieldIsABadLine) {
  for (const std::string token : kNonFinite) {
    SCOPED_TRACE(token);
    // Field 6 is the used memory.
    const std::string p = write_file(
        "nf.gwf", "1 100 5 60.0 4 -1 1024 4 -1 -1 1\n"
                  "2 100 5 60.0 4 -1 " + token + " 4 -1 -1 1\n"
                  "3 200 5 60.0 4 -1 1024 4 -1 -1 1\n");
    expect_one_bad_line(p,
                        {.format = TraceFormat::kGwa, .system_name = "gwa"},
                        2, 2);
  }
}

/// A Google trace directory with one task event and the given
/// machine_events and host_usage contents.
std::string write_google_dir(const std::filesystem::path& dir,
                             const std::string& machine_events,
                             const std::string& host_usage) {
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "task_events.csv") << "1000000,,1,0,5,0,,0,3,,,,\n";
  std::ofstream(dir / "machine_events.csv") << machine_events;
  std::ofstream(dir / "host_usage.csv") << host_usage;
  return dir.string();
}

LoadOptions google() {
  return {.format = TraceFormat::kGoogleCsv, .system_name = "google"};
}

TEST_F(TolerantParseTest, GoogleMachineEventsNonFiniteFieldIsABadLine) {
  for (const std::string token : kNonFinite) {
    SCOPED_TRACE(token);
    // Field 4 is the CPU capacity. One task event plus one machine parse.
    const std::string d = write_google_dir(
        dir_ / "me", "0,1,0,,0.5,0.5\n0,2,0,," + token + ",0.5\n", "");
    expect_one_bad_line(d, google(), 2, 2);
  }
}

TEST_F(TolerantParseTest, GoogleHostUsageNonFiniteFieldIsABadLine) {
  for (const std::string token : kNonFinite) {
    SCOPED_TRACE(token);
    // Field 2 is the low-band CPU usage.
    const std::string d = write_google_dir(
        dir_ / "hu", "0,1,0,,0.5,0.5\n",
        "1,0,0.1,0,0,0.1,0,0,0.2,0.1,1,0\n"
        "1,300," + token + ",0,0,0.1,0,0,0.2,0.1,1,0\n");
    expect_one_bad_line(d, google(), 2, 3);
  }
}

TEST_F(TolerantParseTest, ReportMergeAggregates) {
  ParseReport a;
  a.records_ok = 5;
  a.lines_bad = 1;
  a.samples = {"x:1: bad"};
  ParseReport b;
  b.records_ok = 7;
  b.lines_bad = 2;
  b.samples = {"y:2: bad", "y:3: bad"};
  a.merge(b);
  EXPECT_EQ(a.records_ok, 12u);
  EXPECT_EQ(a.lines_bad, 3u);
  EXPECT_EQ(a.samples.size(), 3u);
  EXPECT_NE(a.summary().find("3 bad lines"), std::string::npos);
}

}  // namespace
}  // namespace cgc::trace
