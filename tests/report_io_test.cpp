// Tests for the sweep driver's report.json checkpoint I/O: the frozen
// bytes write_report() emits, perf-block round-trip, and the
// kOk/kMissing/kCorrupt distinction that lets --resume fail loudly on a
// torn report (regression: a truncated file used to be treated the same
// as a missing one).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "sweep/report_io.hpp"

namespace cgc::sweep {
namespace {

class ReportIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cgc_report_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "report.json").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static SweepReport make_report() {
    SweepReport report;
    report.fast_mode = true;
    report.threads = 4;
    report.complete = true;
    report.total_seconds = 1.5;
    CaseRecord r;
    r.id = "fig02_priorities";
    r.kind = "figure";
    r.title = "Priority mix";
    r.seconds = 0.75;
    r.ok = true;
    r.attempts = 2;
    r.perf.wall_s = 0.75;
    r.perf.cpu_s = 2.5;
    r.perf.max_rss_kb = 123456;
    r.outputs.push_back({"fig02.dat", 0xdeadbeef, 321});
    report.cases.push_back(r);
    return report;
  }

  std::filesystem::path dir_;
  std::string path_;
};

/// The bytes write_report() emits for a fixed report: a 1/2 shard
/// stamp, an error holding a quote and a newline, a perf block, and two
/// outputs. Any drift here changes every checkpoint and merged artifact.
TEST_F(ReportIoTest, WriteReportBytesAreFrozen) {
  SweepReport report;
  report.threads = 4;
  report.fault_spec = "store.chunk_crc:p=0.25,seed=9";
  report.complete = true;
  report.total_seconds = 1234.56789;
  report.shard = ShardSpec{1, 2};
  report.chunks_quarantined = 2;
  report.parse_lines_bad = 7;
  CaseRecord failed;
  failed.id = "fig03";
  failed.kind = "figure";
  failed.title = "Job length CDF";
  failed.seconds = 0.125;
  failed.attempts = 3;
  failed.error = "bad \"value\"\nsecond line";
  failed.perf.wall_s = 0.5;
  failed.perf.cpu_s = 1.75;
  failed.perf.max_rss_kb = 2048;
  failed.outputs.push_back({"fig03_google.dat", 123456789, 4096});
  failed.outputs.push_back({"sub/fig03_grid.dat", 0xffffffffu, 0});
  report.cases.push_back(failed);
  CaseRecord resumed;
  resumed.id = "tab02";
  resumed.kind = "table";
  resumed.title = "CPU level durations";
  resumed.ok = true;
  resumed.resumed = true;
  report.cases.push_back(resumed);
  write_report(report, path_);

  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  EXPECT_EQ(bytes,
            "{\n"
            "  \"fast_mode\": false,\n"
            "  \"threads\": 4,\n"
            "  \"fault_spec\": \"store.chunk_crc:p=0.25,seed=9\",\n"
            "  \"complete\": true,\n"
            "  \"total_seconds\": 1234.57,\n"
            "  \"shard_index\": 1,\n"
            "  \"shard_total\": 2,\n"
            "  \"chunks_quarantined\": 2,\n"
            "  \"rows_lost\": 0,\n"
            "  \"values_defaulted\": 0,\n"
            "  \"parse_lines_bad\": 7,\n"
            "  \"cases\": [\n"
            "    {\"id\": \"fig03\", \"kind\": \"figure\", \"title\": "
            "\"Job length CDF\", \"seconds\": 0.125, \"ok\": false, "
            "\"resumed\": false, \"attempts\": 3, \"error\": "
            "\"bad \\\"value\\\"\\nsecond line\", \"perf\": {\"wall_s\": "
            "0.5, \"cpu_s\": 1.75, \"max_rss_kb\": 2048}, \"outputs\": "
            "[{\"file\": \"fig03_google.dat\", \"crc\": 123456789, "
            "\"size\": 4096}, {\"file\": \"sub/fig03_grid.dat\", \"crc\": "
            "4294967295, \"size\": 0}]},\n"
            "    {\"id\": \"tab02\", \"kind\": \"table\", \"title\": "
            "\"CPU level durations\", \"seconds\": 0, \"ok\": true, "
            "\"resumed\": true, \"attempts\": 1, \"perf\": {\"wall_s\": 0, "
            "\"cpu_s\": 0, \"max_rss_kb\": 0}, \"outputs\": []}\n"
            "  ]\n"
            "}\n");
}

TEST_F(ReportIoTest, RoundTripIncludesPerfBlock) {
  write_report(make_report(), path_);

  SweepReport loaded;
  ASSERT_EQ(read_report_checked(path_, &loaded), ReadStatus::kOk);
  ASSERT_EQ(loaded.cases.size(), 1u);
  const CaseRecord& r = loaded.cases[0];
  EXPECT_EQ(r.id, "fig02_priorities");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_DOUBLE_EQ(r.perf.wall_s, 0.75);
  EXPECT_DOUBLE_EQ(r.perf.cpu_s, 2.5);
  EXPECT_EQ(r.perf.max_rss_kb, 123456u);
  ASSERT_EQ(r.outputs.size(), 1u);
  EXPECT_EQ(r.outputs[0].file, "fig02.dat");
  EXPECT_EQ(r.outputs[0].crc, 0xdeadbeefu);
  EXPECT_EQ(r.outputs[0].size, 321u);
}

TEST_F(ReportIoTest, ShardStampRoundTripsAndDefaultsWhenAbsent) {
  SweepReport report = make_report();
  report.shard = ShardSpec{2, 4};
  report.merged = true;
  write_report(report, path_);
  SweepReport loaded;
  ASSERT_EQ(read_report_checked(path_, &loaded), ReadStatus::kOk);
  EXPECT_EQ(loaded.shard, (ShardSpec{2, 4}));
  EXPECT_TRUE(loaded.merged);

  // An unstamped (pre-sharding / single-process) report parses with the
  // single-shard defaults.
  write_report(make_report(), path_);
  SweepReport plain;
  ASSERT_EQ(read_report_checked(path_, &plain), ReadStatus::kOk);
  EXPECT_EQ(plain.shard, (ShardSpec{0, 1}));
  EXPECT_FALSE(plain.merged);
}

TEST_F(ReportIoTest, LegacyBinaryKeyIsIgnored) {
  // Reports written before cases lost their per-case binary name carry
  // a "binary" key on every case line; they must still resume and merge.
  write_report(make_report(), path_);
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::string::size_type pos = bytes.find("\"kind\"");
  ASSERT_NE(pos, std::string::npos);
  bytes.insert(pos, "\"binary\": \"bench_fig02_priorities\", ");
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  SweepReport loaded;
  ASSERT_EQ(read_report_checked(path_, &loaded), ReadStatus::kOk);
  ASSERT_EQ(loaded.cases.size(), 1u);
  EXPECT_EQ(loaded.cases[0].id, "fig02_priorities");
  EXPECT_EQ(loaded.cases[0].kind, "figure");
  EXPECT_EQ(loaded.cases[0].title, "Priority mix");
  ASSERT_EQ(loaded.cases[0].outputs.size(), 1u);
  EXPECT_EQ(loaded.cases[0].outputs[0].crc, 0xdeadbeefu);
}

TEST_F(ReportIoTest, MissingFileIsMissingNotCorrupt) {
  SweepReport out;
  EXPECT_EQ(read_report_checked(path_, &out), ReadStatus::kMissing);
}

TEST_F(ReportIoTest, TruncatedReportIsCorrupt) {
  write_report(make_report(), path_);
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 20u);
  // Simulate a crash mid-write: keep only the first half of the file.
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  SweepReport out;
  EXPECT_EQ(read_report_checked(path_, &out), ReadStatus::kCorrupt);
}

TEST_F(ReportIoTest, ForeignFileIsCorrupt) {
  {
    std::ofstream out(path_);
    out << "{\"something\": \"else entirely\"}\n";
  }
  SweepReport out;
  EXPECT_EQ(read_report_checked(path_, &out), ReadStatus::kCorrupt);
}

TEST_F(ReportIoTest, MangledCaseLineIsCorrupt) {
  write_report(make_report(), path_);
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Damage the case line's id key so parse_case fails, keeping the
  // header and trailer intact.
  const std::string::size_type pos = bytes.find("\"id\"");
  ASSERT_NE(pos, std::string::npos);
  bytes.replace(pos, 4, "\"xx\"");
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  SweepReport out;
  EXPECT_EQ(read_report_checked(path_, &out), ReadStatus::kCorrupt);
}

}  // namespace
}  // namespace cgc::sweep
