// Tests for degraded-mode CGCS reads: quarantine-and-continue under
// chunk corruption, exact damage accounting (including against seeded
// fault injection at multiple worker counts), and repair via rewrite.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exec/parallel.hpp"
#include "fault/fault.hpp"
#include "store/cgcs_format.hpp"
#include "store/encoding.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "trace/trace_set.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace cgc::store {
namespace {

using trace::HostLoadSeries;
using trace::Job;
using trace::kNumBands;
using trace::Machine;
using trace::Task;
using trace::TaskEvent;
using trace::TaskEventType;
using trace::TraceSet;

/// Small rows_per_chunk so a modest trace spans many row groups and a
/// single damaged chunk loses a small, precisely known row range.
constexpr std::size_t kRowsPerChunk = 256;
constexpr std::size_t kNumEvents = 2000;
constexpr std::size_t kNumTasks = 600;

TraceSet make_trace() {
  TraceSet trace("degraded-test");
  for (std::size_t i = 0; i < kNumTasks; ++i) {
    const auto id = static_cast<std::int64_t>(i);
    Job job;
    job.job_id = id;
    job.user_id = id % 13;
    job.priority = static_cast<std::uint8_t>(1 + i % 12);
    job.submit_time = static_cast<util::TimeSec>(10 * i);
    job.end_time = job.submit_time + 500;
    job.num_tasks = 1;
    job.cpu_parallelism = 1.0f + static_cast<float>(i % 7);
    job.mem_usage = 0.25f * static_cast<float>(i % 5);
    trace.add_job(job);

    Task task;
    task.job_id = id;
    task.task_index = 0;
    task.priority = job.priority;
    task.submit_time = job.submit_time;
    task.schedule_time = job.submit_time + 5;
    task.end_time = job.end_time;
    task.end_event = i % 3 == 0 ? TaskEventType::kFinish : TaskEventType::kKill;
    task.machine_id = static_cast<std::int64_t>(i % 16);
    task.cpu_request = job.cpu_parallelism;
    task.cpu_usage = 0.5f * job.cpu_parallelism;
    task.mem_usage = job.mem_usage;
    trace.add_task(task);
  }
  for (std::size_t i = 0; i < kNumEvents; ++i) {
    trace.add_event({static_cast<util::TimeSec>(3 * i),
                     static_cast<std::int64_t>(i % kNumTasks), 0,
                     static_cast<std::int64_t>(i % 16),
                     i % 2 == 0 ? TaskEventType::kSubmit
                                : TaskEventType::kSchedule,
                     static_cast<std::uint8_t>(1 + i % 12)});
  }
  for (std::int64_t machine_id = 0; machine_id < 16; ++machine_id) {
    Machine m;
    m.machine_id = machine_id;
    m.cpu_capacity = 1.0f;
    m.mem_capacity = 0.5f;
    trace.add_machine(m);

    HostLoadSeries h(machine_id, /*start=*/300, /*period=*/300);
    for (int i = 0; i < 20; ++i) {
      const float cpu[kNumBands] = {0.1f, 0.2f, 0.3f};
      const float mem[kNumBands] = {0.1f, 0.1f, 0.2f};
      h.append(cpu, mem, 0.4f, 0.1f, i, i % 3);
    }
    trace.add_host_load(std::move(h));
  }
  trace.finalize();
  return trace;
}

std::string slurp(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void spit(const std::string& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class StoreDegradedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::configure("");
    dir_ = std::filesystem::temp_directory_path() /
           ("cgc_degraded_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "victim.cgcs").string();
    trace_ = make_trace();
    WriteOptions options;
    options.chunks.rows_per_chunk = kRowsPerChunk;
    write_cgcs(trace_, path_, options);
    bytes_ = slurp(path_);
  }
  void TearDown() override {
    fault::configure("");
    std::filesystem::remove_all(dir_);
  }

  /// First chunk of `section` with a payload, from a healthy reader.
  ChunkMeta find_chunk(SectionId section) const {
    const StoreReader reader(path_);
    for (const ChunkMeta& c : reader.chunks()) {
      if (c.section == section && c.payload_size > 0) {
        return c;
      }
    }
    ADD_FAILURE() << "no payload chunk in section "
                  << static_cast<int>(section);
    return {};
  }

  void corrupt_payload_byte(std::uint64_t offset) {
    std::string mutated = bytes_;
    ASSERT_LT(offset, mutated.size());
    mutated[offset] ^= 0x01;
    spit(path_, mutated);
  }

  std::filesystem::path dir_;
  std::string path_;
  std::string bytes_;
  TraceSet trace_;
};

TEST_F(StoreDegradedTest, EventChunkCorruptionDropsExactlyThatGroup) {
  const ChunkMeta victim = find_chunk(SectionId::kEvents);
  corrupt_payload_byte(victim.offset);

  // Strict mode still refuses the file outright.
  {
    const StoreReader strict(path_);
    EXPECT_THROW(strict.load_trace_set(), util::DataError);
  }

  const StoreReader reader(path_, ReadMode::kDegraded);
  const TraceSet degraded = reader.load_trace_set();
  const DamageReport damage = reader.damage();

  EXPECT_FALSE(damage.clean());
  EXPECT_EQ(damage.rows_lost, victim.row_count);
  EXPECT_EQ(degraded.events().size(), kNumEvents - victim.row_count);
  EXPECT_EQ(degraded.tasks().size(), kNumTasks);
  ASSERT_EQ(damage.chunks_quarantined(), 1u);
  EXPECT_EQ(damage.chunks[0].offset, victim.offset);
  EXPECT_NE(damage.chunks[0].reason.find("CRC"), std::string::npos)
      << damage.chunks[0].reason;

  // The surviving events are exactly the written ones minus the dropped
  // row range [row_begin, row_begin + row_count).
  for (std::size_t i = 0; i < degraded.events().size(); ++i) {
    const std::size_t original =
        i < victim.row_begin ? i : i + victim.row_count;
    EXPECT_EQ(degraded.events()[i].time, trace_.events()[original].time);
    EXPECT_EQ(degraded.events()[i].job_id, trace_.events()[original].job_id);
  }
}

TEST_F(StoreDegradedTest, ScanSkipsDamagedGroupAndAccounts) {
  const ChunkMeta victim = find_chunk(SectionId::kEvents);
  corrupt_payload_byte(victim.offset);

  const StoreReader reader(path_, ReadMode::kDegraded);
  std::size_t seen = 0;
  const ScanStats stats = reader.scan(
      EventPredicate{}, [&seen](std::span<const TaskEvent> batch) {
        seen += batch.size();
      });
  EXPECT_EQ(seen, kNumEvents - victim.row_count);
  EXPECT_EQ(stats.rows_decoded, kNumEvents - victim.row_count);
  EXPECT_EQ(reader.damage().rows_lost, victim.row_count);
}

TEST_F(StoreDegradedTest, RepeatedReadsAccountEachLossOnce) {
  const ChunkMeta events_victim = find_chunk(SectionId::kEvents);
  const ChunkMeta jobs_victim = find_chunk(SectionId::kJobs);
  ASSERT_EQ(events_victim.row_count, kRowsPerChunk);
  std::string mutated = bytes_;
  mutated[events_victim.offset] ^= 0x01;
  mutated[jobs_victim.offset] ^= 0x01;
  spit(path_, mutated);
  const std::string one_read =
      "2 chunks quarantined, 256 rows lost, " +
      std::to_string(jobs_victim.row_count) + " values defaulted";

  {
    const StoreReader reader(path_, ReadMode::kDegraded);
    reader.load_trace_set();
    EXPECT_EQ(reader.damage().summary(), one_read);
  }
  {
    const StoreReader reader(path_, ReadMode::kDegraded);
    reader.load_trace_set();
    reader.scan(EventPredicate{}, [](std::span<const TaskEvent>) {});
    EXPECT_EQ(reader.damage().rows_lost, 256u);
    EXPECT_EQ(reader.damage().summary(), one_read);
  }
  {
    const StoreReader reader(path_, ReadMode::kDegraded);
    reader.load_trace_set();
    reader.load_trace_set();
    EXPECT_EQ(reader.damage().rows_lost, 256u);
    EXPECT_EQ(reader.damage().values_defaulted, jobs_victim.row_count);
  }
}

TEST_F(StoreDegradedTest, SmallSectionDamageZeroFillsNotDrops) {
  const ChunkMeta victim = find_chunk(SectionId::kJobs);
  corrupt_payload_byte(victim.offset);

  const StoreReader reader(path_, ReadMode::kDegraded);
  const TraceSet degraded = reader.load_trace_set();
  const DamageReport damage = reader.damage();

  // Row counts are preserved; only the damaged column's values default.
  EXPECT_EQ(degraded.jobs().size(), kNumTasks);
  EXPECT_EQ(damage.rows_lost, 0u);
  EXPECT_EQ(damage.values_defaulted, victim.row_count);
}

TEST_F(StoreDegradedTest, InjectedCorruptionAccountsExactly) {
  fault::configure("store.chunk_crc:p=0.2,seed=17");

  // Expected damage, computed from the chunk directory and the same
  // pure fire function the reader consults.
  std::uint64_t expected_event_rows = 0;
  std::uint64_t expected_task_rows = 0;
  std::uint64_t expected_defaulted = 0;
  std::set<std::uint64_t> expected_offsets;
  {
    const StoreReader probe(path_);  // strict: directory only, no loads
    std::set<std::pair<int, std::uint64_t>> damaged_groups;
    for (const ChunkMeta& c : probe.chunks()) {
      if (!fault::inject("store.chunk_crc", c.offset)) {
        continue;
      }
      expected_offsets.insert(c.offset);
      if (c.section == SectionId::kTasks ||
          c.section == SectionId::kEvents) {
        damaged_groups.emplace(static_cast<int>(c.section), c.row_begin);
      } else {
        expected_defaulted += c.row_count;
      }
    }
    for (const ChunkMeta& c : probe.chunks()) {
      // Count each damaged row group once, via its first column chunk.
      if (damaged_groups.count(
              {static_cast<int>(c.section), c.row_begin}) == 0) {
        continue;
      }
      damaged_groups.erase({static_cast<int>(c.section), c.row_begin});
      (c.section == SectionId::kEvents ? expected_event_rows
                                       : expected_task_rows) += c.row_count;
    }
  }
  ASSERT_GT(expected_offsets.size(), 0u) << "spec injected nothing; tune p=";

  const auto run_degraded = [&](std::size_t workers) {
    util::ThreadPool pool(workers);
    exec::ScopedPool scoped(&pool);
    const StoreReader reader(path_, ReadMode::kDegraded);
    const TraceSet degraded = reader.load_trace_set();
    EXPECT_EQ(degraded.events().size(), kNumEvents - expected_event_rows);
    EXPECT_EQ(degraded.tasks().size(), kNumTasks - expected_task_rows);
    return reader.damage();
  };

  const DamageReport serial = run_degraded(1);
  EXPECT_EQ(serial.rows_lost, expected_event_rows + expected_task_rows);
  EXPECT_EQ(serial.values_defaulted, expected_defaulted);
  std::set<std::uint64_t> quarantined;
  for (const QuarantinedChunk& q : serial.chunks) {
    quarantined.insert(q.offset);
    EXPECT_NE(q.reason.find("injected fault"), std::string::npos)
        << q.reason;
  }
  EXPECT_EQ(quarantined, expected_offsets);

  // Same spec, different worker count: identical damage.
  const DamageReport parallel = run_degraded(8);
  EXPECT_EQ(parallel.rows_lost, serial.rows_lost);
  EXPECT_EQ(parallel.values_defaulted, serial.values_defaulted);
  EXPECT_EQ(parallel.chunks_quarantined(), serial.chunks_quarantined());
}

TEST_F(StoreDegradedTest, RepairRewritesCleanScanningFile) {
  const ChunkMeta victim = find_chunk(SectionId::kEvents);
  corrupt_payload_byte(victim.offset);

  DamageReport damage;
  const TraceSet salvaged = read_cgcs_degraded(path_, &damage);
  EXPECT_EQ(damage.rows_lost, victim.row_count);

  const std::string repaired = (dir_ / "repaired.cgcs").string();
  write_cgcs(salvaged, repaired);

  // The rewrite must scan clean in strict mode and keep the survivors.
  const TraceSet clean = read_cgcs(repaired);
  EXPECT_EQ(clean.events().size(), kNumEvents - victim.row_count);
  EXPECT_EQ(clean.tasks().size(), kNumTasks);
}

// ---------------------------------------------------------------------------
// Resealed-footer mutations: each row edits one footer field and then
// recomputes the footer CRC, so only the reader's directory checks can
// object. Strict open must throw DataError; degraded mode either refuses
// the open with DataError (the layout itself is damaged) or quarantines
// the chunk and loses a known, accounted amount.
// ---------------------------------------------------------------------------

/// Byte offsets into a sealed file's footer.
class FooterEdit {
 public:
  /// Fixed directory entry size: 3x u8 + 4x u64 + 2x i64 + 2x f64 + u32.
  static constexpr std::size_t kEntrySize = 71;
  static constexpr std::size_t kColumn = 1;
  static constexpr std::size_t kEncoding = 2;
  static constexpr std::size_t kOffset = 3;
  static constexpr std::size_t kRowBegin = 19;

  FooterEdit(std::string bytes, std::vector<ChunkMeta> chunks)
      : bytes_(std::move(bytes)),
        chunks_(std::move(chunks)),
        trailer_at_(bytes_.size() - kTrailerSize) {
    for (std::size_t i = 0; i < 8; ++i) {
      footer_offset_ |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                            bytes_[trailer_at_ + i]))
                        << (8 * i);
    }
  }

  /// Footer position of the first directory entry matching `section`
  /// (and `column`, when given); fails the test if there is none.
  std::size_t entry(SectionId section,
                    std::optional<ColumnId> column = std::nullopt) const {
    for (std::size_t i = 0; i < chunks_.size(); ++i) {
      if (chunks_[i].section == section &&
          (!column || chunks_[i].column == *column)) {
        return trailer_at_ - (chunks_.size() - i) * kEntrySize;
      }
    }
    ADD_FAILURE() << "no chunk in section " << static_cast<int>(section);
    return 0;
  }

  /// Footer position of the host-load series count: u32 version, the
  /// length-prefixed system name, i64 duration, u8 memory_in_mb and
  /// five u64 section row counts come first.
  std::size_t num_series(std::size_t system_name_size) const {
    return footer_offset_ + 4 + 4 + system_name_size + 8 + 1 + 5 * 8;
  }

  void set(std::size_t at, std::uint64_t value, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i) {
      bytes_[at + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
    }
  }

  /// The edited file with its footer CRC recomputed.
  std::string sealed() {
    const std::uint32_t crc = crc32(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(bytes_.data()) + footer_offset_,
        trailer_at_ - footer_offset_));
    set(trailer_at_ + 8, crc, 4);
    return bytes_;
  }

  std::uint64_t footer_offset() const { return footer_offset_; }

 private:
  std::string bytes_;
  std::vector<ChunkMeta> chunks_;
  std::size_t trailer_at_;
  std::uint64_t footer_offset_ = 0;
};

struct DirectoryMutation {
  const char* name;
  void (*edit)(FooterEdit*);
  const char* strict_error;  ///< substring of the strict DataError
  bool degraded_opens;       ///< quarantine (true) or refuse (false)
};

void PrintTo(const DirectoryMutation& m, std::ostream* os) { *os << m.name; }

const DirectoryMutation kDirectoryMutations[] = {
    // A host-load chunk re-pointed at the footer itself: its payload
    // then ends past footer_offset.
    {"ChunkOffsetAtFooter",
     [](FooterEdit* f) {
       f->set(f->entry(SectionId::kHostLoad, ColumnId::kPending) +
                  FooterEdit::kOffset,
              f->footer_offset(), 8);
     },
     "chunk payload out of bounds", true},
    {"TasksColumnId200",
     [](FooterEdit* f) {
       f->set(f->entry(SectionId::kTasks) + FooterEdit::kColumn, 200, 1);
     },
     "does not define", false},
    {"JobsRowBeginWraps",
     [](FooterEdit* f) {
       f->set(f->entry(SectionId::kJobs) + FooterEdit::kRowBegin,
              ~std::uint64_t{0} - 99, 8);
     },
     "chunk rows exceed section size", false},
    {"EventsOffsetWraps",
     [](FooterEdit* f) {
       f->set(f->entry(SectionId::kEvents) + FooterEdit::kOffset,
              ~std::uint64_t{0} - 7, 8);
     },
     "chunk payload out of bounds", true},
    {"NumSeriesTwoToThe40",
     [](FooterEdit* f) {
       f->set(f->num_series(std::string("degraded-test").size()),
              std::uint64_t{1} << 40, 8);
     },
     "series directory runs past the footer", false},
    {"U8ColumnStampedVarint",
     [](FooterEdit* f) {
       f->set(f->entry(SectionId::kEvents, ColumnId::kEventType) +
                  FooterEdit::kEncoding,
              static_cast<std::uint8_t>(Encoding::kVarint), 1);
     },
     "chunk encoding does not match its column", true},
    // Moving a tasks chunk into the events section leaves its tasks row
    // group one column short (tasks groups are checked first).
    {"TasksGroupMissingColumn",
     [](FooterEdit* f) {
       f->set(f->entry(SectionId::kTasks, ColumnId::kJobId),
              static_cast<std::uint8_t>(SectionId::kEvents), 1);
     },
     "tasks row group missing a column", false},
};

class DirectoryMutationTest
    : public StoreDegradedTest,
      public ::testing::WithParamInterface<DirectoryMutation> {};

TEST_P(DirectoryMutationTest, StrictThrowsDegradedNeverCrashes) {
  const DirectoryMutation& mutation = GetParam();
  std::vector<ChunkMeta> chunks;
  {
    const StoreReader healthy(path_);
    chunks = healthy.chunks();
  }
  FooterEdit edit(bytes_, std::move(chunks));
  mutation.edit(&edit);
  spit(path_, edit.sealed());

  try {
    const StoreReader strict(path_);
    ADD_FAILURE() << "strict open accepted the mutated directory";
  } catch (const util::DataError& e) {
    EXPECT_NE(std::string(e.what()).find(mutation.strict_error),
              std::string::npos)
        << e.what();
  }

  if (!mutation.degraded_opens) {
    EXPECT_THROW(StoreReader(path_, ReadMode::kDegraded), util::DataError);
    return;
  }
  const StoreReader reader(path_, ReadMode::kDegraded);
  const DamageReport at_open = reader.damage();
  ASSERT_EQ(at_open.chunks_quarantined(), 1u);
  EXPECT_NE(at_open.chunks[0].reason.find(mutation.strict_error),
            std::string::npos)
      << at_open.chunks[0].reason;
  // The rest of the file still loads.
  const TraceSet loaded = reader.load_trace_set();
  const DamageReport damage = reader.damage();
  EXPECT_GT(damage.rows_lost + damage.values_defaulted, 0u);
  EXPECT_EQ(loaded.events().size() + loaded.tasks().size() + damage.rows_lost,
            kNumEvents + kNumTasks);
  // A scan drops the same events row groups the load did.
  std::size_t scanned = 0;
  reader.scan(EventPredicate{}, [&scanned](std::span<const TaskEvent> batch) {
    scanned += batch.size();
  });
  EXPECT_EQ(scanned, loaded.events().size());
  // ... and accounts none of them a second time.
  EXPECT_EQ(reader.damage().summary(), damage.summary());
}

INSTANTIATE_TEST_SUITE_P(
    ResealedFooter, DirectoryMutationTest,
    ::testing::ValuesIn(kDirectoryMutations),
    [](const ::testing::TestParamInfo<DirectoryMutation>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace cgc::store
