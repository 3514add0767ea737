#include "store/reader.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>

#include "exec/parallel.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "store/encoding.hpp"
#include "util/check.hpp"

namespace cgc::store {

static_assert(std::endian::native == std::endian::little,
              "CGCS raw columns assume a little-endian host");

static_assert(kNumColumnIds <= 32, "damaged-column masks are 32-bit");

namespace {

using trace::HostLoadSeries;
using trace::kNumBands;

constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
/// Footer bytes of one host-load series entry (3x i64 + u64) and of one
/// chunk directory entry (3x u8 + 4x u64 + 2x i64 + 2x f64 + u32).
constexpr std::size_t kSeriesEntrySize = 32;
constexpr std::size_t kChunkEntrySize = 71;

std::string bad_file(const std::string& path, const std::string& why) {
  return "not a valid CGCS file (" + why + "): " + path;
}

constexpr std::size_t col(ColumnId c) { return static_cast<std::size_t>(c); }
constexpr std::uint32_t column_bit(ColumnId c) { return 1u << col(c); }

}  // namespace

std::string DamageReport::summary() const {
  return std::to_string(chunks.size()) + " chunks quarantined, " +
         std::to_string(rows_lost) + " rows lost, " +
         std::to_string(values_defaulted) + " values defaulted";
}

StoreReader::StoreReader(const std::string& path, ReadMode mode)
    : file_(path), mode_(mode) {
  if (obs::metrics_enabled()) {
    static obs::Counter& files_opened = obs::counter("store.files_opened");
    static obs::Counter& bytes_mapped = obs::counter("store.bytes_mapped");
    files_opened.add(1);
    bytes_mapped.add(file_.data().size());
  }
  parse_footer();
  std::vector<std::atomic<bool>> flags(chunks_.size());
  crc_checked_ = std::move(flags);
  std::vector<std::atomic<bool>> bad(chunks_.size());
  chunk_bad_ = std::move(bad);
  build_index();
}

StoreReader::~StoreReader() = default;

void StoreReader::parse_footer() {
  const auto data = file_.data();
  const std::string& path = file_.path();
  const auto require = [&path](bool ok, const std::string& why) {
    if (!ok) {
      throw util::DataError(bad_file(path, why));
    }
  };
  require(data.size() >= kHeaderSize + kTrailerSize,
          "file shorter than header + trailer");
  require(std::memcmp(data.data(), kMagic.data(), 4) == 0, "bad magic");
  BufferReader header(data.subspan(4, kHeaderSize - 4));
  const std::uint32_t version = header.get_u32();
  require(version == kFormatVersion,
          "unsupported format version " + std::to_string(version));
  require(std::memcmp(data.data() + data.size() - 4, kEndMagic.data(), 4) == 0,
          "bad end magic (truncated file?)");

  BufferReader trailer(
      data.subspan(data.size() - kTrailerSize, kTrailerSize - 4));
  const std::uint64_t footer_offset = trailer.get_u64();
  const std::uint32_t footer_crc = trailer.get_u32();
  require(footer_offset >= kHeaderSize &&
              footer_offset <= data.size() - kTrailerSize,
          "footer offset out of bounds");
  const auto footer_bytes = data.subspan(
      footer_offset, data.size() - kTrailerSize - footer_offset);
  require(crc32(footer_bytes) == footer_crc, "footer CRC mismatch");

  BufferReader footer(footer_bytes);
  require(footer.get_u32() == kFormatVersion,
          "footer/header version disagreement");
  info_.system_name = footer.get_string();
  info_.duration = footer.get_i64();
  info_.memory_in_mb = footer.get_u8() != 0;
  info_.num_jobs = footer.get_u64();
  info_.num_tasks = footer.get_u64();
  info_.num_events = footer.get_u64();
  info_.num_machines = footer.get_u64();
  info_.num_hostload_samples = footer.get_u64();
  info_.file_size = data.size();
  // Every row costs at least one payload byte in each of its columns, so
  // no section holds more rows than the file has bytes; this caps every
  // allocation load_trace_set() sizes by a row count.
  for (const std::uint64_t rows :
       {info_.num_jobs, info_.num_tasks, info_.num_events, info_.num_machines,
        info_.num_hostload_samples}) {
    require(rows <= data.size(), "section row count exceeds file size");
  }

  const std::uint64_t num_series = footer.get_u64();
  require(num_series <= footer.remaining() / kSeriesEntrySize,
          "series directory runs past the footer");
  info_.num_hostload_series = num_series;
  series_.reserve(num_series);
  std::uint64_t sample_total = 0;
  for (std::uint64_t i = 0; i < num_series; ++i) {
    SeriesMeta s;
    s.machine_id = footer.get_i64();
    s.start = footer.get_i64();
    s.period = footer.get_i64();
    s.samples = footer.get_u64();
    require(s.period > 0, "non-positive series period");
    require(s.samples <= info_.num_hostload_samples - sample_total,
            "series directory disagrees with sample count");
    sample_total += s.samples;
    series_.push_back(s);
  }
  require(sample_total == info_.num_hostload_samples,
          "series directory disagrees with sample count");

  const std::uint32_t num_chunks = footer.get_u32();
  require(num_chunks <= footer.remaining() / kChunkEntrySize,
          "chunk directory runs past the footer");
  chunks_.reserve(num_chunks);
  for (std::uint32_t i = 0; i < num_chunks; ++i) {
    ChunkMeta c;
    const std::uint8_t section = footer.get_u8();
    require(section < kNumSections, "chunk section id out of range");
    c.section = static_cast<SectionId>(section);
    c.column = static_cast<ColumnId>(footer.get_u8());
    const std::uint8_t encoding = footer.get_u8();
    require(encoding <= static_cast<std::uint8_t>(Encoding::kDeltaVarint),
            "chunk encoding out of range");
    c.encoding = static_cast<Encoding>(encoding);
    c.offset = footer.get_u64();
    c.payload_size = footer.get_u64();
    c.row_begin = footer.get_u64();
    c.row_count = footer.get_u64();
    c.int_min = footer.get_i64();
    c.int_max = footer.get_i64();
    c.real_min = footer.get_f64();
    c.real_max = footer.get_f64();
    c.crc = footer.get_u32();
    chunks_.push_back(c);
  }
  require(footer.exhausted(), "footer has trailing bytes");
  info_.num_chunks = chunks_.size();
  footer_offset_ = footer_offset;
}

void StoreReader::build_index() {
  const std::string& path = file_.path();
  const std::uint64_t section_rows[kNumSections] = {
      info_.num_jobs, info_.num_tasks, info_.num_events, info_.num_machines,
      info_.num_hostload_samples};
  const auto layout_error = [&path](SectionId s, const std::string& why) {
    return util::DataError(
        bad_file(path, std::string(section_name(s)) + " " + why));
  };

  // A chunk's column and row range place it in the layout: a wrong one
  // is directory damage in either mode. Its encoding and payload bounds
  // are its own damage, which degraded mode quarantines. Every check is
  // written so that no sum of footer fields can wrap.
  std::array<std::vector<const ChunkMeta*>, kNumSections> by_section;
  for (const ChunkMeta& c : chunks_) {
    const auto s = static_cast<std::size_t>(c.section);
    const auto defs = section_columns(c.section);
    const auto def = std::find_if(
        defs.begin(), defs.end(),
        [&c](const ColumnDef& d) { return d.column == c.column; });
    if (def == defs.end()) {
      throw layout_error(c.section, "chunk has column id " +
                                        std::to_string(col(c.column)) +
                                        ", which the section does not define");
    }
    if (c.row_begin > section_rows[s] ||
        c.row_count > section_rows[s] - c.row_begin) {
      throw layout_error(c.section, "chunk rows exceed section size");
    }
    std::string reason;
    if (value_kind(c.encoding) != def->kind) {
      reason = "chunk encoding does not match its column";
    } else if (c.offset < kHeaderSize || c.offset > footer_offset_ ||
               c.payload_size > footer_offset_ - c.offset) {
      // Payloads must live in [header, footer).
      reason = "chunk payload out of bounds";
    } else if (c.encoding == Encoding::kRawF32) {
      if (c.payload_size != c.row_count * sizeof(float)) {
        reason = "raw f32 chunk payload size mismatch";
      } else if (c.offset % alignof(float) != 0) {
        reason = "raw f32 chunk misaligned";
      }
    } else if (c.encoding == Encoding::kRawU8) {
      if (c.payload_size != c.row_count) {
        reason = "raw u8 chunk payload size mismatch";
      }
    } else if (c.payload_size < c.row_count) {
      reason = "varint chunk shorter than one byte per row";
    }
    if (!reason.empty()) {
      if (mode_ == ReadMode::kStrict) {
        throw util::DataError(bad_file(path, reason));
      }
      quarantine(c, reason);
    }
    by_section[s].push_back(&c);
  }

  // Group each section's chunks by row_begin. Every group must hold the
  // section's columns exactly once over one row range, and the groups
  // must tile the section.
  for (std::size_t s = 0; s < kNumSections; ++s) {
    const auto section = static_cast<SectionId>(s);
    std::vector<const ChunkMeta*>& list = by_section[s];
    std::sort(list.begin(), list.end(),
              [](const ChunkMeta* a, const ChunkMeta* b) {
                return a->row_begin != b->row_begin
                           ? a->row_begin < b->row_begin
                           : a->column < b->column;
              });
    const std::size_t width = section_columns(section).size();
    section_begin_[s] = groups_.size();
    std::uint64_t next_row = 0;
    for (std::size_t i = 0; i < list.size();) {
      RowGroup g;
      g.section = section;
      g.row_begin = list[i]->row_begin;
      g.row_count = list[i]->row_count;
      if (g.row_begin != next_row || g.row_count == 0) {
        throw layout_error(section, "row groups do not tile the section");
      }
      std::size_t columns = 0;
      for (; i < list.size() && list[i]->row_begin == g.row_begin; ++i) {
        const ChunkMeta* c = list[i];
        if (c->row_count != g.row_count) {
          throw layout_error(section, "row group chunks disagree on rows");
        }
        const ChunkMeta*& slot = g.cols[col(c->column)];
        if (slot != nullptr) {
          throw layout_error(section, "row group repeats a column");
        }
        slot = c;
        ++columns;
      }
      if (columns != width) {
        throw layout_error(section, "row group missing a column");
      }
      next_row += g.row_count;
      groups_.push_back(g);
    }
    if (next_row != section_rows[s]) {
      throw layout_error(section, "row groups do not tile the section");
    }
  }
  section_begin_[kNumSections] = groups_.size();
}

std::span<const StoreReader::RowGroup> StoreReader::groups(
    SectionId section) const {
  const auto s = static_cast<std::size_t>(section);
  return std::span(groups_).subspan(section_begin_[s],
                                    section_begin_[s + 1] - section_begin_[s]);
}

std::size_t StoreReader::chunk_index(const ChunkMeta& chunk) const {
  const ChunkMeta* base = chunks_.data();
  return (&chunk >= base && &chunk < base + chunks_.size())
             ? static_cast<std::size_t>(&chunk - base)
             : kNoIndex;
}

std::string StoreReader::verify_payload(const ChunkMeta& chunk) const {
  // Verify the CRC once per directory chunk; copies of ChunkMeta passed
  // from outside the directory are verified every time. Races on the
  // memo flags are benign — both sides compute the same answer.
  const std::size_t idx = chunk_index(chunk);
  if (idx != kNoIndex && crc_checked_[idx].load(std::memory_order_relaxed)) {
    return {};
  }
  if (fault::armed() && fault::inject("store.chunk_crc", chunk.offset)) {
    return "injected fault at store.chunk_crc (section " +
           std::string(section_name(chunk.section)) + ")";
  }
  const auto span = file_.data().subspan(chunk.offset, chunk.payload_size);
  bool crc_ok;
  if (obs::metrics_enabled()) {
    static obs::Histogram& crc_ns = obs::histogram("store.crc_ns");
    const std::uint64_t start = obs::now_ns();
    crc_ok = crc32(span) == chunk.crc;
    crc_ns.observe(obs::now_ns() - start);
  } else {
    crc_ok = crc32(span) == chunk.crc;
  }
  if (!crc_ok) {
    return "chunk CRC mismatch in section " +
           std::string(section_name(chunk.section));
  }
  if (idx != kNoIndex) {
    // exchange() makes the first-transition test exact, so the verified
    // count is one per chunk even when racing accessors double-check.
    const bool already = crc_checked_[idx].exchange(true,
                                                    std::memory_order_relaxed);
    if (!already && obs::metrics_enabled()) {
      static obs::Counter& verified = obs::counter("store.chunks_verified");
      verified.add(1);
    }
  }
  return {};
}

void StoreReader::quarantine(const ChunkMeta& chunk,
                             const std::string& reason) const {
  const std::size_t idx = chunk_index(chunk);
  util::MutexLock lock(damage_mutex_);
  if (idx != kNoIndex) {
    if (chunk_bad_[idx].load(std::memory_order_relaxed)) {
      return;  // already recorded by another accessor
    }
    chunk_bad_[idx].store(true, std::memory_order_relaxed);
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& quarantined =
        obs::counter("store.chunks_quarantined");
    quarantined.add(1);
  }
  QuarantinedChunk q;
  q.section = chunk.section;
  q.column = chunk.column;
  q.offset = chunk.offset;
  q.payload_size = chunk.payload_size;
  q.row_begin = chunk.row_begin;
  q.row_count = chunk.row_count;
  q.reason = reason;
  damage_.chunks.push_back(std::move(q));
}

bool StoreReader::chunk_ok(const ChunkMeta& chunk) const noexcept {
  const std::size_t idx = chunk_index(chunk);
  if (idx != kNoIndex &&
      chunk_bad_[idx].load(std::memory_order_relaxed)) {
    return false;
  }
  const std::string reason = verify_payload(chunk);
  if (reason.empty()) {
    return true;
  }
  quarantine(chunk, reason);
  return false;
}

DamageReport StoreReader::damage() const {
  util::MutexLock lock(damage_mutex_);
  return damage_;
}

std::span<const std::uint8_t> StoreReader::payload(
    const ChunkMeta& chunk) const {
  const std::size_t idx = chunk_index(chunk);
  if (idx != kNoIndex &&
      chunk_bad_[idx].load(std::memory_order_relaxed)) {
    throw util::DataError(
        bad_file(file_.path(), "access to quarantined chunk in section " +
                                   std::string(section_name(chunk.section))));
  }
  const std::string reason = verify_payload(chunk);
  if (!reason.empty()) {
    if (mode_ == ReadMode::kDegraded) {
      quarantine(chunk, reason);
    }
    throw util::DataError(bad_file(file_.path(), reason));
  }
  return file_.data().subspan(chunk.offset, chunk.payload_size);
}

std::vector<const ChunkMeta*> StoreReader::column_chunks(
    SectionId section, ColumnId column) const {
  std::vector<const ChunkMeta*> out;
  for (const RowGroup& g : groups(section)) {
    if (col(column) < kNumColumnIds && g.cols[col(column)] != nullptr) {
      out.push_back(g.cols[col(column)]);
    }
  }
  return out;
}

std::span<const float> StoreReader::f32_span(const ChunkMeta& chunk) const {
  CGC_CHECK_MSG(chunk.encoding == Encoding::kRawF32,
                "f32_span() on a non-raw-f32 chunk");
  const auto bytes = payload(chunk);
  return {reinterpret_cast<const float*>(bytes.data()), chunk.row_count};
}

std::span<const std::uint8_t> StoreReader::u8_span(
    const ChunkMeta& chunk) const {
  CGC_CHECK_MSG(chunk.encoding == Encoding::kRawU8,
                "u8_span() on a non-raw-u8 chunk");
  return payload(chunk);
}

void StoreReader::decode_i64(const ChunkMeta& chunk,
                             std::vector<std::int64_t>* out) const {
  CGC_CHECK_MSG(chunk.encoding == Encoding::kVarint ||
                    chunk.encoding == Encoding::kDeltaVarint,
                "decode_i64() on a non-integer chunk");
  if (obs::metrics_enabled()) {
    static obs::Counter& decoded = obs::counter("store.chunks_decoded");
    static obs::Histogram& decode_ns = obs::histogram("store.decode_ns");
    decoded.add(1);
    const std::uint64_t start = obs::now_ns();
    decode_i64_column(payload(chunk), chunk.row_count,
                      chunk.encoding == Encoding::kDeltaVarint, out);
    decode_ns.observe(obs::now_ns() - start);
    return;
  }
  decode_i64_column(payload(chunk), chunk.row_count,
                    chunk.encoding == Encoding::kDeltaVarint, out);
}

void StoreReader::account_loss(const RowGroup& g, std::uint32_t bad) const {
  const auto gi = static_cast<std::size_t>(&g - groups_.data());
  util::MutexLock lock(damage_mutex_);
  if (loss_accounted_.empty()) {
    loss_accounted_.resize(groups_.size(), 0);
  }
  std::uint32_t& seen = loss_accounted_[gi];
  if (g.section == SectionId::kTasks || g.section == SectionId::kEvents) {
    if (seen == 0) {
      damage_.rows_lost += g.row_count;
    }
  } else {
    damage_.values_defaulted +=
        static_cast<std::uint64_t>(std::popcount(bad & ~seen)) * g.row_count;
  }
  seen |= bad;
}

std::uint32_t StoreReader::damaged_columns(const RowGroup& g) const {
  if (mode_ != ReadMode::kDegraded) {
    return 0;
  }
  std::uint32_t bad = 0;
  for (const ColumnDef& d : section_columns(g.section)) {
    // Check every column (no short-circuit) so the DamageReport lists
    // all damaged chunks, not just the first per group.
    if (!chunk_ok(*g.cols[col(d.column)])) {
      bad |= column_bit(d.column);
    }
  }
  return bad;
}

/// A row group's columns in a decoder's hands: integer chunks decoded
/// into owned buffers, raw chunks as zero-copy pointers into the
/// mapping. Columns left out of the decode stay null.
struct StoreReader::GroupColumns {
  std::array<std::vector<std::int64_t>, kNumColumnIds> ints;
  std::array<const void*, kNumColumnIds> data{};

  const std::int64_t* i64(ColumnId c) const {
    return static_cast<const std::int64_t*>(data[col(c)]);
  }
  const float* f32(ColumnId c) const {
    return static_cast<const float*>(data[col(c)]);
  }
  const std::uint8_t* u8(ColumnId c) const {
    return static_cast<const std::uint8_t*>(data[col(c)]);
  }
};

StoreReader::GroupColumns StoreReader::decode_group(
    const RowGroup& g, std::uint32_t skip) const {
  GroupColumns out;
  for (const ColumnDef& d : section_columns(g.section)) {
    if ((skip & column_bit(d.column)) != 0) {
      continue;
    }
    const std::size_t k = col(d.column);
    const ChunkMeta& chunk = *g.cols[k];
    switch (d.kind) {
      case ValueKind::kI64:
        decode_i64(chunk, &out.ints[k]);
        out.data[k] = out.ints[k].data();
        break;
      case ValueKind::kF32:
        out.data[k] = f32_span(chunk).data();
        break;
      case ValueKind::kU8:
        out.data[k] = u8_span(chunk).data();
        break;
    }
  }
  return out;
}

void StoreReader::decode_events(const RowGroup& g,
                                trace::TaskEvent* dst) const {
  const GroupColumns c = decode_group(g, /*skip=*/0);
  const std::int64_t* time = c.i64(ColumnId::kTime);
  const std::int64_t* job_id = c.i64(ColumnId::kJobId);
  const std::int64_t* task_index = c.i64(ColumnId::kTaskIndex);
  const std::int64_t* machine_id = c.i64(ColumnId::kMachineId);
  const std::uint8_t* type = c.u8(ColumnId::kEventType);
  const std::uint8_t* priority = c.u8(ColumnId::kPriority);
  for (std::size_t i = 0; i < g.row_count; ++i) {
    trace::TaskEvent& e = dst[i];
    e.time = time[i];
    e.job_id = job_id[i];
    e.task_index = static_cast<std::int32_t>(task_index[i]);
    e.machine_id = machine_id[i];
    e.type = static_cast<trace::TaskEventType>(type[i]);
    e.priority = priority[i];
  }
}

namespace {

/// `*field = column[i]`; a null column (quarantined in degraded mode)
/// leaves the field at its record default.
template <typename Field, typename Value>
void put(Field* field, const Value* column, std::size_t i) {
  if (column != nullptr) {
    *field = static_cast<Field>(column[i]);
  }
}

}  // namespace

trace::TraceSet StoreReader::load_trace_set() const {
  obs::ScopedTimer timer("store.load_trace_set");
  std::vector<trace::Job> jobs(info_.num_jobs);
  std::vector<trace::Task> tasks(info_.num_tasks);
  std::vector<trace::TaskEvent> events(info_.num_events);
  std::vector<trace::Machine> machines(info_.num_machines);
  // Host load lands in flat per-column arrays, indexed by column id,
  // and is sliced into per-machine series below.
  std::array<std::vector<float>, kNumColumnIds> hl_f32;
  std::array<std::vector<std::int32_t>, kNumColumnIds> hl_i32;
  for (const ColumnDef& d : section_columns(SectionId::kHostLoad)) {
    if (d.kind == ValueKind::kF32) {
      hl_f32[col(d.column)].resize(info_.num_hostload_samples);
    } else {
      hl_i32[col(d.column)].resize(info_.num_hostload_samples);
    }
  }

  // One pass over every row group of every section, fanned out over
  // cgc::exec. Each group owns a disjoint row range, so the fan-out is
  // race free, and fills its destination structs in a single sweep of
  // its rows instead of one sweep per column. Degraded mode drops a
  // tasks/events group with any damaged column — a columnar row missing
  // a field is not a usable record, and group granularity keeps the
  // surviving rows exactly as written; the holes are compacted out
  // after the fan-out. A damaged jobs/machines/host-load column keeps
  // the record defaults instead, so row counts and the host-load time
  // grids survive.
  util::Mutex lost_mutex;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> lost_tasks;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> lost_events;
  exec::parallel_for(0, groups_.size(), [&](std::size_t gi) {
    const RowGroup& g = groups_[gi];
    const std::size_t n = g.row_count;
    const std::uint32_t bad = damaged_columns(g);
    if (bad != 0) {
      account_loss(g, bad);
      if (g.section == SectionId::kTasks || g.section == SectionId::kEvents) {
        util::MutexLock lock(lost_mutex);
        (g.section == SectionId::kTasks ? lost_tasks : lost_events)
            .emplace_back(g.row_begin, n);
        return;
      }
    }
    if (g.section == SectionId::kEvents) {
      decode_events(g, events.data() + g.row_begin);
      return;
    }
    const GroupColumns c = decode_group(g, bad);
    switch (g.section) {
      case SectionId::kTasks: {
        const std::int64_t* job_id = c.i64(ColumnId::kJobId);
        const std::int64_t* task_index = c.i64(ColumnId::kTaskIndex);
        const std::uint8_t* priority = c.u8(ColumnId::kPriority);
        const std::int64_t* submit = c.i64(ColumnId::kSubmitTime);
        const std::int64_t* schedule = c.i64(ColumnId::kScheduleTime);
        const std::int64_t* end = c.i64(ColumnId::kEndTime);
        const std::uint8_t* end_event = c.u8(ColumnId::kEndEvent);
        const std::int64_t* machine_id = c.i64(ColumnId::kMachineId);
        const std::int64_t* resubmits = c.i64(ColumnId::kResubmits);
        const float* cpu_request = c.f32(ColumnId::kCpuRequest);
        const float* mem_request = c.f32(ColumnId::kMemRequest);
        const float* cpu_usage = c.f32(ColumnId::kCpuUsage);
        const float* mem_usage = c.f32(ColumnId::kMemUsage);
        trace::Task* dst = tasks.data() + g.row_begin;
        for (std::size_t i = 0; i < n; ++i) {
          trace::Task& t = dst[i];
          t.job_id = job_id[i];
          t.task_index = static_cast<std::int32_t>(task_index[i]);
          t.priority = priority[i];
          t.submit_time = submit[i];
          t.schedule_time = schedule[i];
          t.end_time = end[i];
          t.end_event = static_cast<trace::TaskEventType>(end_event[i]);
          t.machine_id = machine_id[i];
          t.resubmits = static_cast<std::int32_t>(resubmits[i]);
          t.cpu_request = cpu_request[i];
          t.mem_request = mem_request[i];
          t.cpu_usage = cpu_usage[i];
          t.mem_usage = mem_usage[i];
        }
        break;
      }
      case SectionId::kJobs: {
        trace::Job* dst = jobs.data() + g.row_begin;
        for (std::size_t i = 0; i < n; ++i) {
          trace::Job& j = dst[i];
          put(&j.job_id, c.i64(ColumnId::kJobId), i);
          put(&j.user_id, c.i64(ColumnId::kUserId), i);
          put(&j.priority, c.u8(ColumnId::kPriority), i);
          put(&j.submit_time, c.i64(ColumnId::kSubmitTime), i);
          put(&j.end_time, c.i64(ColumnId::kEndTime), i);
          put(&j.num_tasks, c.i64(ColumnId::kNumTasks), i);
          put(&j.cpu_parallelism, c.f32(ColumnId::kCpuParallelism), i);
          put(&j.mem_usage, c.f32(ColumnId::kMemUsage), i);
        }
        break;
      }
      case SectionId::kMachines: {
        trace::Machine* dst = machines.data() + g.row_begin;
        for (std::size_t i = 0; i < n; ++i) {
          trace::Machine& m = dst[i];
          put(&m.machine_id, c.i64(ColumnId::kMachineId), i);
          put(&m.cpu_capacity, c.f32(ColumnId::kCpuCapacity), i);
          put(&m.mem_capacity, c.f32(ColumnId::kMemCapacity), i);
          put(&m.page_cache_capacity, c.f32(ColumnId::kPageCacheCapacity),
              i);
          put(&m.attributes, c.u8(ColumnId::kAttributes), i);
        }
        break;
      }
      case SectionId::kHostLoad:
        for (const ColumnDef& d : section_columns(SectionId::kHostLoad)) {
          const std::size_t k = col(d.column);
          if (c.data[k] == nullptr) {
            continue;
          }
          if (d.kind == ValueKind::kF32) {
            std::copy_n(c.f32(d.column), n, hl_f32[k].begin() + g.row_begin);
          } else {
            std::transform(c.ints[k].begin(), c.ints[k].end(),
                           hl_i32[k].begin() + g.row_begin,
                           [](std::int64_t v) {
                             return static_cast<std::int32_t>(v);
                           });
          }
        }
        break;
      case SectionId::kEvents:
        break;  // decoded above
    }
  }, /*grain=*/1);

  // Compact the dropped row groups out of the task/event arrays,
  // highest range first so earlier offsets stay valid.
  auto compact = [&]<typename T>(std::vector<T>* rows,
                                 std::vector<std::pair<std::uint64_t,
                                                       std::uint64_t>>
                                     lost) {
    std::sort(lost.begin(), lost.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [begin, count] : lost) {
      rows->erase(rows->begin() + static_cast<std::ptrdiff_t>(begin),
                  rows->begin() + static_cast<std::ptrdiff_t>(begin + count));
    }
  };
  compact(&tasks, std::move(lost_tasks));
  compact(&events, std::move(lost_events));

  // Rebuild the per-machine series from the flat columns; each series
  // owns a disjoint sample range, so this also fans out cleanly.
  std::vector<std::size_t> series_offset(series_.size() + 1, 0);
  for (std::size_t i = 0; i < series_.size(); ++i) {
    series_offset[i + 1] = series_offset[i] + series_[i].samples;
  }
  std::vector<HostLoadSeries> host_load(series_.size());
  exec::parallel_for(0, series_.size(), [&](std::size_t si) {
    const SeriesMeta& meta = series_[si];
    HostLoadSeries series(meta.machine_id, meta.start, meta.period);
    const std::size_t base = series_offset[si];
    const std::size_t n = meta.samples;
    const auto f32 = [&](ColumnId c) {
      return std::span<const float>(hl_f32[col(c)]).subspan(base, n);
    };
    const auto i32 = [&](ColumnId c) {
      return std::span<const std::int32_t>(hl_i32[col(c)]).subspan(base, n);
    };
    const std::span<const float> cpu[kNumBands] = {
        f32(ColumnId::kCpuLow), f32(ColumnId::kCpuMid),
        f32(ColumnId::kCpuHigh)};
    const std::span<const float> mem[kNumBands] = {
        f32(ColumnId::kMemLow), f32(ColumnId::kMemMid),
        f32(ColumnId::kMemHigh)};
    series.append_samples(cpu, mem, f32(ColumnId::kMemAssigned),
                          f32(ColumnId::kPageCache), i32(ColumnId::kRunning),
                          i32(ColumnId::kPending));
    host_load[si] = std::move(series);
  }, /*grain=*/1);

  trace::TraceSet trace(info_.system_name);
  trace.set_memory_in_mb(info_.memory_in_mb);
  trace.adopt_jobs(std::move(jobs));
  trace.adopt_tasks(std::move(tasks));
  trace.adopt_events(std::move(events));
  trace.adopt_machines(std::move(machines));
  trace.adopt_host_load(std::move(host_load));
  trace.set_duration(info_.duration);
  trace.finalize();
  return trace;
}

ScanStats StoreReader::scan(
    const EventPredicate& predicate,
    const std::function<void(std::span<const trace::TaskEvent>)>& fn) const {
  obs::ScopedTimer timer("store.scan");
  const std::span<const RowGroup> groups = this->groups(SectionId::kEvents);
  ScanStats stats;
  stats.row_groups_total = groups.size();

  // Zone-map pushdown: a group survives only if its time and job_id
  // ranges can intersect the predicate's bounds.
  std::vector<const RowGroup*> survivors;
  for (const RowGroup& g : groups) {
    const ChunkMeta& time = *g.cols[col(ColumnId::kTime)];
    const ChunkMeta& job_id = *g.cols[col(ColumnId::kJobId)];
    if ((predicate.time_min && time.int_max < *predicate.time_min) ||
        (predicate.time_max && time.int_min > *predicate.time_max) ||
        (predicate.job_id_min && job_id.int_max < *predicate.job_id_min) ||
        (predicate.job_id_max && job_id.int_min > *predicate.job_id_max)) {
      continue;
    }
    survivors.push_back(&g);
  }
  stats.row_groups_scanned = survivors.size();

  // Decode surviving groups in parallel with load_trace_set()'s events
  // decoder, keep the matches, and deliver them serially in file order.
  std::vector<std::vector<trace::TaskEvent>> slots(survivors.size());
  std::atomic<std::size_t> decoded{0};
  exec::parallel_for(0, survivors.size(), [&](std::size_t gi) {
    const RowGroup& g = *survivors[gi];
    if (const std::uint32_t bad = damaged_columns(g); bad != 0) {
      account_loss(g, bad);
      return;
    }
    std::vector<trace::TaskEvent> rows(g.row_count);
    decode_events(g, rows.data());
    std::copy_if(rows.begin(), rows.end(), std::back_inserter(slots[gi]),
                 [&predicate](const trace::TaskEvent& e) {
                   return predicate.matches(e);
                 });
    decoded.fetch_add(g.row_count, std::memory_order_relaxed);
  }, /*grain=*/1);
  stats.rows_decoded = decoded.load();

  for (const std::vector<trace::TaskEvent>& slot : slots) {
    stats.rows_matched += slot.size();
    if (!slot.empty()) {
      fn(slot);
    }
  }
  return stats;
}

std::vector<trace::TaskEvent> StoreReader::query_events(
    const EventPredicate& predicate) const {
  std::vector<trace::TaskEvent> out;
  scan(predicate, [&](std::span<const trace::TaskEvent> batch) {
    out.insert(out.end(), batch.begin(), batch.end());
  });
  return out;
}

trace::TraceSet read_cgcs(const std::string& path) {
  return StoreReader(path).load_trace_set();
}

trace::TraceSet read_cgcs_degraded(const std::string& path,
                                   DamageReport* damage) {
  const StoreReader reader(path, ReadMode::kDegraded);
  trace::TraceSet trace = reader.load_trace_set();
  if (damage != nullptr) {
    *damage = reader.damage();
  }
  return trace;
}

}  // namespace cgc::store
