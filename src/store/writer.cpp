#include "store/writer.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <functional>
#include <type_traits>
#include <vector>

#include "store/encoding.hpp"
#include "util/check.hpp"

namespace cgc::store {

static_assert(std::endian::native == std::endian::little,
              "CGCS raw columns assume a little-endian host");

namespace {

using trace::HostLoadSeries;
using trace::TraceSet;

/// Serializes chunks sequentially and accumulates the directory.
class FileBuilder {
 public:
  FileBuilder(const std::string& path, ChunkOptions chunk_options)
      : out_(path, std::ios::binary), chunk_options_(chunk_options) {
    CGC_CHECK_MSG(out_.good(), "cannot open store file for writing: " + path);
    // Header: magic | version | flags | reserved. Everything goes
    // through write_bytes so offset_ tracks the true file position.
    write_bytes({reinterpret_cast<const std::uint8_t*>(kMagic.data()), 4});
    BufferWriter header;
    header.put_u32(kFormatVersion);
    header.put_u32(0);
    header.put_u32(0);
    write_bytes(header.bytes());
  }

  /// One column, one chunk per row group: varint (zigzag, optionally
  /// delta-encoded) for integer encodings, raw little-endian arrays
  /// otherwise — the reader exposes raw chunks zero-copy. `get(i)`
  /// returns row i's value.
  template <Encoding E, typename Get>
  void add_column(SectionId section, ColumnId column, std::size_t rows,
                  Get get) {
    using T = std::conditional_t<
        E == Encoding::kRawF32, float,
        std::conditional_t<E == Encoding::kRawU8, std::uint8_t,
                           std::int64_t>>;
    std::vector<T> scratch;
    std::vector<std::uint8_t> encoded;
    for_each_row_group(rows, [&](std::size_t lo, std::size_t hi) {
      scratch.clear();
      scratch.reserve(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) {
        scratch.push_back(static_cast<T>(get(i)));
      }
      ChunkMeta meta = base_meta(section, column, E, lo, hi - lo);
      for (const T v : scratch) {
        if constexpr (E == Encoding::kRawF32) {
          meta.real_min = std::min(meta.real_min, static_cast<double>(v));
          meta.real_max = std::max(meta.real_max, static_cast<double>(v));
        } else {
          meta.int_min = std::min<std::int64_t>(meta.int_min, v);
          meta.int_max = std::max<std::int64_t>(meta.int_max, v);
        }
      }
      if constexpr (std::is_same_v<T, std::int64_t>) {
        encoded.clear();
        encode_i64_column(scratch, E == Encoding::kDeltaVarint, &encoded);
        append_chunk(meta, encoded);
      } else {
        append_chunk(meta,
                     {reinterpret_cast<const std::uint8_t*>(scratch.data()),
                      scratch.size() * sizeof(T)});
      }
    });
  }

  /// Writes the footer + trailer. Call exactly once, last.
  void finish(const TraceSet& trace, std::size_t num_hostload_samples) {
    const std::uint64_t footer_offset = offset_;
    BufferWriter footer;
    footer.put_u32(kFormatVersion);
    footer.put_string(trace.system_name());
    footer.put_i64(trace.duration());
    footer.put_u8(trace.memory_in_mb() ? 1 : 0);
    footer.put_u64(trace.jobs().size());
    footer.put_u64(trace.tasks().size());
    footer.put_u64(trace.events().size());
    footer.put_u64(trace.machines().size());
    footer.put_u64(num_hostload_samples);
    // Host-load series directory: samples are flattened series-major, so
    // (machine_id, start, period, count) reconstructs every series.
    footer.put_u64(trace.host_load().size());
    for (const HostLoadSeries& h : trace.host_load()) {
      footer.put_i64(h.machine_id());
      footer.put_i64(h.start());
      footer.put_i64(h.period());
      footer.put_u64(h.size());
    }
    // Chunk directory.
    footer.put_u32(static_cast<std::uint32_t>(chunks_.size()));
    for (const ChunkMeta& c : chunks_) {
      footer.put_u8(static_cast<std::uint8_t>(c.section));
      footer.put_u8(static_cast<std::uint8_t>(c.column));
      footer.put_u8(static_cast<std::uint8_t>(c.encoding));
      footer.put_u64(c.offset);
      footer.put_u64(c.payload_size);
      footer.put_u64(c.row_begin);
      footer.put_u64(c.row_count);
      footer.put_i64(c.int_min);
      footer.put_i64(c.int_max);
      footer.put_f64(c.real_min);
      footer.put_f64(c.real_max);
      footer.put_u32(c.crc);
    }
    write_bytes(footer.bytes());

    BufferWriter trailer;
    trailer.put_u64(footer_offset);
    trailer.put_u32(crc32(footer.bytes()));
    write_bytes(trailer.bytes());
    write_bytes(
        {reinterpret_cast<const std::uint8_t*>(kEndMagic.data()), 4});
    out_.flush();
    CGC_CHECK_MSG(out_.good(), "I/O error writing store file");
  }

 private:
  void for_each_row_group(
      std::size_t rows,
      const std::function<void(std::size_t, std::size_t)>& fn) {
    const std::size_t group = chunk_options_.rows_per_chunk;
    for (std::size_t lo = 0; lo < rows; lo += group) {
      fn(lo, std::min(rows, lo + group));
    }
  }

  ChunkMeta base_meta(SectionId section, ColumnId column, Encoding encoding,
                      std::size_t row_begin, std::size_t row_count) {
    ChunkMeta meta;
    meta.section = section;
    meta.column = column;
    meta.encoding = encoding;
    meta.row_begin = row_begin;
    meta.row_count = row_count;
    return meta;
  }

  void append_chunk(ChunkMeta meta, std::span<const std::uint8_t> payload) {
    // Pad so every chunk starts 8-byte aligned (raw f32 spans need it).
    static constexpr std::uint8_t kZeros[kChunkAlignment] = {};
    const std::size_t misalign = offset_ % kChunkAlignment;
    if (misalign != 0) {
      write_bytes({kZeros, kChunkAlignment - misalign});
    }
    meta.offset = offset_;
    meta.payload_size = payload.size();
    meta.crc = crc32(payload);
    write_bytes(payload);
    chunks_.push_back(meta);
  }

  void write_bytes(std::span<const std::uint8_t> bytes) {
    out_.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    offset_ += bytes.size();
  }

  std::ofstream out_;
  ChunkOptions chunk_options_;
  std::uint64_t offset_ = 0;
  std::vector<ChunkMeta> chunks_;
};

/// Forward-only cursor over the flattened host-load sample index:
/// flat row i lives in series `series_idx` at sample `sample_idx`.
/// Column gathers visit rows strictly in order, so advancing is O(1)
/// amortized with no per-row search.
class HostLoadCursor {
 public:
  explicit HostLoadCursor(std::span<const HostLoadSeries> series)
      : series_(series) {
    skip_empty();
  }

  /// Moves to flat row `target` (>= current position).
  void advance_to(std::size_t target) {
    while (flat_ < target) {
      ++flat_;
      ++sample_;
      if (sample_ >= series_[series_idx_].size()) {
        ++series_idx_;
        sample_ = 0;
        skip_empty();
      }
    }
  }

  const HostLoadSeries& series() const { return series_[series_idx_]; }
  std::size_t sample() const { return sample_; }

 private:
  void skip_empty() {
    while (series_idx_ < series_.size() && series_[series_idx_].empty()) {
      ++series_idx_;
    }
  }

  std::span<const HostLoadSeries> series_;
  std::size_t series_idx_ = 0;
  std::size_t sample_ = 0;
  std::size_t flat_ = 0;
};

/// Getter for `field` of row i of `rows`.
template <typename Row, typename Field>
auto field_of(std::span<const Row> rows, Field Row::*field) {
  return [rows, field](std::size_t i) { return rows[i].*field; };
}

/// Getter over the flattened host-load rows: row i's value is
/// `metric(series, sample_index)`.
template <typename Metric>
auto hostload_column(std::span<const HostLoadSeries> series, Metric metric) {
  return [cursor = HostLoadCursor(series), metric](std::size_t i) mutable {
    cursor.advance_to(i);
    return metric(cursor.series(), cursor.sample());
  };
}

}  // namespace

void write_cgcs(const trace::TraceSet& trace, const std::string& path,
                const WriteOptions& options) {
  CGC_CHECK_MSG(options.chunks.rows_per_chunk > 0,
                "rows_per_chunk must be positive");
  FileBuilder file(path, options.chunks);
  using enum Encoding;
  using trace::Job;
  using trace::Machine;
  using trace::Task;
  using trace::TaskEvent;

  // -- jobs -----------------------------------------------------------------
  const auto jobs = trace.jobs();
  const std::size_t nj = jobs.size();
  file.add_column<kVarint>(SectionId::kJobs, ColumnId::kJobId, nj,
                           field_of(jobs, &Job::job_id));
  file.add_column<kVarint>(SectionId::kJobs, ColumnId::kUserId, nj,
                           field_of(jobs, &Job::user_id));
  file.add_column<kRawU8>(SectionId::kJobs, ColumnId::kPriority, nj,
                          field_of(jobs, &Job::priority));
  // Jobs are sorted by submit time after finalize(): delta-encode.
  file.add_column<kDeltaVarint>(SectionId::kJobs, ColumnId::kSubmitTime, nj,
                                field_of(jobs, &Job::submit_time));
  file.add_column<kVarint>(SectionId::kJobs, ColumnId::kEndTime, nj,
                           field_of(jobs, &Job::end_time));
  file.add_column<kVarint>(SectionId::kJobs, ColumnId::kNumTasks, nj,
                           field_of(jobs, &Job::num_tasks));
  file.add_column<kRawF32>(SectionId::kJobs, ColumnId::kCpuParallelism, nj,
                           field_of(jobs, &Job::cpu_parallelism));
  file.add_column<kRawF32>(SectionId::kJobs, ColumnId::kMemUsage, nj,
                           field_of(jobs, &Job::mem_usage));

  // -- tasks ----------------------------------------------------------------
  const auto tasks = trace.tasks();
  const std::size_t nt = tasks.size();
  // Tasks are sorted by (job_id, task_index) after finalize().
  file.add_column<kDeltaVarint>(SectionId::kTasks, ColumnId::kJobId, nt,
                                field_of(tasks, &Task::job_id));
  file.add_column<kVarint>(SectionId::kTasks, ColumnId::kTaskIndex, nt,
                           field_of(tasks, &Task::task_index));
  file.add_column<kRawU8>(SectionId::kTasks, ColumnId::kPriority, nt,
                          field_of(tasks, &Task::priority));
  file.add_column<kVarint>(SectionId::kTasks, ColumnId::kSubmitTime, nt,
                           field_of(tasks, &Task::submit_time));
  file.add_column<kVarint>(SectionId::kTasks, ColumnId::kScheduleTime, nt,
                           field_of(tasks, &Task::schedule_time));
  file.add_column<kVarint>(SectionId::kTasks, ColumnId::kEndTime, nt,
                           field_of(tasks, &Task::end_time));
  file.add_column<kRawU8>(SectionId::kTasks, ColumnId::kEndEvent, nt,
                          field_of(tasks, &Task::end_event));
  file.add_column<kVarint>(SectionId::kTasks, ColumnId::kMachineId, nt,
                           field_of(tasks, &Task::machine_id));
  file.add_column<kVarint>(SectionId::kTasks, ColumnId::kResubmits, nt,
                           field_of(tasks, &Task::resubmits));
  file.add_column<kRawF32>(SectionId::kTasks, ColumnId::kCpuRequest, nt,
                           field_of(tasks, &Task::cpu_request));
  file.add_column<kRawF32>(SectionId::kTasks, ColumnId::kMemRequest, nt,
                           field_of(tasks, &Task::mem_request));
  file.add_column<kRawF32>(SectionId::kTasks, ColumnId::kCpuUsage, nt,
                           field_of(tasks, &Task::cpu_usage));
  file.add_column<kRawF32>(SectionId::kTasks, ColumnId::kMemUsage, nt,
                           field_of(tasks, &Task::mem_usage));

  // -- events ---------------------------------------------------------------
  const auto events = trace.events();
  const std::size_t ne = events.size();
  // Events are time-sorted after finalize(): delta-encode the clock.
  file.add_column<kDeltaVarint>(SectionId::kEvents, ColumnId::kTime, ne,
                                field_of(events, &TaskEvent::time));
  file.add_column<kVarint>(SectionId::kEvents, ColumnId::kJobId, ne,
                           field_of(events, &TaskEvent::job_id));
  file.add_column<kVarint>(SectionId::kEvents, ColumnId::kTaskIndex, ne,
                           field_of(events, &TaskEvent::task_index));
  file.add_column<kVarint>(SectionId::kEvents, ColumnId::kMachineId, ne,
                           field_of(events, &TaskEvent::machine_id));
  file.add_column<kRawU8>(SectionId::kEvents, ColumnId::kEventType, ne,
                          field_of(events, &TaskEvent::type));
  file.add_column<kRawU8>(SectionId::kEvents, ColumnId::kPriority, ne,
                          field_of(events, &TaskEvent::priority));

  // -- machines -------------------------------------------------------------
  const auto machines = trace.machines();
  const std::size_t nm = machines.size();
  file.add_column<kVarint>(SectionId::kMachines, ColumnId::kMachineId, nm,
                           field_of(machines, &Machine::machine_id));
  file.add_column<kRawF32>(SectionId::kMachines, ColumnId::kCpuCapacity, nm,
                           field_of(machines, &Machine::cpu_capacity));
  file.add_column<kRawF32>(SectionId::kMachines, ColumnId::kMemCapacity, nm,
                           field_of(machines, &Machine::mem_capacity));
  file.add_column<kRawF32>(SectionId::kMachines,
                           ColumnId::kPageCacheCapacity, nm,
                           field_of(machines, &Machine::page_cache_capacity));
  file.add_column<kRawU8>(SectionId::kMachines, ColumnId::kAttributes, nm,
                          field_of(machines, &Machine::attributes));

  // -- host load (flattened series-major) -----------------------------------
  const auto host_load = trace.host_load();
  std::size_t ns = 0;
  for (const HostLoadSeries& h : host_load) {
    ns += h.size();
  }
  using trace::PriorityBand;
  const struct {
    ColumnId column;
    PriorityBand band;
    bool is_cpu;
  } band_columns[] = {
      {ColumnId::kCpuLow, PriorityBand::kLow, true},
      {ColumnId::kCpuMid, PriorityBand::kMid, true},
      {ColumnId::kCpuHigh, PriorityBand::kHigh, true},
      {ColumnId::kMemLow, PriorityBand::kLow, false},
      {ColumnId::kMemMid, PriorityBand::kMid, false},
      {ColumnId::kMemHigh, PriorityBand::kHigh, false},
  };
  for (const auto& bc : band_columns) {
    file.add_column<kRawF32>(
        SectionId::kHostLoad, bc.column, ns,
        hostload_column(host_load, [band = bc.band, is_cpu = bc.is_cpu](
                                       const HostLoadSeries& h,
                                       std::size_t i) {
          return is_cpu ? h.cpu(band, i) : h.mem(band, i);
        }));
  }
  file.add_column<kRawF32>(
      SectionId::kHostLoad, ColumnId::kMemAssigned, ns,
      hostload_column(host_load, [](const HostLoadSeries& h, std::size_t i) {
        return h.mem_assigned(i);
      }));
  file.add_column<kRawF32>(
      SectionId::kHostLoad, ColumnId::kPageCache, ns,
      hostload_column(host_load, [](const HostLoadSeries& h, std::size_t i) {
        return h.page_cache(i);
      }));
  file.add_column<kVarint>(
      SectionId::kHostLoad, ColumnId::kRunning, ns,
      hostload_column(host_load, [](const HostLoadSeries& h, std::size_t i) {
        return h.running(i);
      }));
  file.add_column<kVarint>(
      SectionId::kHostLoad, ColumnId::kPending, ns,
      hostload_column(host_load, [](const HostLoadSeries& h, std::size_t i) {
        return h.pending(i);
      }));

  file.finish(trace, ns);
}

}  // namespace cgc::store
