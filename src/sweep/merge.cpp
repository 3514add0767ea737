#include "sweep/merge.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sweep/journal.hpp"
#include "util/check.hpp"

namespace cgc::sweep {

namespace fs = std::filesystem;

namespace {

/// Strips the volatile per-run fields from a record. What survives is
/// exactly the information two equivalent sweeps must agree on: case
/// identity, verdict, error text, and output digests.
CaseRecord canonical_record(const CaseRecord& r) {
  CaseRecord out;
  out.id = r.id;
  out.kind = r.kind;
  out.title = r.title;
  out.ok = r.ok;
  out.error = r.error;
  out.outputs = r.outputs;
  std::sort(out.outputs.begin(), out.outputs.end(),
            [](const CaseOutput& a, const CaseOutput& b) {
              return a.file < b.file;
            });
  // seconds/perf/attempts/resumed stay at their zero defaults.
  return out;
}

/// A verified output file and the case that recorded it first.
struct Placed {
  std::uint32_t crc = 0;
  std::uint64_t size = 0;
  std::string from_case;
};

/// Re-CRCs every output `r` recorded under `dir` against its record and
/// against the same file recorded by any case before it. Any
/// disagreement is a DataError: the shard dirs contradict themselves.
void verify_outputs(const std::string& dir, const CaseRecord& r,
                    std::map<std::string, Placed>* placed) {
  for (const CaseOutput& o : r.outputs) {
    const std::string src = dir + "/" + o.file;
    std::uint32_t crc = 0;
    std::uint64_t size = 0;
    if (!file_crc32(src, &crc, &size)) {
      throw util::DataError("case " + r.id + ": recorded output " + src +
                            " is unreadable — shard dir damaged");
    }
    if (crc != o.crc || size != o.size) {
      throw util::DataError(
          "digest disagreement on " + src + " (case " + r.id +
          "): recorded crc32 " + std::to_string(o.crc) + "/size " +
          std::to_string(o.size) + ", actual " + std::to_string(crc) + "/" +
          std::to_string(size));
    }
    const auto [it, inserted] =
        placed->emplace(o.file, Placed{crc, size, r.id});
    if (!inserted && (it->second.crc != crc || it->second.size != size)) {
      throw util::DataError(
          "output file " + o.file + " produced with different content by "
          "case " + it->second.from_case + " and case " + r.id +
          " — digest disagreement between shards");
    }
  }
}

}  // namespace

MergeResult merge_shards(const std::vector<std::string>& shard_dirs,
                         const MergeOptions& options) {
  CGC_CHECK_MSG(!shard_dirs.empty(), "merge needs at least one shard dir");
  CGC_CHECK_MSG(!options.out_dir.empty(), "merge needs an output dir");
  MergeResult result;
  SweepReport& merged = result.report;  // header totals accumulate here
  merged.complete = true;
  merged.merged = true;

  // ---- Pass 1: read every shard report into its claim and verify the
  // digests of its outputs, so every conflict surfaces before
  // check_claims reports an unfinished shard or an uncovered case. ----
  std::vector<SweepReport> reports(shard_dirs.size());
  std::map<std::string, Placed> placed;
  std::vector<ShardClaim> shards(shard_dirs.size());
  const SweepReport* first_done = nullptr;
  for (std::size_t d = 0; d < shard_dirs.size(); ++d) {
    SweepReport& report = reports[d];
    ShardClaim& shard = shards[d];
    shard.name = "shard dir " + shard_dirs[d];
    // Deterministic stand-in for reading a shard dir mid-write (e.g.
    // merging while a worker is still flushing): the report looks torn.
    const ReadStatus status =
        fault::inject("sweep.torn_merge_input", d)
            ? ReadStatus::kCorrupt
            : read_report_checked(shard_dirs[d] + "/report.json", &report);
    if (status != ReadStatus::kOk || !report.complete) {
      shard.unfinished = status == ReadStatus::kMissing ? "no report.json"
                         : status == ReadStatus::kCorrupt
                             ? "torn/corrupt report.json"
                             : "incomplete sweep (complete: false)";
      continue;
    }
    if (report.merged) {
      throw util::DataError(shard.name +
                            " holds an already-merged report — merging "
                            "merges is not meaningful");
    }
    if (first_done == nullptr) {
      first_done = &report;
      merged.fast_mode = report.fast_mode;
    } else if (report.fast_mode != first_done->fast_mode) {
      shard.foreign = "swept at a different scale (fast_mode mismatch)";
    }
    merged.chunks_quarantined += report.chunks_quarantined;
    merged.rows_lost += report.rows_lost;
    merged.values_defaulted += report.values_defaulted;
    merged.parse_lines_bad += report.parse_lines_bad;
    shard.stamp = report.shard;
    for (const CaseRecord& r : report.cases) {
      shard.ids.push_back(r.id);
      if (r.ok) {  // failed cases carry no trusted outputs
        verify_outputs(shard_dirs[d], r, &placed);
      }
    }
  }
  std::vector<std::string> expected_ids;
  expected_ids.reserve(options.expected.size());
  for (const CaseMeta& meta : options.expected) {
    expected_ids.push_back(meta.id);
  }
  const std::vector<Claim> claims = check_claims(
      shards, expected_ids, options.allow_partial, &result.notes);

  // ---- Pass 2: copy the claimed outputs, build canonical records. ----
  fs::create_directories(options.out_dir);
  std::set<std::string> copied;
  for (std::size_t i = 0; i < claims.size(); ++i) {
    if (!claims[i].claimed()) {
      const CaseMeta& meta = options.expected[i];
      CaseRecord missing;
      missing.id = meta.id;
      missing.kind = meta.kind;
      missing.title = meta.title;
      missing.error = "no shard completed this case";
      merged.cases.push_back(std::move(missing));
      ++result.cases_missing;
      continue;
    }
    const std::size_t d = static_cast<std::size_t>(claims[i].shard);
    const CaseRecord& record = reports[d].cases[claims[i].record];
    merged.cases.push_back(canonical_record(record));
    if (!record.ok) {
      ++result.cases_failed;
      continue;
    }
    ++result.cases_ok;
    for (const CaseOutput& o : record.outputs) {
      if (!copied.insert(o.file).second) {
        continue;  // a shared output, verified identical — keep first
      }
      const fs::path dest = fs::path(options.out_dir) / o.file;
      fs::create_directories(dest.parent_path());
      fs::copy_file(shard_dirs[d] + "/" + o.file, dest,
                    fs::copy_options::overwrite_existing);
      ++result.files_copied;
    }
  }

  // ---- Pass 3: the canonical report, written last (the commit marker).
  write_report(merged, options.out_dir + "/report.json");
  if (obs::metrics_enabled()) {
    static obs::Counter& cases = obs::counter("sweep.cases_merged");
    static obs::Counter& files = obs::counter("sweep.files_merged");
    cases.add(merged.cases.size());
    files.add(result.files_copied);
  }
  return result;
}

}  // namespace cgc::sweep
