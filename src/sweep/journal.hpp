// The checkpoint mechanics shared by cgc_report's report.json (sweep)
// and cgc_plan's sealed .cgcp (plan); each stack keeps its own format.
//
// check_claims() raises the one merge taxonomy (DESIGN.md §14):
//   * DataError (exit 2 via error::merge_exit_code) — a foreign
//     experiment, an id the shard's stamp does not own, an id outside
//     the expected universe, or an id claimed twice: rerunning cannot
//     fix contradictory inputs;
//   * TransientError (exit 1) — an unfinished shard or an id no shard
//     claims: rerun that shard, then merge again.
// Every DataError is raised before any TransientError, so a shard set
// that contradicts itself is reported as such even when another shard
// is merely unfinished.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sweep/partition.hpp"

namespace cgc::sweep {

/// What a checkpoint read found at its path.
enum class ReadStatus {
  kOk,       ///< read (and, for the format readers, parsed)
  kMissing,  ///< no file — a fresh run
  kCorrupt,  ///< a file is there but unreadable, torn, or not ours
};

/// Writes `bytes` to `path + ".tmp"`, checks the flush, and renames it
/// over `path`. Throws util::TransientError on any failure.
void write_file_atomic(const std::string& path, std::string_view bytes);

/// Reads the whole file at `path` into `*bytes`. kMissing when nothing
/// is there; kCorrupt when something is there but cannot be opened or
/// read (a permission-denied checkpoint must not pass for a fresh run).
ReadStatus read_file(const std::string& path, std::string* bytes);

/// CRC-32 (store::crc32) of a byte string.
std::uint32_t crc32_of(std::string_view bytes);

/// One shard's side of a merge, as check_claims() sees it.
struct ShardClaim {
  std::string name;        ///< names the shard in messages
  ShardSpec stamp;         ///< the partition the shard says it ran
  std::string unfinished;  ///< why it is not complete; "" = complete
  std::string foreign;     ///< why it is another experiment's; "" = ours
  std::vector<std::string> ids;  ///< record ids, in record order
};

/// Which shard owns an expected id: `shard` indexes the claims and
/// `record` the owner's ids; `shard` < 0 when no shard claims it.
struct Claim {
  int shard = -1;
  std::size_t record = 0;

  bool claimed() const { return shard >= 0; }
};

/// Checks every shard's claims against the `expected` id universe and
/// returns one Claim per expected id, in `expected` order. Unfinished
/// shards claim nothing. Throws as the file comment describes; with
/// `allow_partial`, an unfinished shard appends a note to `*notes` and
/// an unclaimed id comes back with claimed() == false (`notes` may be
/// null without `allow_partial`).
std::vector<Claim> check_claims(const std::vector<ShardClaim>& shards,
                                const std::vector<std::string>& expected,
                                bool allow_partial,
                                std::vector<std::string>* notes);

}  // namespace cgc::sweep
