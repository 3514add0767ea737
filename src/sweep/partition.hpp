// Deterministic case partitioning for multi-process sweep sharding.
//
// A sweep fans out as N shard workers, each running the subset of bench
// cases it owns. Ownership is a pure function of the case id and the
// shard count — a stable FNV-1a/splitmix64 hash of the id string, mod N
// — so it is independent of registry (link) order, of which binary
// computes it, and of every other case in the run. Any subset of shards
// can therefore run anywhere (cores, CI jobs, machines) and the union
// of their outputs is exactly the single-process sweep, with no
// coordination beyond agreeing on N.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace cgc::sweep {

/// One worker's slice of the case universe: shard `index` of `total`.
struct ShardSpec {
  int index = 0;  ///< 0-based shard number
  int total = 1;  ///< shard count; 1 = the whole sweep

  /// True when this spec actually splits the sweep.
  bool sharded() const { return total > 1; }
  /// "i/N" — the same syntax parse_shard_spec() accepts.
  std::string str() const;

  bool operator==(const ShardSpec&) const = default;
};

/// Parses "i/N" (0 <= i < N, N >= 1). Throws cgc::util::FatalError on
/// anything else — a bad shard spec is an operator error, not data.
ShardSpec parse_shard_spec(const std::string& spec);

/// Stable 64-bit hash of a case id: FNV-1a over the bytes, finalized
/// with the splitmix64 mixer so short ids still spread over shards.
/// This is the sharding contract — changing it strands old shard dirs.
std::uint64_t stable_case_hash(std::string_view case_id);

/// Shard owning `case_id` under an N-way split (0-based).
int shard_of(std::string_view case_id, int total);

/// True when `spec` owns `case_id`.
bool owns(const ShardSpec& spec, std::string_view case_id);

}  // namespace cgc::sweep
