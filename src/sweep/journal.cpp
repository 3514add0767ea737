#include "sweep/journal.hpp"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <unordered_map>

#include "store/encoding.hpp"
#include "util/check.hpp"

namespace cgc::sweep {

void write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.flush()) {
      throw util::TransientError("cannot write " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw util::TransientError("cannot rename " + tmp + " -> " + path +
                               ": " + ec.message());
  }
}

ReadStatus read_file(const std::string& path, std::string* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // A stat error other than "not found" also means something is
    // there that we cannot reach.
    std::error_code ec;
    return std::filesystem::exists(path, ec) || ec ? ReadStatus::kCorrupt
                                                   : ReadStatus::kMissing;
  }
  std::string content{std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>()};
  if (in.bad()) {
    return ReadStatus::kCorrupt;
  }
  *bytes = std::move(content);
  return ReadStatus::kOk;
}

std::uint32_t crc32_of(std::string_view bytes) {
  return store::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

std::vector<Claim> check_claims(const std::vector<ShardClaim>& shards,
                                const std::vector<std::string>& expected,
                                bool allow_partial,
                                std::vector<std::string>* notes) {
  std::unordered_map<std::string_view, std::size_t> slot_of;
  slot_of.reserve(expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    slot_of.emplace(expected[i], i);
  }

  // Conflicts first, over every shard: no amount of rerunning fixes
  // them, so they must not hide behind an unfinished shard.
  std::vector<Claim> claims(expected.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const ShardClaim& shard = shards[s];
    if (!shard.foreign.empty()) {
      throw util::DataError(shard.name + ": " + shard.foreign +
                            " — not mergeable with the other shards");
    }
    if (!shard.unfinished.empty()) {
      continue;
    }
    for (std::size_t r = 0; r < shard.ids.size(); ++r) {
      const std::string& id = shard.ids[r];
      const auto it = slot_of.find(id);
      if (it == slot_of.end()) {
        throw util::DataError(shard.name + " reports unknown id " + id +
                              " — shard set does not match this merge");
      }
      if (!owns(shard.stamp, id)) {
        throw util::DataError(
            "partition mismatch: " + shard.name + " (stamp " +
            shard.stamp.str() + ") claims " + id +
            ", which hashes to shard " +
            std::to_string(shard_of(id, shard.stamp.total)));
      }
      Claim& claim = claims[it->second];
      if (claim.claimed()) {
        throw util::DataError(id + " claimed by both " +
                              shards[static_cast<std::size_t>(claim.shard)]
                                  .name +
                              " and " + shard.name +
                              " — overlapping shards");
      }
      claim = Claim{static_cast<int>(s), r};
    }
  }

  // Then what a rerun fixes: unfinished shards and unclaimed ids.
  for (const ShardClaim& shard : shards) {
    if (shard.unfinished.empty()) {
      continue;
    }
    if (!allow_partial) {
      throw util::TransientError(
          shard.name + ": " + shard.unfinished +
          " — resumable: rerun that shard with --resume, then merge "
          "again");
    }
    notes->push_back(shard.name + ": " + shard.unfinished +
                     "; its ids degrade to failed");
  }
  for (std::size_t i = 0; i < expected.size() && !allow_partial; ++i) {
    if (!claims[i].claimed()) {
      throw util::TransientError(expected[i] +
                                 " appears in no shard — resumable: run "
                                 "the shard that owns it, then merge "
                                 "again");
    }
  }
  return claims;
}

}  // namespace cgc::sweep
