// Unit tests for cgc::util basics: CGC_CHECK, Rng, time utils, tables,
// JSON string escaping, and a randomized model check of FlatHashMap
// (64-bit integer and trace::TaskKey keys).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "trace/types.hpp"
#include "util/check.hpp"
#include "util/flat_hash_map.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/time_util.hpp"

namespace cgc::util {
namespace {

TEST(Check, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(CGC_CHECK(1 + 1 == 2));
}

TEST(Check, FailingCheckThrowsWithExpression) {
  try {
    CGC_CHECK(1 + 1 == 3);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 + 1 == 3"), std::string::npos);
  }
}

TEST(Check, FailingCheckMsgIncludesMessage) {
  try {
    CGC_CHECK_MSG(false, "the custom message");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("the custom message"),
              std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (a.uniform() != b.uniform()) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all faces of the die show up
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(99);
  Rng split = a.split();
  // The split stream must not replay the parent's stream.
  Rng parent_copy(99);
  (void)parent_copy.engine()();  // consume the draw used by split()
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (split.uniform() != parent_copy.uniform()) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(TimeUtil, Conversions) {
  EXPECT_DOUBLE_EQ(to_days(kSecondsPerDay), 1.0);
  EXPECT_DOUBLE_EQ(to_hours(kSecondsPerHour * 3), 3.0);
  EXPECT_DOUBLE_EQ(to_minutes(90), 1.5);
  EXPECT_EQ(kSecondsPerMonth, 30 * 86400);
  EXPECT_EQ(kSamplePeriod, 300);
}

TEST(TimeUtil, FormatDuration) {
  EXPECT_EQ(format_duration(0), "00:00:00");
  EXPECT_EQ(format_duration(3661), "01:01:01");
  EXPECT_EQ(format_duration(2 * kSecondsPerDay + 3600), "2d 01:00:00");
  EXPECT_EQ(format_duration(-60), "-00:01:00");
}

TEST(Table, RendersAlignedRows) {
  AsciiTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22222 |"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  AsciiTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(cell_int(1234567), "1,234,567");
  EXPECT_EQ(cell_int(-1234), "-1,234");
  EXPECT_EQ(cell_int(999), "999");
  EXPECT_EQ(cell_int(0), "0");
  EXPECT_EQ(cell_ratio(6.4, 93.6), "6/94");
  EXPECT_EQ(cell_pct(0.5), "50.0%");
  EXPECT_EQ(cell_pct(0.123456, 2), "12.35%");
}

TEST(Json, EscapeTable) {
  struct Case {
    std::string in;
    std::string out;
  };
  const Case cases[] = {
      {"plain", "plain"},
      {"", ""},
      {"say \"hi\"", "say \\\"hi\\\""},
      {"a\\b", "a\\\\b"},
      {"l1\nl2", "l1\\nl2"},
      {"c1\tc2", "c1\\tc2"},
      {std::string("\x01"), "\\u0001"},
      {std::string("\x1f"), "\\u001f"},
      {std::string("\r"), "\\u000d"},
      {std::string("\0", 1), "\\u0000"},
      {" ~\x7f", " ~\x7f"},  // 0x20..0x7f pass through
      // Bytes >= 0x80 (UTF-8 here: "é", "—") pass through unchanged.
      {"caf\xc3\xa9 \xe2\x80\x94", "caf\xc3\xa9 \xe2\x80\x94"},
      {std::string("\x80\xff"), std::string("\x80\xff")},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(json_escape(c.in), c.out) << "input: " << c.in;
  }
}

// ---- FlatHashMap ------------------------------------------------------------

/// A FlatHashMap's contents in key order, for comparing with the model.
template <typename Key>
std::map<Key, std::int64_t> contents(
    const FlatHashMap<Key, std::int64_t>& table) {
  std::map<Key, std::int64_t> out;
  // cgc-lint: allow(unordered-iteration) collected into an ordered map.
  for (const auto& [key, value] : table) {
    out.emplace(key, value);
  }
  return out;
}

/// Drives a FlatHashMap and a std::map with the same random insert /
/// find / erase / erase_if sequence over `keys` and checks every answer
/// and, periodically, the full contents.
template <typename Key>
void model_check(const std::vector<Key>& keys, std::uint64_t seed,
                 std::size_t steps) {
  FlatHashMap<Key, std::int64_t> table;
  std::map<Key, std::int64_t> model;
  std::uint64_t state = seed;
  const auto draw = [&state] {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  for (std::size_t step = 0; step < steps; ++step) {
    const Key key = keys[draw() % keys.size()];
    const std::uint64_t op = draw() % 100;
    SCOPED_TRACE("step " + std::to_string(step));
    if (op < 40) {
      const auto [value, inserted] = table.try_emplace(key);
      const auto [it, model_inserted] = model.try_emplace(key, 0);
      ASSERT_EQ(inserted, model_inserted);
      ASSERT_EQ(*value, it->second);
      *value += static_cast<std::int64_t>(step);
      it->second += static_cast<std::int64_t>(step);
    } else if (op < 70) {
      ASSERT_EQ(table.erase(key), model.erase(key) == 1);
    } else if (op < 99) {
      const std::int64_t* found = table.find(key);
      const auto it = model.find(key);
      ASSERT_EQ(found != nullptr, it != model.end());
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second);
      }
    } else {
      const std::int64_t parity = static_cast<std::int64_t>(draw() % 2);
      const auto pred = [parity](const Key&, std::int64_t v) {
        return (v & 1) == parity;
      };
      table.erase_if(pred);
      std::erase_if(model, [&](const auto& kv) {
        return pred(kv.first, kv.second);
      });
    }
    ASSERT_EQ(table.size(), model.size());
    if (step % 512 == 0) {
      ASSERT_EQ(contents(table), model);
    }
  }
  ASSERT_EQ(contents(table), model);
}

TEST(FlatHashMapTest, MatchesStdMapOnRandomChurn) {
  std::vector<std::int64_t> keys;
  for (std::int64_t k = 0; k < 3000; ++k) {
    keys.push_back(k);
  }
  model_check(keys, 1, 200000);
}

TEST(FlatHashMapTest, MatchesStdMapOnExtremeAndReservedKeys) {
  // The free-slot marker, its neighbours, the int64 extremes and keys
  // packed as (job << 32) ^ task.
  const std::int64_t empty =
      FlatHashMap<std::int64_t, std::int64_t>::kEmptyKey;
  std::vector<std::int64_t> keys = {empty,
                                    empty - 1,
                                    empty + 1,
                                    0,
                                    -1,
                                    std::numeric_limits<std::int64_t>::min(),
                                    std::numeric_limits<std::int64_t>::max()};
  for (std::int64_t job = -3; job < 40; ++job) {
    for (std::int32_t task = -1; task < 5; ++task) {
      keys.push_back(static_cast<std::int64_t>(
          (static_cast<std::uint64_t>(job) << 32) ^
          static_cast<std::uint32_t>(task)));
    }
  }
  model_check(keys, 2, 100000);
}

/// Keys whose home slot is one of the last few slots of a 64-slot
/// table: their probe runs wrap past the end of the array, where a
/// backward-shift erase must move entries from the front to the back.
std::vector<std::int64_t> keys_homed_near_the_end(std::size_t count) {
  std::vector<std::int64_t> keys;
  for (std::uint64_t k = 1; keys.size() < count; ++k) {
    const std::uint64_t slot = (k * 0x9e3779b97f4a7c15ULL) >> 58;  // of 64
    if (slot >= 60) {
      keys.push_back(static_cast<std::int64_t>(k));
    }
  }
  return keys;
}

TEST(FlatHashMapTest, BackwardShiftEraseAcrossTheWrapAround) {
  // 20 keys all homed in slots 60-63 of a 64-slot table (the capacity
  // while 24 < size <= 48): their run covers slots 60..63 and 0..15.
  const std::vector<std::int64_t> keys = keys_homed_near_the_end(20);
  FlatHashMap<std::int64_t, std::int64_t> table;
  // Fill to 25 entries with unrelated keys first so the table has 64
  // slots, then erase those again.
  for (std::int64_t k = 0; k < 25; ++k) {
    table[-1000 - k] = k;
  }
  for (std::int64_t k = 0; k < 25; ++k) {
    ASSERT_TRUE(table.erase(-1000 - k));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    table[keys[i]] = static_cast<std::int64_t>(i);
  }
  // Erase every other key, front of the run first, checking the rest
  // stay reachable after each erase.
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    ASSERT_TRUE(table.erase(keys[i]));
    for (std::size_t j = 0; j < keys.size(); ++j) {
      const std::int64_t* v = table.find(keys[j]);
      if (j % 2 == 0 && j <= i) {
        ASSERT_EQ(v, nullptr) << j;
      } else {
        ASSERT_NE(v, nullptr) << j;
        ASSERT_EQ(*v, static_cast<std::int64_t>(j));
      }
    }
  }
  ASSERT_EQ(table.size(), keys.size() / 2);
  // erase_if across the wrap: drop the rest but one.
  table.erase_if([&](std::int64_t key, std::int64_t) {
    return key != keys[keys.size() - 1];
  });
  ASSERT_EQ(table.size(), 1u);
  ASSERT_NE(table.find(keys.back()), nullptr);
  // And a randomized run over the same wrap-heavy key set.
  model_check(keys_homed_near_the_end(24), 3, 50000);
}

TEST(FlatHashMapTest, TaskKeysThatPackedKeysWouldMergeStayApart) {
  // Job ids 2^32 apart share every low bit, and task -1 is all ones in
  // 32 bits: packed into one 64-bit word these pairs collide. As
  // TaskKeys (plus the free-slot marker and the int extremes) each is
  // its own entry.
  using trace::TaskKey;
  std::vector<TaskKey> keys = {
      FlatHashKey<TaskKey>::kEmpty,
      {FlatHashKey<TaskKey>::kEmpty.job_id, 0},
      {std::numeric_limits<std::int64_t>::min(),
       std::numeric_limits<std::int32_t>::max()},
      {std::numeric_limits<std::int64_t>::max(),
       std::numeric_limits<std::int32_t>::min()}};
  for (std::int64_t job = -3; job < 20; ++job) {
    for (const std::int64_t high : {std::int64_t{0}, std::int64_t{1} << 32,
                                    std::int64_t{7} << 40}) {
      for (std::int32_t task = -2; task < 4; ++task) {
        keys.push_back({job + high, task});
      }
    }
  }
  model_check(keys, 4, 100000);

  FlatHashMap<TaskKey, std::int64_t> table;
  table[{5, 0}] = 1;
  table[{5 + (std::int64_t{1} << 32), 0}] = 2;
  table[{5, -1}] = 3;
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(*table.find({5, 0}), 1);
  EXPECT_EQ(*table.find({5 + (std::int64_t{1} << 32), 0}), 2);
  EXPECT_EQ(*table.find({5, -1}), 3);
  EXPECT_EQ(table.find({5 + (std::int64_t{1} << 32), -1}), nullptr);
}

}  // namespace
}  // namespace cgc::util
