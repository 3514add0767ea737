// Unit tests for the CGCS byte-level encoding primitives: zigzag,
// varint columns, CRC-32, and the bounds-checked footer buffers.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "store/encoding.hpp"
#include "util/check.hpp"

namespace cgc::store {
namespace {

TEST(Zigzag, MapsSmallMagnitudesToSmallCodes) {
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
  EXPECT_EQ(zigzag_encode(2), 4u);
}

TEST(Zigzag, RoundTripsExtremes) {
  const std::int64_t values[] = {
      0,
      1,
      -1,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min(),
  };
  for (const std::int64_t v : values) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
}

TEST(VarintColumn, RoundTripsPlain) {
  const std::vector<std::int64_t> values = {0, 5, -3, 1'000'000'000'000,
                                            -42, 7};
  std::vector<std::uint8_t> bytes;
  encode_i64_column(values, /*delta=*/false, &bytes);
  std::vector<std::int64_t> decoded;
  decode_i64_column(bytes, values.size(), /*delta=*/false, &decoded);
  EXPECT_EQ(decoded, values);
}

TEST(VarintColumn, RoundTripsDelta) {
  // Sorted, monotone series — the delta path's target shape.
  std::vector<std::int64_t> values;
  for (std::int64_t t = 1'000'000; t < 1'000'200; t += 3) {
    values.push_back(t);
  }
  std::vector<std::uint8_t> bytes;
  encode_i64_column(values, /*delta=*/true, &bytes);
  // Small deltas encode in ~1 byte each, far below 8 bytes/value.
  EXPECT_LT(bytes.size(), values.size() * 3);
  std::vector<std::int64_t> decoded;
  decode_i64_column(bytes, values.size(), /*delta=*/true, &decoded);
  EXPECT_EQ(decoded, values);
}

TEST(VarintColumn, RoundTripsDeltaWithNegativeSteps) {
  const std::vector<std::int64_t> values = {100, 90, 95, -5, 1'000, 999};
  std::vector<std::uint8_t> bytes;
  encode_i64_column(values, /*delta=*/true, &bytes);
  std::vector<std::int64_t> decoded;
  decode_i64_column(bytes, values.size(), /*delta=*/true, &decoded);
  EXPECT_EQ(decoded, values);
}

TEST(VarintColumn, RoundTripsEmpty) {
  std::vector<std::uint8_t> bytes;
  encode_i64_column({}, /*delta=*/false, &bytes);
  EXPECT_TRUE(bytes.empty());
  std::vector<std::int64_t> decoded = {1, 2, 3};
  decode_i64_column(bytes, 0, /*delta=*/false, &decoded);
  EXPECT_TRUE(decoded.empty());
}

TEST(VarintColumn, ThrowsOnTruncatedBytes) {
  const std::vector<std::int64_t> values = {1, 2, 300'000};
  std::vector<std::uint8_t> bytes;
  encode_i64_column(values, /*delta=*/false, &bytes);
  std::vector<std::int64_t> decoded;
  const std::span<const std::uint8_t> cut(bytes.data(), bytes.size() - 1);
  EXPECT_THROW(decode_i64_column(cut, values.size(), false, &decoded),
               util::Error);
}

TEST(VarintColumn, ThrowsOnTrailingBytes) {
  const std::vector<std::int64_t> values = {1, 2, 3};
  std::vector<std::uint8_t> bytes;
  encode_i64_column(values, /*delta=*/false, &bytes);
  bytes.push_back(0x00);  // one spurious extra varint
  std::vector<std::int64_t> decoded;
  EXPECT_THROW(decode_i64_column(bytes, values.size(), false, &decoded),
               util::Error);
}

TEST(VarintColumn, ThrowsOnOverlongVarint) {
  // Eleven continuation bytes cannot be a valid 64-bit varint.
  std::vector<std::uint8_t> bytes(11, 0x80);
  std::vector<std::int64_t> decoded;
  EXPECT_THROW(decode_i64_column(bytes, 1, false, &decoded), util::Error);
}

TEST(Crc32, MatchesKnownCheckValue) {
  // The standard CRC-32 check string.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32({}), 0u); }

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(256);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37);
  }
  const std::uint32_t before = crc32(data);
  data[100] ^= 0x01;
  EXPECT_NE(crc32(data), before);
}

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320): the definition the
/// sliced implementation must reproduce.
std::uint32_t crc32_bitwise(const std::uint8_t* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..64 cover the byte tail, one wide block plus tail, and
  // several blocks; offsets 0..15 start the blocks at every alignment.
  std::vector<std::uint8_t> buffer(64 + 16);
  std::uint32_t x = 0x12345678u;
  for (std::uint8_t& b : buffer) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::uint8_t* p = buffer.data() + offset;
      EXPECT_EQ(crc32({p, len}), crc32_bitwise(p, len))
          << "offset " << offset << " length " << len;
    }
  }
  // A long all-ones run: every table entry's high-byte path.
  const std::vector<std::uint8_t> ones(1000, 0xFF);
  EXPECT_EQ(crc32(ones), crc32_bitwise(ones.data(), ones.size()));
}

TEST(FooterBuffer, RoundTripsAllTypes) {
  BufferWriter w;
  w.put_u8(0xAB);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i64(-42);
  w.put_f64(3.25);
  w.put_string("google-2011");

  BufferReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.25);
  EXPECT_EQ(r.get_string(), "google-2011");
  EXPECT_TRUE(r.exhausted());
}

TEST(FooterBuffer, ThrowsOnOverRead) {
  BufferWriter w;
  w.put_u32(7);
  BufferReader r(w.bytes());
  EXPECT_EQ(r.get_u32(), 7u);
  EXPECT_THROW(r.get_u32(), util::Error);
}

TEST(FooterBuffer, ThrowsOnTruncatedString) {
  BufferWriter w;
  w.put_string("hello");
  const auto& full = w.bytes();
  // Cut off mid-string: length prefix says 5, only 2 payload bytes left.
  BufferReader r(std::span<const std::uint8_t>(full.data(), 6));
  EXPECT_THROW(r.get_string(), util::Error);
}

}  // namespace
}  // namespace cgc::store
