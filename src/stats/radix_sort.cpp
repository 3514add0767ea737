#include "stats/radix_sort.hpp"

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>

#include "util/check.hpp"

namespace cgc::stats {

namespace {

constexpr unsigned kDigitBits = 8;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
constexpr unsigned kPasses = 64 / kDigitBits;
constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

// Keys live in double-typed storage between passes; memcpy moves them
// as plain bytes, never as floating-point values.
std::uint64_t load(const double* p) {
  std::uint64_t bits;
  std::memcpy(&bits, p, sizeof(bits));
  return bits;
}

void store(double* p, std::uint64_t bits) {
  std::memcpy(p, &bits, sizeof(bits));
}

std::uint64_t to_key(std::uint64_t bits) {
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

std::uint64_t from_key(std::uint64_t key) {
  return (key & kSignBit) != 0 ? key & ~kSignBit : ~key;
}

unsigned digit(std::uint64_t key, unsigned pass) {
  return static_cast<unsigned>(key >> (pass * kDigitBits)) & (kBuckets - 1);
}

/// One stable counting-sort pass over `n` keys from `src` into `dst`;
/// the first pass reads raw doubles and converts them to keys.
template <bool kFirst>
void scatter(const double* src, double* dst, std::size_t n, unsigned pass,
             const std::array<std::size_t, kBuckets>& count) {
  std::array<std::size_t, kBuckets> next;
  std::size_t offset = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    next[b] = offset;
    offset += count[b];
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t key = load(src + i);
    if constexpr (kFirst) {
      key = to_key(key);
    }
    store(dst + next[digit(key, pass)]++, key);
  }
}

}  // namespace

void radix_sort(std::span<double> values) {
  const std::size_t n = values.size();
  // One read-only pass builds every digit's histogram and finds NaNs.
  std::array<std::array<std::size_t, kBuckets>, kPasses> counts{};
  std::size_t nans = 0;
  for (const double& v : values) {
    nans += v != v ? 1 : 0;
    const std::uint64_t key = to_key(load(&v));
    for (unsigned p = 0; p < kPasses; ++p) {
      ++counts[p][digit(key, p)];
    }
  }
  CGC_CHECK_MSG(nans == 0, "cannot sort a sample holding NaN");
  if (n < 2) {
    return;
  }

  const std::uint64_t first_key = to_key(load(values.data()));
  auto scratch = std::make_unique_for_overwrite<double[]>(n);
  double* src = values.data();
  double* dst = scratch.get();
  bool keyed = false;  // src holds keys, not doubles
  for (unsigned p = 0; p < kPasses; ++p) {
    if (counts[p][digit(first_key, p)] == n) {
      continue;  // every key shares this digit: the pass is the identity
    }
    if (keyed) {
      scatter<false>(src, dst, n, p, counts[p]);
    } else {
      scatter<true>(src, dst, n, p, counts[p]);
      keyed = true;
    }
    std::swap(src, dst);
  }
  if (!keyed) {
    return;  // all values share one bit pattern
  }
  double* out = values.data();
  for (std::size_t i = 0; i < n; ++i) {
    store(out + i, from_key(load(src + i)));
  }
}

}  // namespace cgc::stats
