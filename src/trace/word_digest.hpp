// WordDigest: the FNV-1a hasher behind TraceSet::content_digest().
//
// Every field is widened to a 64-bit word and its eight bytes are fed
// low byte first, so a digest depends only on logical content, never on
// struct layout or padding.
//
// The value is exactly byte-serial FNV-1a, but the run of uniform high
// bytes most words carry (zero for small values and float bit patterns,
// 0xff for negative values and -1 sentinels) folds into one step:
//   - a zero byte is `h *= P`, so k of them are `h *= P^k`;
//   - a 0xff byte is `h = (h ^ 0xff) * P`. Writing h = l + 256q with
//     l = h & 0xff, h ^ 0xff = (l ^ 0xff) + 256q, so one step maps h to
//     F(l) + (h - l) * P. h - l is a multiple of 256 and stays one after
//     the multiply, so F(h) keeps F(l)'s low byte and, by induction, k
//     steps give F^k(h) = h * P^k + (F^k(l) - l * P^k): a multiply plus
//     a term that depends only on l, tabulated at compile time.
// Only the low significant bytes take the serial xor-multiply steps.
// DESIGN.md §13 ("Content digest") has the argument in full.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

namespace cgc::trace {

class WordDigest {
 public:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  void word(std::uint64_t v) {
    const bool ones = static_cast<std::int64_t>(v) < 0;
    const int run =
        (ones ? std::countl_one(v) : std::countl_zero(v)) / 8;  // 0..8
    for (int i = run; i < 8; ++i) {
      h_ = (h_ ^ (v & 0xff)) * kPrime;
      v >>= 8;
    }
    const std::uint64_t ones_term =
        kOnesRun[static_cast<std::size_t>(run)][h_ & 0xff];
    h_ = h_ * kPow[static_cast<std::size_t>(run)] +
         (ones ? ones_term : 0);
  }
  void i64(std::int64_t v) { word(static_cast<std::uint64_t>(v)); }
  void f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    word(bits);
  }

  std::uint64_t value() const { return h_; }

 private:
  /// kPow[k] = P^k mod 2^64.
  static constexpr std::array<std::uint64_t, 9> kPow = [] {
    std::array<std::uint64_t, 9> p{};
    p[0] = 1;
    for (std::size_t k = 1; k < p.size(); ++k) {
      p[k] = p[k - 1] * kPrime;
    }
    return p;
  }();

  /// kOnesRun[k][l] = F^k(l) - l * P^k, where F is one FNV-1a step on
  /// a 0xff byte: the additive part of k such steps from any state with
  /// low byte l.
  static constexpr std::array<std::array<std::uint64_t, 256>, 9> kOnesRun =
      [] {
        std::array<std::array<std::uint64_t, 256>, 9> t{};
        for (std::uint64_t l = 0; l < 256; ++l) {
          std::uint64_t h = l;
          for (std::size_t k = 1; k < t.size(); ++k) {
            h = (h ^ 0xff) * kPrime;
            t[k][l] = h - l * kPow[k];
          }
        }
        return t;
      }();

  std::uint64_t h_ = kOffset;
};

}  // namespace cgc::trace
