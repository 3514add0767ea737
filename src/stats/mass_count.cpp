#include "stats/mass_count.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "stats/radix_sort.hpp"
#include "util/check.hpp"

namespace cgc::stats {

MassCount::MassCount(std::vector<double> values) : sorted_(std::move(values)) {
  CGC_CHECK_MSG(!sorted_.empty(), "mass-count of empty sample");
  // The prefix-mass sweep runs serially in sorted order, so its sums do
  // not depend on the thread count or on the input order.
  radix_sort(sorted_);
  CGC_CHECK_MSG(sorted_.front() >= 0.0,
                "mass-count requires non-negative values");
  prefix_mass_.resize(sorted_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    acc += sorted_[i];
    prefix_mass_[i] = acc;
  }
  total_ = acc;
  CGC_CHECK_MSG(total_ > 0.0, "mass-count requires positive total mass");
}

double MassCount::fc(std::size_t i) const {
  return static_cast<double>(i + 1) / static_cast<double>(sorted_.size());
}

double MassCount::fm(std::size_t i) const { return prefix_mass_[i] / total_; }

MassCountResult MassCount::disparity() const {
  const std::size_t n = sorted_.size();
  MassCountResult result;
  result.n = n;

  // Crossover: smallest rank where Fc + Fm >= 1. Both CDFs are
  // monotonically nondecreasing in rank, so the sum is too.
  std::size_t lo = 0;
  std::size_t hi = n - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (fc(mid) + fm(mid) >= 1.0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  result.joint_ratio_mass = 100.0 * fm(lo);
  result.joint_ratio_count = 100.0 * fc(lo);
  // Express as small/large regardless of which CDF leads at the crossover
  // (for near-uniform samples the mass side can exceed 50).
  if (result.joint_ratio_mass > result.joint_ratio_count) {
    std::swap(result.joint_ratio_mass, result.joint_ratio_count);
  }

  // Medians of each CDF.
  const auto median_of = [&](auto cdf_at) {
    std::size_t a = 0;
    std::size_t b = n - 1;
    while (a < b) {
      const std::size_t mid = (a + b) / 2;
      if (cdf_at(mid) >= 0.5) {
        b = mid;
      } else {
        a = mid + 1;
      }
    }
    return sorted_[a];
  };
  result.count_median = median_of([this](std::size_t i) { return fc(i); });
  result.mass_median = median_of([this](std::size_t i) { return fm(i); });
  result.mm_distance = std::abs(result.mass_median - result.count_median);
  return result;
}

std::vector<std::array<double, 3>> MassCount::plot(
    std::size_t max_points) const {
  const std::size_t n = sorted_.size();
  const std::size_t step = std::max<std::size_t>(1, n / max_points);
  std::vector<std::array<double, 3>> out;
  out.reserve(n / step + 2);
  for (std::size_t i = 0; i < n; i += step) {
    out.push_back({sorted_[i], fc(i), fm(i)});
  }
  if (out.back()[0] != sorted_.back()) {
    out.push_back({sorted_.back(), 1.0, 1.0});
  }
  return out;
}

}  // namespace cgc::stats
