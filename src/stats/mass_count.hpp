// Mass-count disparity analysis (Feitelson, "Workload Modeling").
//
// Paper reference: Section II.B defines the joint ratio and
// mm-distance; Figs 4 (task length), 9 (queue-state durations), 11
// (CPU usage), and 12 (memory usage) are mass-count plots, and the
// headline "6/94" Google task-length joint ratio is the paper's
// signature statistic. For a positive-valued sample it computes:
//   - the count CDF   Fc(x) = P(X <= x)
//   - the mass  CDF   Fm(x) = E[X * 1{X <= x}] / E[X]
//   - the joint ratio: at the crossover point x* where Fc + Fm = 1, the
//     pair (100*Fm(x*), 100*Fc(x*)) — written "X/Y" meaning Y% of the
//     items account for X% of the mass (e.g. Google task lengths: 6/94).
//   - the mm-distance: horizontal distance between the medians of the
//     two CDFs, |Fm^{-1}(0.5) - Fc^{-1}(0.5)|, in the sample's units.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

namespace cgc::stats {

/// Result of a mass-count disparity analysis.
struct MassCountResult {
  /// Joint-ratio small side (percent of mass at the crossover), in [0,50].
  double joint_ratio_mass = 0.0;
  /// Joint-ratio large side (percent of items at the crossover), in [50,100].
  double joint_ratio_count = 0.0;
  /// Horizontal distance between mass median and count median (sample units).
  double mm_distance = 0.0;
  /// Count median Fc^{-1}(0.5).
  double count_median = 0.0;
  /// Mass median Fm^{-1}(0.5).
  double mass_median = 0.0;
  /// Number of samples analyzed.
  std::size_t n = 0;

  /// True when the small joint-ratio side is at most `threshold` percent —
  /// the paper's informal "follows the Pareto principle" test (e.g. the
  /// 10/90 rule has threshold 10+margin).
  bool pareto_principle(double threshold = 20.0) const {
    return joint_ratio_mass <= threshold;
  }
};

/// Mass-count view of one non-negative sample. The constructor sorts
/// the sample (radix_sort) and builds its prefix mass once; disparity()
/// and plot() both read from that, so a figure that needs the
/// statistics and the curve sorts its sample once.
class MassCount {
 public:
  /// Throws if the sample is empty, holds a negative value or NaN, or
  /// its total mass is zero.
  explicit MassCount(std::vector<double> values);

  /// Joint ratio, medians and mm-distance of the sample.
  MassCountResult disparity() const;

  /// Plot series for a mass-count figure: up to `max_points` rows of
  /// (x, Fc(x), Fm(x)), rank-spaced like the paper's plots, plus the
  /// sample maximum at (1, 1) when the spacing skips it.
  std::vector<std::array<double, 3>> plot(std::size_t max_points = 200) const;

 private:
  double fc(std::size_t i) const;
  double fm(std::size_t i) const;

  std::vector<double> sorted_;
  std::vector<double> prefix_mass_;  // prefix_mass_[i] = sum of sorted_[0..i]
  double total_ = 0.0;
};

}  // namespace cgc::stats
