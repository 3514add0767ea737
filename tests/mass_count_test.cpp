// Tests for mass-count disparity — the paper's central statistical tool —
// and for radix_sort, the exact sort kernel under MassCount and Ecdf.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "stats/distributions.hpp"
#include "stats/mass_count.hpp"
#include "stats/radix_sort.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cgc::stats {
namespace {

// ---- radix_sort --------------------------------------------------------------

/// Bit patterns of `v`, so -0.0 and +0.0 (and every other value) are
/// compared exactly.
std::vector<std::uint64_t> bits_of(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (const double x : v) {
    out.push_back(std::bit_cast<std::uint64_t>(x));
  }
  return out;
}

/// radix_sort(v) is std::sort(v), bit for bit.
void expect_matches_std_sort(std::vector<double> v, const std::string& what) {
  std::vector<double> expected = v;
  std::sort(expected.begin(), expected.end());
  radix_sort(v);
  EXPECT_EQ(bits_of(v), bits_of(expected)) << what;
}

TEST(RadixSort, MatchesStdSortAcrossSizes) {
  util::Rng rng(31);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{255},
        std::size_t{256}, std::size_t{257}, std::size_t{1} << 20}) {
    std::vector<double> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      v.push_back(rng.uniform(-1e6, 1e6));
    }
    expect_matches_std_sort(v, "n=" + std::to_string(n));
  }
}

TEST(RadixSort, MatchesStdSortOnSpecialValues) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double inf = std::numeric_limits<double>::infinity();
  util::Rng rng(32);
  std::vector<double> v = {denorm,       3 * denorm,  -denorm,
                           inf,          -inf,        0.0,
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::lowest(),
                           -1.0,         1.0,         -2.5};
  for (int i = 0; i < 500; ++i) {
    // Duplicates: a few distinct values, each many times.
    v.push_back(static_cast<double>(rng.uniform_int(-3, 3)));
    v.push_back(-static_cast<double>(rng.uniform_int(0, 1000000000)));
    v.push_back(denorm * static_cast<double>(rng.uniform_int(1, 1000)));
  }
  expect_matches_std_sort(v, "special values");
  expect_matches_std_sort({inf, 1.0, inf, 0.0}, "+inf and +0.0");
  expect_matches_std_sort({-0.0}, "a lone -0.0");
  expect_matches_std_sort({2.0, -0.0, -1.0}, "-0.0 among negatives");
}

TEST(RadixSort, MatchesStdSortWhenHighBytesAreAllEqual) {
  // Integer-valued samples share every exponent/sign byte above their
  // range and have all-zero low mantissa bytes: most passes are skipped.
  util::Rng rng(33);
  std::vector<double> ints;
  std::vector<double> mantissa_only;  // one exponent, low bytes vary
  for (int i = 0; i < 4000; ++i) {
    ints.push_back(static_cast<double>(rng.uniform_int(0, 86400)));
    mantissa_only.push_back(1.0 + rng.uniform(0.0, 1.0));
  }
  expect_matches_std_sort(ints, "integer-valued");
  expect_matches_std_sort(mantissa_only, "one exponent");
  expect_matches_std_sort(std::vector<double>(300, 42.0), "all equal");
  // The last key differs from the rest in its lowest byte only: that
  // pass must still run.
  std::vector<double> one_off(300, std::nextafter(1.0, 2.0));
  one_off.back() = 1.0;
  expect_matches_std_sort(one_off, "one value one ulp down");
}

TEST(RadixSort, PutsNegativeZeroFirst) {
  std::vector<double> v = {0.0, -0.0, 1.0, -0.0, 0.0};
  radix_sort(v);
  EXPECT_EQ(bits_of(v), bits_of({-0.0, -0.0, 0.0, 0.0, 1.0}));
}

TEST(RadixSort, NanThrowsAndLeavesTheSampleAlone) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::vector<double>& sample :
       {std::vector<double>{nan}, std::vector<double>{3.0, nan, 1.0},
        std::vector<double>{-nan, 2.0}}) {
    std::vector<double> v = sample;
    EXPECT_THROW(radix_sort(v), util::Error);
    EXPECT_EQ(bits_of(v), bits_of(sample));
  }
  EXPECT_THROW(MassCount({1.0, nan}), util::Error);
}

// ---- MassCount ---------------------------------------------------------------

TEST(MassCount, ConstantSampleIsPerfectlyBalanced) {
  const std::vector<double> v(100, 5.0);
  const MassCountResult r = MassCount(v).disparity();
  // Every item carries identical mass: crossover at 50/50 and the two
  // medians coincide.
  EXPECT_NEAR(r.joint_ratio_mass, 50.0, 1.0);
  EXPECT_NEAR(r.joint_ratio_count, 50.0, 1.0);
  EXPECT_DOUBLE_EQ(r.mm_distance, 0.0);
}

TEST(MassCount, JointRatioSidesSumToHundred) {
  util::Rng rng(1);
  const LogNormal dist(100.0, 2.0);
  const std::vector<double> v = sample_many(dist, 5000, rng);
  const MassCountResult r = MassCount(v).disparity();
  EXPECT_NEAR(r.joint_ratio_mass + r.joint_ratio_count, 100.0, 1.0);
  EXPECT_LE(r.joint_ratio_mass, r.joint_ratio_count);
}

TEST(MassCount, HeavyTailIsSkewed) {
  util::Rng rng(2);
  // Bounded Pareto with a very heavy tail: few huge items carry most of
  // the mass -> Pareto-principle style joint ratio.
  const BoundedPareto dist(1.0, 1e6, 0.5);
  const std::vector<double> v = sample_many(dist, 20000, rng);
  const MassCountResult r = MassCount(v).disparity();
  EXPECT_LT(r.joint_ratio_mass, 20.0);
  EXPECT_GT(r.joint_ratio_count, 80.0);
  EXPECT_TRUE(r.pareto_principle());
  EXPECT_GT(r.mass_median, r.count_median);
}

TEST(MassCount, UniformIsMildlySkewed) {
  util::Rng rng(3);
  std::vector<double> v;
  for (int i = 0; i < 10000; ++i) {
    v.push_back(rng.uniform(0.0, 1.0));
  }
  const MassCountResult r = MassCount(v).disparity();
  // Uniform [0,1]: joint ratio lands near 40/60 analytically
  // (x* with Fc + Fm = 1 -> x + x^2 = 1 -> x = 0.618; Fm = 0.382).
  EXPECT_NEAR(r.joint_ratio_mass, 38.2, 3.0);
  EXPECT_NEAR(r.joint_ratio_count, 61.8, 3.0);
  // Count median 0.5, mass median sqrt(0.5) ~ 0.707.
  EXPECT_NEAR(r.mm_distance, 0.207, 0.03);
  EXPECT_FALSE(r.pareto_principle());
}

TEST(MassCount, ExponentialAnalyticCrossCheck) {
  util::Rng rng(4);
  std::vector<double> v;
  for (int i = 0; i < 20000; ++i) {
    v.push_back(rng.exponential(1.0));
  }
  const MassCountResult r = MassCount(v).disparity();
  // For Exp(1): count median ln 2 = 0.693; the mass CDF is the Gamma(2)
  // CDF, whose median is ~1.678. mm-distance ~ 0.985.
  EXPECT_NEAR(r.count_median, 0.693, 0.05);
  EXPECT_NEAR(r.mass_median, 1.678, 0.08);
  EXPECT_NEAR(r.mm_distance, 0.985, 0.1);
}

TEST(MassCount, EmptySampleThrows) {
  const std::vector<double> empty;
  EXPECT_THROW(MassCount(empty).disparity(), util::Error);
}

TEST(MassCount, NegativeValuesThrow) {
  const std::vector<double> v = {1.0, -2.0};
  EXPECT_THROW(MassCount(v).disparity(), util::Error);
}

TEST(MassCount, ZeroTotalMassThrows) {
  const std::vector<double> v = {0.0, 0.0};
  EXPECT_THROW(MassCount(v).disparity(), util::Error);
}

TEST(MassCountPlot, CurvesAreValidCdfs) {
  util::Rng rng(5);
  const LogNormal dist(10.0, 1.0);
  const std::vector<double> v = sample_many(dist, 3000, rng);
  const auto plot = MassCount(v).plot(150);
  ASSERT_FALSE(plot.empty());
  double prev_x = -1.0, prev_c = 0.0, prev_m = 0.0;
  for (const auto& row : plot) {
    EXPECT_GE(row[0], prev_x);
    EXPECT_GE(row[1], prev_c);
    EXPECT_GE(row[2], prev_m);
    // Count CDF dominates mass CDF for positive samples.
    EXPECT_GE(row[1], row[2] - 1e-9);
    prev_x = row[0];
    prev_c = row[1];
    prev_m = row[2];
  }
  EXPECT_DOUBLE_EQ(plot.back()[1], 1.0);
  EXPECT_DOUBLE_EQ(plot.back()[2], 1.0);
}

/// Property sweep: invariants hold across distributions and seeds.
struct MassCountCase {
  std::uint64_t seed;
  double sigma;  // lognormal sigma — skew knob
};

class MassCountProperty : public ::testing::TestWithParam<MassCountCase> {};

TEST_P(MassCountProperty, InvariantsHold) {
  util::Rng rng(GetParam().seed);
  const LogNormal dist(50.0, GetParam().sigma);
  const std::vector<double> v = sample_many(dist, 2000, rng);
  const MassCountResult r = MassCount(v).disparity();
  EXPECT_GE(r.joint_ratio_mass, 0.0);
  EXPECT_LE(r.joint_ratio_mass, r.joint_ratio_count);
  EXPECT_LE(r.joint_ratio_count, 100.0);
  EXPECT_NEAR(r.joint_ratio_mass + r.joint_ratio_count, 100.0, 1.5);
  EXPECT_GE(r.mm_distance, 0.0);
  EXPECT_GE(r.mass_median, r.count_median - 1e-9);
  EXPECT_EQ(r.n, 2000u);
}

INSTANTIATE_TEST_SUITE_P(
    SkewSweep, MassCountProperty,
    ::testing::Values(MassCountCase{10, 0.1}, MassCountCase{11, 0.5},
                      MassCountCase{12, 1.0}, MassCountCase{13, 1.5},
                      MassCountCase{14, 2.0}, MassCountCase{15, 2.5},
                      MassCountCase{16, 3.0}));

/// Larger sigma means more skew: joint-ratio small side shrinks.
TEST(MassCount, SkewMonotoneInSigma) {
  util::Rng rng(20);
  double prev_mass_side = 51.0;
  for (const double sigma : {0.2, 0.8, 1.6, 2.4}) {
    const LogNormal dist(10.0, sigma);
    const std::vector<double> v = sample_many(dist, 20000, rng);
    const double mass_side = MassCount(v).disparity().joint_ratio_mass;
    EXPECT_LT(mass_side, prev_mass_side + 1.0)
        << "sigma=" << sigma;
    prev_mass_side = mass_side;
  }
}

}  // namespace
}  // namespace cgc::stats
