// Tests for the host-load prediction module.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "gen/google_model.hpp"
#include "gen/grid_model.hpp"
#include "gen/workload_model.hpp"
#include "predict/evaluation.hpp"
#include "predict/predictors.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cgc::predict {
namespace {

TEST(LastValue, PredictsLastObservation) {
  LastValuePredictor p;
  p.observe(3.0);
  EXPECT_DOUBLE_EQ(p.predict(), 3.0);
  p.observe(7.0);
  EXPECT_DOUBLE_EQ(p.predict(), 7.0);
  p.reset();
  EXPECT_DOUBLE_EQ(p.predict(), 0.0);
}

TEST(MovingAverage, AveragesWindow) {
  MovingAveragePredictor p(3);
  p.observe(1.0);
  p.observe(2.0);
  EXPECT_DOUBLE_EQ(p.predict(), 1.5);  // partial window
  p.observe(3.0);
  EXPECT_DOUBLE_EQ(p.predict(), 2.0);
  p.observe(10.0);  // 1.0 slides out
  EXPECT_DOUBLE_EQ(p.predict(), 5.0);
}

TEST(MovingAverage, WindowOneIsLastValue) {
  MovingAveragePredictor p(1);
  p.observe(4.0);
  p.observe(9.0);
  EXPECT_DOUBLE_EQ(p.predict(), 9.0);
}

TEST(MovingAverage, ZeroWindowThrows) {
  EXPECT_THROW(MovingAveragePredictor{0}, util::Error);
}

TEST(ExpSmoothing, ConvergesToConstant) {
  ExpSmoothingPredictor p(0.5);
  for (int i = 0; i < 50; ++i) {
    p.observe(4.0);
  }
  EXPECT_NEAR(p.predict(), 4.0, 1e-9);
}

TEST(ExpSmoothing, FirstObservationInitializes) {
  ExpSmoothingPredictor p(0.1);
  p.observe(10.0);
  EXPECT_DOUBLE_EQ(p.predict(), 10.0);
}

TEST(ExpSmoothing, InvalidAlphaThrows) {
  EXPECT_THROW(ExpSmoothingPredictor{0.0}, util::Error);
  EXPECT_THROW(ExpSmoothingPredictor{1.5}, util::Error);
}

TEST(Ar1, LearnsHighPhiOnPersistentSeries) {
  Ar1Predictor p;
  // Slow sine: strongly autocorrelated.
  for (int i = 0; i < 2000; ++i) {
    p.observe(std::sin(2.0 * std::numbers::pi * i / 500.0));
  }
  EXPECT_GT(p.phi(), 0.95);
}

TEST(Ar1, LearnsLowPhiOnWhiteNoise) {
  util::Rng rng(1);
  Ar1Predictor p;
  for (int i = 0; i < 5000; ++i) {
    p.observe(rng.normal(0.5, 0.1));
  }
  EXPECT_LT(std::abs(p.phi()), 0.1);
  // With phi ~ 0, the prediction shrinks to the mean.
  EXPECT_NEAR(p.predict(), 0.5, 0.05);
}

TEST(Ar1, ShrinkageBeatsLastValueOnNoise) {
  util::Rng rng(2);
  std::vector<double> noise(4000);
  for (double& x : noise) {
    x = rng.normal(0.4, 0.08);
  }
  Ar1Predictor ar1;
  LastValuePredictor last;
  const EvaluationResult e_ar1 = evaluate_series(ar1, noise, 50);
  const EvaluationResult e_last = evaluate_series(last, noise, 50);
  // For iid noise the optimal predictor is the mean; AR(1) approximates
  // it while last-value pays sqrt(2) of the noise sigma.
  EXPECT_LT(e_ar1.mae, e_last.mae);
}

TEST(EvaluateSeries, PerfectPredictorHasZeroError) {
  // A constant series is perfectly predicted by every predictor.
  const std::vector<double> v(100, 2.0);
  LastValuePredictor p;
  const EvaluationResult r = evaluate_series(p, v, 3);
  EXPECT_DOUBLE_EQ(r.mae, 0.0);
  EXPECT_DOUBLE_EQ(r.rmse, 0.0);
  EXPECT_EQ(r.num_predictions, 97u);  // 99 transitions, first 2 warm up
}

TEST(EvaluateSeries, RmseAtLeastMae) {
  util::Rng rng(3);
  std::vector<double> v(500);
  for (double& x : v) {
    x = rng.uniform();
  }
  MovingAveragePredictor p(5);
  const EvaluationResult r = evaluate_series(p, v, 3);
  EXPECT_GE(r.rmse, r.mae);
  EXPECT_GT(r.num_predictions, 0u);
}

TEST(StandardSuite, HasSixPredictors) {
  const auto suite = standard_predictors();
  ASSERT_EQ(suite.size(), 6u);
  EXPECT_EQ(suite[0]->name(), "last-value");
  EXPECT_EQ(suite[5]->name(), "ar1");
}

class TraceEvaluation : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cloud_ = new trace::TraceSet(gen::simulate_hostload(
        gen::GoogleWorkloadModel(), 8, 2 * util::kSecondsPerDay));
    grid_ = new trace::TraceSet(gen::simulate_hostload(
        gen::GridWorkloadModel(gen::presets::auvergrid()), 6,
        2 * util::kSecondsPerDay));
  }
  static void TearDownTestSuite() {
    delete cloud_;
    delete grid_;
    cloud_ = nullptr;
    grid_ = nullptr;
  }
  static trace::TraceSet* cloud_;
  static trace::TraceSet* grid_;
};

trace::TraceSet* TraceEvaluation::cloud_ = nullptr;
trace::TraceSet* TraceEvaluation::grid_ = nullptr;

TEST_F(TraceEvaluation, EvaluatesAcrossMachines) {
  const EvaluationResult r = evaluate_trace(
      [] { return std::make_unique<LastValuePredictor>(); }, *cloud_,
      analysis::Metric::kCpu);
  EXPECT_GT(r.num_predictions, 1000u);
  EXPECT_GT(r.mae, 0.0);
  EXPECT_LT(r.mae, 0.5);
}

TEST_F(TraceEvaluation, CloudCpuHarderThanGridCpu) {
  const EvaluationResult cloud = evaluate_trace(
      [] { return std::make_unique<LastValuePredictor>(); }, *cloud_,
      analysis::Metric::kCpu);
  const EvaluationResult grid = evaluate_trace(
      [] { return std::make_unique<LastValuePredictor>(); }, *grid_,
      analysis::Metric::kCpu);
  // The paper's punchline, operationalized.
  EXPECT_GT(cloud.mae, grid.mae);
}

TEST_F(TraceEvaluation, StandardSuiteRunsOnTrace) {
  const auto results =
      evaluate_standard_suite(*cloud_, analysis::Metric::kCpu);
  ASSERT_EQ(results.size(), 6u);
  for (const EvaluationResult& r : results) {
    EXPECT_GT(r.num_predictions, 0u) << r.predictor;
    EXPECT_GE(r.rmse, r.mae) << r.predictor;
  }
}

TEST_F(TraceEvaluation, ComparisonTableRenders) {
  const auto a = evaluate_standard_suite(*cloud_, analysis::Metric::kCpu);
  const auto b = evaluate_standard_suite(*grid_, analysis::Metric::kCpu);
  const std::string table = render_comparison("google", a, "auvergrid", b);
  EXPECT_NE(table.find("last-value"), std::string::npos);
  EXPECT_NE(table.find("ar1"), std::string::npos);
  EXPECT_NE(table.find("google MAE"), std::string::npos);
}

}  // namespace
}  // namespace cgc::predict
