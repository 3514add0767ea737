// cgc::plan contract tests.
//
// Pins the four guarantees the planning engine ships on:
//   * scenario identity — ScenarioSpec::key() and scenario_id() are
//     frozen pure functions of the spec (goldens below; changing the
//     format re-ids every checkpoint on disk, so it must be loud);
//   * matrix expansion — cross-product counts, frozen order, and the
//     digest handshake between shards;
//   * scoring — Pareto dominance over the frozen objective set, the
//     undefined-cost sentinel, and the refusal to score a run without
//     host-load samples (the old capacity_planner UB, now a DataError);
//   * execution — plan.json bytes are identical at any worker count and
//     across sharded checkpoint + merge vs a single process, resume
//     reuses only finished scenarios, and the merge conflict taxonomy
//     (DataError vs TransientError) matches plan_io.hpp.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "exec/parallel.hpp"
#include "fault/fault.hpp"
#include "plan/matrix.hpp"
#include "plan/plan_io.hpp"
#include "plan/runner.hpp"
#include "plan/scenario.hpp"
#include "plan/score.hpp"
#include "sim/cluster_sim.hpp"
#include "sweep/partition.hpp"
#include "trace/trace_set.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace cgc::plan {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Scenario identity

TEST(ScenarioTest, KeyFormatIsFrozen) {
  const ScenarioSpec spec;  // all defaults
  EXPECT_EQ(spec.key(),
            "fleet=64;horizon=86400;workload=google:1;mix=1;preempt=1;"
            "remap=none;place=balanced;util=0.75;cost=0.04;slo=300;seed=42");
}

TEST(ScenarioTest, IdIsFrozenAndPureInTheSpec) {
  const ScenarioSpec spec;
  // Golden: sweep::stable_case_hash over the key above. If this moves,
  // every shard checkpoint on disk is silently re-identified — that is
  // a breaking change, not a refactor.
  EXPECT_EQ(scenario_id(spec), "s286e9cee4522ceee");
  EXPECT_EQ(scenario_id(spec),
            "s" + []() {
              char buf[17];
              std::snprintf(buf, sizeof(buf), "%016llx",
                            static_cast<unsigned long long>(
                                sweep::stable_case_hash(ScenarioSpec{}.key())));
              return std::string(buf);
            }());

  ScenarioSpec other;
  EXPECT_EQ(scenario_id(other), scenario_id(spec));
  other.fleet = 32;
  EXPECT_NE(scenario_id(other), scenario_id(spec));
}

TEST(ScenarioTest, EveryAxisFieldFeedsTheId) {
  const ScenarioSpec base;
  std::set<std::string> ids = {scenario_id(base)};
  auto expect_new = [&](ScenarioSpec spec, const char* what) {
    EXPECT_TRUE(ids.insert(scenario_id(spec)).second) << what;
  };
  ScenarioSpec s = base;
  s.fleet = 128;
  expect_new(s, "fleet");
  s = base;
  s.horizon = 3600;
  expect_new(s, "horizon");
  s = base;
  s.workload = {{"auvergrid", 1.0}};
  expect_new(s, "workload model");
  s = base;
  s.workload = {{"google", 0.5}};
  expect_new(s, "workload weight");
  s = base;
  s.hetero_mix = 0.25;
  expect_new(s, "hetero_mix");
  s = base;
  s.preemption = false;
  expect_new(s, "preemption");
  s = base;
  s.remap = PriorityRemap::kInvert;
  expect_new(s, "remap");
  s = base;
  s.placement = sim::PlacementPolicy::kBestFit;
  expect_new(s, "placement");
  s = base;
  s.target_utilization = 0.6;
  expect_new(s, "target_utilization");
  s = base;
  s.cost_per_machine_hour = 0.10;
  expect_new(s, "cost");
  s = base;
  s.slo_wait_s = 60;
  expect_new(s, "slo");
  s = base;
  s.seed = 7;
  expect_new(s, "seed");
}

// ---------------------------------------------------------------------------
// Matrix expansion

TEST(MatrixTest, DefaultMatrixExpandsTo576) {
  const ScenarioMatrix matrix = default_matrix(6 * util::kSecondsPerHour);
  EXPECT_EQ(matrix.scenarios.size(), 576u);
  // Ids are unique — the cross-product never collapses two scenarios.
  std::set<std::string> ids;
  for (const ScenarioSpec& spec : matrix.scenarios) {
    EXPECT_TRUE(ids.insert(scenario_id(spec)).second);
  }
}

TEST(MatrixTest, SmallMatrixExpandsTo8) {
  EXPECT_EQ(small_matrix(3600).scenarios.size(), 8u);
}

TEST(MatrixTest, BuilderWithNoAxesExpandsToTheBaseSpec) {
  ScenarioSpec base;
  base.fleet = 13;
  const ScenarioMatrix matrix = MatrixBuilder("one", base).build();
  ASSERT_EQ(matrix.scenarios.size(), 1u);
  EXPECT_EQ(scenario_id(matrix.scenarios[0]), scenario_id(base));
}

TEST(MatrixTest, ExplicitlyEmptyAxisIsFatal) {
  EXPECT_THROW(MatrixBuilder("bad", ScenarioSpec{}).fleets({}).build(),
               util::FatalError);
}

TEST(MatrixTest, ExpansionOrderIsFrozenFleetsOutermost) {
  const ScenarioMatrix matrix =
      MatrixBuilder("order", ScenarioSpec{})
          .fleets({1, 2})
          .target_utilizations({0.5, 0.9})
          .build();
  ASSERT_EQ(matrix.scenarios.size(), 4u);
  EXPECT_EQ(matrix.scenarios[0].fleet, 1u);
  EXPECT_DOUBLE_EQ(matrix.scenarios[0].target_utilization, 0.5);
  EXPECT_DOUBLE_EQ(matrix.scenarios[1].target_utilization, 0.9);
  EXPECT_EQ(matrix.scenarios[1].fleet, 1u);
  EXPECT_EQ(matrix.scenarios[2].fleet, 2u);
}

TEST(MatrixTest, DigestIsPureAndOrderSensitive) {
  const ScenarioMatrix a = small_matrix(3600);
  const ScenarioMatrix b = small_matrix(3600);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), small_matrix(7200).digest());

  ScenarioMatrix reversed = small_matrix(3600);
  std::reverse(reversed.scenarios.begin(), reversed.scenarios.end());
  EXPECT_NE(reversed.digest(), a.digest());
}

TEST(MatrixTest, ShardOwnershipPartitionsTheMatrix) {
  const ScenarioMatrix matrix = default_matrix(3600);
  std::vector<std::size_t> counts(4, 0);
  for (const ScenarioSpec& spec : matrix.scenarios) {
    int owners = 0;
    for (int i = 0; i < 4; ++i) {
      if (sweep::owns(sweep::ShardSpec{i, 4}, scenario_id(spec))) {
        ++owners;
        ++counts[static_cast<std::size_t>(i)];
      }
    }
    EXPECT_EQ(owners, 1) << scenario_id(spec);
  }
  // The stable hash spreads scenarios: no shard is empty or hogs all.
  for (const std::size_t c : counts) {
    EXPECT_GT(c, 0u);
    EXPECT_LT(c, matrix.scenarios.size());
  }
}

// ---------------------------------------------------------------------------
// Scoring

ScenarioScore make_score(double util, double evict, double p99,
                         double usd) {
  ScenarioScore s;
  s.cpu_util_mean = util;
  s.eviction_rate = evict;
  s.wait_p99_s = p99;
  s.usd_per_slo = usd;
  return s;
}

TEST(ScoreTest, DominanceIsStrictOnTheFrozenObjectives) {
  const ScenarioScore better = make_score(0.8, 0.01, 10, 1.0);
  const ScenarioScore worse = make_score(0.7, 0.02, 20, 2.0);
  EXPECT_TRUE(dominates(better, worse));
  EXPECT_FALSE(dominates(worse, better));
  // Equal on every objective: neither dominates (strictness).
  EXPECT_FALSE(dominates(better, better));
  // Trade-off (better utilization, worse cost): incomparable.
  const ScenarioScore tradeoff = make_score(0.9, 0.01, 10, 3.0);
  EXPECT_FALSE(dominates(tradeoff, better));
  EXPECT_FALSE(dominates(better, tradeoff));
}

TEST(ScoreTest, UndefinedCostNeverDominatesAndIsDominated) {
  const ScenarioScore undefined_cost = make_score(0.9, 0.0, 0, -1.0);
  const ScenarioScore defined = make_score(0.9, 0.0, 0, 5.0);
  EXPECT_FALSE(dominates(undefined_cost, defined));
  EXPECT_TRUE(dominates(defined, undefined_cost));
}

TEST(ScoreTest, ParetoFrontierKeepsNonDominatedInInputOrder) {
  const std::vector<ScenarioScore> scores = {
      make_score(0.8, 0.01, 10, 1.0),  // frontier
      make_score(0.7, 0.02, 20, 2.0),  // dominated by [0]
      make_score(0.9, 0.05, 10, 1.5),  // frontier (best util)
      make_score(0.75, 0.01, 10, 0.5),  // frontier (best cost)
  };
  EXPECT_EQ(pareto_frontier(scores),
            (std::vector<std::size_t>{0, 2, 3}));
}

TEST(ScoreTest, RefusesToScoreWithoutHostLoad) {
  // The old capacity_planner indexed host_load()[0] unchecked; a trace
  // with no load series must be a taxonomy error, not UB.
  const trace::TraceSet empty;
  const sim::SimStats stats;
  EXPECT_THROW(score_run(ScenarioSpec{}, empty, stats), util::DataError);
}

TEST(ScoreTest, WaitHistogramQuantilesAreDeterministicBucketBounds) {
  sim::SimStats stats;
  EXPECT_DOUBLE_EQ(stats.wait_quantile(0.99), 0.0);  // empty histogram
  EXPECT_DOUBLE_EQ(stats.wait_fraction_within(300.0), 1.0);
  for (int i = 0; i < 90; ++i) {
    stats.record_wait(0);  // bucket 0: no wait
  }
  for (int i = 0; i < 9; ++i) {
    stats.record_wait(100);  // bucket [64, 128)
  }
  stats.record_wait(100000);  // bucket [65536, 131072)
  EXPECT_EQ(stats.wait_count, 100);
  EXPECT_DOUBLE_EQ(stats.wait_quantile(0.50), 0.0);
  EXPECT_DOUBLE_EQ(stats.wait_quantile(0.90), 128.0);
  EXPECT_DOUBLE_EQ(stats.wait_quantile(0.999), 131072.0);
  EXPECT_DOUBLE_EQ(stats.wait_fraction_within(128.0), 0.99);
  EXPECT_DOUBLE_EQ(stats.wait_mean_s(), (9 * 100 + 100000) / 100.0);
}

// ---------------------------------------------------------------------------
// Execution: determinism, sharding, resume

class PlanRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cgc_plan_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fault::configure("");
    fs::remove_all(dir_);
  }

  std::string dir(const std::string& sub = "") const {
    return sub.empty() ? dir_.string() : (dir_ / sub).string();
  }

  /// The test workload: the 8-scenario matrix over a 1-hour horizon.
  static ScenarioMatrix matrix() { return small_matrix(3600); }

  /// Runs the whole matrix in-process and renders plan.json.
  static std::string single_process_json() {
    PlanRunner runner(matrix(), PlanConfig{});
    return render_plan_json(runner.matrix(), runner.run());
  }

  fs::path dir_;
};

TEST_F(PlanRunTest, PlanJsonIsByteIdenticalAtAnyWorkerCount) {
  std::vector<std::string> renders;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool pool(threads);
    exec::ScopedPool scoped(&pool);
    renders.push_back(single_process_json());
  }
  EXPECT_EQ(renders[0], renders[1]);
  EXPECT_EQ(renders[0], renders[2]);
  // And the artifact is non-trivial: it carries every scenario id.
  for (const ScenarioSpec& spec : matrix().scenarios) {
    EXPECT_NE(renders[0].find(scenario_id(spec)), std::string::npos);
  }
}

TEST_F(PlanRunTest, ShardedCheckpointsMergeToTheSingleProcessBytes) {
  const std::string golden = single_process_json();

  std::vector<ShardResults> shards;
  for (int i = 0; i < 2; ++i) {
    PlanConfig config;
    config.shard = sweep::ShardSpec{i, 2};
    config.out_dir = dir();
    PlanRunner runner(matrix(), config);
    runner.run();
    ShardResults shard;
    ASSERT_EQ(read_results(shard_results_path(dir(), config.shard),
                           runner.matrix(), &shard),
              sweep::ReadStatus::kOk);
    EXPECT_TRUE(shard.complete);
    shards.push_back(std::move(shard));
  }
  const ScenarioMatrix m = matrix();
  const std::vector<ScenarioResult> merged = merge_results(m, shards);
  EXPECT_EQ(render_plan_json(m, merged), golden);
}

/// The bytes write_results() emits for a fixed two-scenario shard: one
/// ok score whose fields need all 17 significant digits, one failure
/// whose error holds a newline. Pins the sealed .cgcp format.
TEST_F(PlanRunTest, WriteResultsBytesAreFrozen) {
  ShardResults shard;
  shard.matrix_name = "small";
  shard.matrix_digest = 0x0123456789abcdefULL;
  shard.shard = sweep::ShardSpec{1, 2};
  shard.complete = true;
  ScenarioResult ok;
  ok.id = "s00000000000000aa";
  ok.ok = true;
  ok.score.cpu_util_mean = 0.1;
  ok.score.cpu_util_peak = 1.0 / 3.0;
  ok.score.mem_util_mean = 2.0 / 3.0;
  ok.score.mem_util_peak = 0.7;
  ok.score.eviction_rate = 1e-17;
  ok.score.wait_p50_s = 128.0;
  ok.score.wait_p90_s = 4096.0;
  ok.score.wait_p99_s = 131072.0;
  ok.score.wait_mean_s = 1234.5678901234567;
  ok.score.machines_needed = 12.0;
  ok.score.headroom = 0.8125;
  ok.score.machine_hours = 1536.0;
  ok.score.cost_usd = 61.440000000000005;
  ok.score.consolidated_cost_usd = 5.76;
  ok.score.slo_attainment = 0.99;
  ok.score.cpu_hours_delivered = 3.141592653589793;
  ok.score.usd_per_slo = -1.0;
  ScenarioResult failed;
  failed.id = "s00000000000000bb";
  failed.error = "data: line one\nline two";
  shard.results = {ok, failed};
  const std::string path = dir("frozen.cgcp");
  write_results(path, shard);

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  EXPECT_EQ(bytes,
            "cgcplan v1\n"
            "matrix small 0123456789abcdef\n"
            "shard 1/2\n"
            "complete 1\n"
            "R s00000000000000aa 1 0.10000000000000001 0.33333333333333331 "
            "0.66666666666666663 0.69999999999999996 1.0000000000000001e-17 "
            "128 4096 131072 1234.5678901234567 12 0.8125 1536 "
            "61.440000000000005 5.7599999999999998 0.98999999999999999 "
            "3.1415926535897931 -1\n"
            "R s00000000000000bb 0 data: line one line two\n"
            "end bf6f4919\n");
}

TEST_F(PlanRunTest, ResumeReusesFinishedScenariosOnly) {
  PlanConfig config;
  config.out_dir = dir();
  {
    PlanRunner runner(matrix(), config);
    runner.run();
    EXPECT_EQ(runner.resumed(), 0u);
  }
  config.resume = true;
  PlanRunner runner(matrix(), config);
  const std::vector<ScenarioResult> results = runner.run();
  EXPECT_EQ(runner.resumed(), matrix().scenarios.size());
  EXPECT_EQ(results.size(), matrix().scenarios.size());
}

TEST_F(PlanRunTest, TornCheckpointIsQuarantinedAndRerun) {
  PlanConfig config;
  config.out_dir = dir();
  PlanRunner first(matrix(), config);
  first.run();
  const std::string path = shard_results_path(dir(), config.shard);

  // Tear the checkpoint: drop the sealed tail.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 16u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() - 12);
  }
  ShardResults ignored;
  ASSERT_EQ(read_results(path, matrix(), &ignored), sweep::ReadStatus::kCorrupt);

  config.resume = true;
  PlanRunner runner(matrix(), config);
  runner.run();
  EXPECT_EQ(runner.resumed(), 0u);  // nothing trusted from the torn file
  EXPECT_TRUE(fs::exists(path + ".corrupt"));
  ShardResults reread;
  EXPECT_EQ(read_results(path, matrix(), &reread), sweep::ReadStatus::kOk);
  EXPECT_TRUE(reread.complete);
}

TEST_F(PlanRunTest, UnreadableCheckpointIsCorruptNotMissing) {
  if (::geteuid() == 0) {
    GTEST_SKIP() << "root ignores file modes";
  }
  PlanConfig config;
  config.out_dir = dir();
  PlanRunner first(matrix(), config);
  first.run();
  const std::string path = shard_results_path(dir(), config.shard);
  fs::permissions(path, fs::perms::none);
  ShardResults ignored;
  EXPECT_EQ(read_results(path, matrix(), &ignored),
            sweep::ReadStatus::kCorrupt);

  // --resume must not overwrite it as if it were a fresh run: it is
  // quarantined like any other torn checkpoint, then rebuilt.
  config.resume = true;
  PlanRunner runner(matrix(), config);
  runner.run();
  EXPECT_EQ(runner.resumed(), 0u);
  EXPECT_TRUE(fs::exists(path + ".corrupt"));
  fs::permissions(path + ".corrupt", fs::perms::owner_all);
  ShardResults reread;
  EXPECT_EQ(read_results(path, matrix(), &reread), sweep::ReadStatus::kOk);
}

TEST_F(PlanRunTest, ResumeAgainstADifferentMatrixIsADataError) {
  PlanConfig config;
  config.out_dir = dir();
  PlanRunner first(matrix(), config);
  first.run();

  config.resume = true;
  PlanRunner other(small_matrix(7200), config);  // different digest
  EXPECT_THROW(other.run(), util::DataError);
}

TEST_F(PlanRunTest, MergeTaxonomyMatchesTheSweepContract) {
  PlanConfig config;
  config.shard = sweep::ShardSpec{0, 2};
  config.out_dir = dir();
  PlanRunner runner(matrix(), config);
  runner.run();
  ShardResults shard0;
  ASSERT_EQ(read_results(shard_results_path(dir(), config.shard), runner.matrix(),
                         &shard0),
            sweep::ReadStatus::kOk);
  const ScenarioMatrix m = matrix();

  // Missing coverage (only shard 0 of 2): transient — rerun and retry.
  EXPECT_THROW(merge_results(m, {shard0}), util::TransientError);

  // Duplicate ownership (same shard twice): the inputs conflict.
  EXPECT_THROW(merge_results(m, {shard0, shard0}), util::DataError);

  // Incomplete shard: transient.
  ShardResults incomplete = shard0;
  incomplete.complete = false;
  EXPECT_THROW(merge_results(m, {incomplete}), util::TransientError);

  // Foreign digest: a different experiment.
  ShardResults foreign = shard0;
  foreign.matrix_digest ^= 1;
  EXPECT_THROW(merge_results(m, {foreign}), util::DataError);
}

TEST_F(PlanRunTest, ScenarioFaultSiteDegradesToRecordedFailures) {
  fault::configure("plan.scenario_fail:p=1,seed=3");
  PlanRunner runner(matrix(), PlanConfig{});
  const std::vector<ScenarioResult> results = runner.run();
  ASSERT_EQ(results.size(), matrix().scenarios.size());
  for (const ScenarioResult& r : results) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error.rfind("transient: ", 0), 0u) << r.error;
  }
  // The artifact still renders — failed scenarios carry their error.
  const std::string json = render_plan_json(matrix(), results);
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
}

TEST_F(PlanRunTest, CrossReplayScenariosRun) {
  // Grid-on-Cloud and Cloud-on-Grid are single scenarios, not special
  // modes: a grid workload on the heterogeneous park and vice versa.
  ScenarioSpec grid_on_cloud;
  grid_on_cloud.fleet = 4;
  grid_on_cloud.horizon = 1800;
  grid_on_cloud.workload = {{"auvergrid", 1.0}};
  grid_on_cloud.hetero_mix = 1.0;
  const ScenarioResult a = run_scenario(grid_on_cloud);
  EXPECT_TRUE(a.ok) << a.error;

  ScenarioSpec cloud_on_grid = grid_on_cloud;
  cloud_on_grid.workload = {{"google", 1.0}};
  cloud_on_grid.hetero_mix = 0.0;
  const ScenarioResult b = run_scenario(cloud_on_grid);
  EXPECT_TRUE(b.ok) << b.error;
  EXPECT_NE(a.id, b.id);
}

}  // namespace
}  // namespace cgc::plan
