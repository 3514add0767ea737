// Tests for the paper-scale simulator core's structural guarantees:
// bit-identical output at any CGC_THREADS (the sharded-determinism
// contract), golden digests for every placement policy and probe mode,
// the exact probe reduction, horizon counts with warm-up, the calendar
// queue's (time, push-order) drain invariant, and generation-counter
// invalidation under eviction storms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "exec/parallel.hpp"
#include "fault/fault.hpp"
#include "gen/google_model.hpp"
#include "sim/cluster_sim.hpp"
#include "sim/event_queue.hpp"
#include "sim/sim_rng.hpp"
#include "trace/validate.hpp"
#include "util/thread_pool.hpp"

namespace cgc::sim {
namespace {

// ---------------------------------------------------------------------------
// Sharded bit-determinism
// ---------------------------------------------------------------------------

/// A mid-scale contended workload with every stochastic path exercised:
/// full jitter, preemption (mixed priorities over committed memory),
/// fail fates with retries, and placement constraints.
Workload contended_workload() {
  Workload workload;
  std::int64_t job = 1;
  for (int i = 0; i < 4000; ++i) {
    TaskSpec spec;
    spec.job_id = job + i / 4;  // multi-task jobs
    spec.task_index = i % 4;
    spec.priority = static_cast<std::uint8_t>(1 + (i * 7) % 12);
    spec.submit_time = (i % 977) * 80;
    spec.duration = 400 + (i % 13) * 700;
    spec.cpu_request = 0.04f + 0.01f * static_cast<float>(i % 5);
    spec.mem_request = 0.05f + 0.01f * static_cast<float>(i % 7);
    if (i % 11 == 0) {
      spec.fate = trace::TaskEventType::kFail;
      spec.abnormal_after = 150;
      spec.max_resubmits = 2;
    }
    if (i % 17 == 0) {
      spec.required_attributes = trace::kAttrLocalSsd;
    }
    workload.push_back(spec);
  }
  return workload;
}

std::vector<trace::Machine> contended_park() {
  std::vector<trace::Machine> machines;
  for (int i = 0; i < 48; ++i) {
    trace::Machine m;
    m.machine_id = i + 1;
    m.cpu_capacity = i % 3 == 0 ? 0.5f : 1.0f;
    m.mem_capacity = i % 4 == 0 ? 0.5f : 1.0f;
    m.attributes = i % 5 == 0 ? trace::kAttrLocalSsd : 0;
    machines.push_back(m);
  }
  return machines;
}

std::uint64_t digest_at_threads(std::size_t threads) {
  util::ThreadPool pool(threads);
  exec::ScopedPool scoped(&pool);
  SimConfig config;
  config.horizon = util::kSecondsPerDay;
  ClusterSim sim(contended_park(), config);
  const trace::TraceSet out = sim.run(contended_workload());
  EXPECT_GT(sim.stats().evicted, 0) << "workload must exercise preemption";
  EXPECT_GT(sim.stats().failed, 0) << "workload must exercise fail fates";
  return out.content_digest();
}

TEST(SimDeterminism, BitIdenticalAcrossThreadCounts) {
  const std::uint64_t d1 = digest_at_threads(1);
  const std::uint64_t d2 = digest_at_threads(2);
  const std::uint64_t d8 = digest_at_threads(8);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d8);
}

TEST(SimDeterminism, ProbedPlacementIsAlsoThreadInvariant) {
  // Force the probed-placement path (the large-cluster mode) at a small
  // scale and check the contract holds there too.
  auto run = [](std::size_t threads) {
    util::ThreadPool pool(threads);
    exec::ScopedPool scoped(&pool);
    SimConfig config;
    config.horizon = util::kSecondsPerDay;
    config.placement_probe_limit = 8;
    ClusterSim sim(contended_park(), config);
    const trace::TraceSet out = sim.run(contended_workload());
    return out.content_digest();
  };
  EXPECT_EQ(run(1), run(4));
}

// ---------------------------------------------------------------------------
// Golden digests
// ---------------------------------------------------------------------------

/// What a golden run pins: the output bytes plus the scheduler counters
/// that move if a pass visits, places or evicts differently.
struct GoldenResult {
  std::uint64_t digest = 0;
  std::int64_t scheduled = 0;
  std::int64_t evicted = 0;
  std::int64_t schedule_passes = 0;

  bool operator==(const GoldenResult&) const = default;
};

void PrintTo(const GoldenResult& r, std::ostream* os) {
  *os << "{0x" << std::hex << r.digest << std::dec << "ULL, " << r.scheduled
      << ", " << r.evicted << ", " << r.schedule_passes << "}";
}

GoldenResult golden_run(const Workload& workload, PlacementPolicy placement,
                        std::size_t probe_limit, bool preemption) {
  SimConfig config;
  config.horizon = util::kSecondsPerDay;
  config.placement = placement;
  config.placement_probe_limit = probe_limit;
  config.preemption = preemption;
  ClusterSim sim(contended_park(), config);
  const trace::TraceSet out = sim.run(workload);
  const SimStats& s = sim.stats();
  return {out.content_digest(), s.scheduled, s.evicted, s.schedule_passes};
}

/// contended_workload() with every submit moved before t=0 and
/// shuffled, so the calendar origin is negative and the initial-submit
/// cursor has to sort.
Workload negative_unsorted_workload() {
  Workload workload = contended_workload();
  for (std::size_t i = 0; i < workload.size(); ++i) {
    workload[i].submit_time =
        -30000 + static_cast<trace::TimeSec>((i * 7919) % 977) * 90;
  }
  return workload;
}

/// The same tasks in submit order: the initial-submit cursor is
/// already sorted.
Workload negative_sorted_workload() {
  Workload workload = negative_unsorted_workload();
  std::stable_sort(workload.begin(), workload.end(),
                   [](const TaskSpec& a, const TaskSpec& b) {
                     return a.submit_time < b.submit_time;
                   });
  return workload;
}

struct GoldenCase {
  PlacementPolicy placement;
  std::size_t probe_limit;  ///< 0 = auto (full scan on this park)
  bool preemption;
  GoldenResult expected;
};

/// Recorded before the scheduler hot-path rewrite (occupied-queue mask,
/// one templated placement scan, no re-sort of a sorted workload); any
/// drift means the simulated dynamics changed.
constexpr GoldenCase kGoldenCases[] = {
    {PlacementPolicy::kBalanced, 0, true,
     {0x3f0f49b4d6cd1202ULL, 6047, 1319, 4762}},
    {PlacementPolicy::kBalanced, 0, false,
     {0xa1ad2082310791eULL, 4728, 0, 3773}},
    {PlacementPolicy::kBalanced, 8, true,
     {0xd79d8926b86625aULL, 6066, 1338, 4800}},
    {PlacementPolicy::kBalanced, 8, false,
     {0x76e1d75760ef7b2bULL, 4728, 0, 3798}},
    {PlacementPolicy::kBestFit, 0, true,
     {0x4dbb4b89e0e6e9aULL, 6217, 1489, 4778}},
    {PlacementPolicy::kBestFit, 0, false,
     {0xd9de26382577cac5ULL, 4728, 0, 3778}},
    {PlacementPolicy::kBestFit, 8, true,
     {0x43ccadd3a13badceULL, 6261, 1533, 4830}},
    {PlacementPolicy::kBestFit, 8, false,
     {0x82457a733e121c62ULL, 4728, 0, 3857}},
    {PlacementPolicy::kWorstFit, 0, true,
     {0x6695c156bba43feaULL, 6064, 1336, 4787}},
    {PlacementPolicy::kWorstFit, 0, false,
     {0x8181816583465b14ULL, 4728, 0, 3773}},
    {PlacementPolicy::kWorstFit, 8, true,
     {0xfdba9e61315575cfULL, 6125, 1397, 4825}},
    {PlacementPolicy::kWorstFit, 8, false,
     {0x58a1b2fa531b0b44ULL, 4728, 0, 3798}},
    {PlacementPolicy::kFirstFit, 0, true,
     {0x148d9cb334ccc6e5ULL, 6142, 1414, 4781}},
    {PlacementPolicy::kFirstFit, 0, false,
     {0x37fb4e037c3aed2dULL, 4728, 0, 3773}},
    {PlacementPolicy::kFirstFit, 8, true,
     {0xdde2b86eedcc3f5ULL, 6154, 1426, 4818}},
    {PlacementPolicy::kFirstFit, 8, false,
     {0x64a9dd341edacb10ULL, 4728, 0, 3806}},
    {PlacementPolicy::kRandom, 0, true,
     {0xd31353a2cea4a253ULL, 6092, 1364, 4788}},
    {PlacementPolicy::kRandom, 0, false,
     {0x5a582429f16b3c99ULL, 4728, 0, 3773}},
    {PlacementPolicy::kRandom, 8, true,
     {0x6f26b27450082b92ULL, 6138, 1410, 4793}},
    {PlacementPolicy::kRandom, 8, false,
     {0xabc0b441a1fcfd59ULL, 4728, 0, 3802}},
};

TEST(SimGolden, ContendedWorkloadEveryPolicyAndProbeMode) {
  const Workload workload = contended_workload();
  for (const GoldenCase& c : kGoldenCases) {
    SCOPED_TRACE(std::string(placement_name(c.placement)) +
                 " probe_limit=" + std::to_string(c.probe_limit) +
                 " preemption=" + (c.preemption ? "on" : "off"));
    EXPECT_EQ(golden_run(workload, c.placement, c.probe_limit, c.preemption),
              c.expected);
  }
}

TEST(SimGolden, NegativeSubmitTimesSortedAndUnsorted) {
  EXPECT_EQ(golden_run(negative_unsorted_workload(),
                       PlacementPolicy::kBalanced, 0, true),
            (GoldenResult{0x4ef3756bfb74a040ULL, 5991, 1263, 5587}));
  EXPECT_EQ(golden_run(negative_unsorted_workload(),
                       PlacementPolicy::kRandom, 8, true),
            (GoldenResult{0x16dccc6ba0ba8a5eULL, 6062, 1334, 5560}));
  EXPECT_EQ(golden_run(negative_sorted_workload(),
                       PlacementPolicy::kBalanced, 0, true),
            (GoldenResult{0x7a800cb55ce17e33ULL, 5987, 1259, 5584}));
  EXPECT_EQ(golden_run(negative_sorted_workload(),
                       PlacementPolicy::kRandom, 8, true),
            (GoldenResult{0xc870f1b0c24fff66ULL, 6092, 1365, 5570}));
}

// ---------------------------------------------------------------------------
// Exact probe reduction
// ---------------------------------------------------------------------------

/// Property: rng::FastMod(d)(x) == x % d for every divisor the probe
/// path can see (park sizes around the full-scan cutoff and the paper's
/// 12.5k hosts) and at 64-bit edge dividends, multiples of d and their
/// neighbours, and hashed values.
TEST(FastMod, MatchesModuloAtEdgesAndHashedValues) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  for (const std::uint64_t d : {std::uint64_t{1}, std::uint64_t{2},
                                std::uint64_t{3}, std::uint64_t{511},
                                std::uint64_t{513}, std::uint64_t{1024},
                                std::uint64_t{12500},
                                std::uint64_t{0xffffffffULL}, kMax}) {
    const rng::FastMod mod(d);
    std::vector<std::uint64_t> xs = {0,     1,         d - 1,
                                     d,     d + 1,     2 * d - 1,
                                     kMax,  kMax - 1,  kMax / 2,
                                     kMax / 2 + 1,     kMax - kMax % d,
                                     kMax - kMax % d - 1};
    for (std::uint64_t i = 0; i < 20000; ++i) {
      xs.push_back(rng::mix(i));
      xs.push_back((rng::mix(i) / d) * d);  // an exact multiple of d
    }
    for (const std::uint64_t x : xs) {
      ASSERT_EQ(mod(x), x % d) << "x=" << x << " d=" << d;
    }
  }
}

// ---------------------------------------------------------------------------
// Horizon counts with warm-up
// ---------------------------------------------------------------------------

/// Generated workloads submit from warmup_days before t=0. Every
/// placement still ends in a terminal event or is running at the
/// horizon, warm-up tasks included.
TEST(SimHorizon, CountsIncludeWarmupTasks) {
  gen::GoogleModelConfig model_config;
  model_config.warmup_days = 2.0;
  const gen::GoogleWorkloadModel model(model_config);
  constexpr std::size_t kMachines = 16;
  const Workload workload =
      model.generate_sim_workload(util::kSecondsPerDay, kMachines);
  ASSERT_TRUE(std::any_of(workload.begin(), workload.end(),
                          [](const TaskSpec& t) { return t.submit_time < 0; }))
      << "the workload must carry warm-up submits";
  SimConfig config;
  config.horizon = util::kSecondsPerDay;
  config.record_events = false;
  config.record_host_load = false;
  ClusterSim sim(model.make_machines(kMachines), config);
  sim.run(workload);
  const SimStats& s = sim.stats();
  EXPECT_GT(s.running_at_horizon, 0);
  EXPECT_EQ(s.scheduled, s.terminal_events() + s.running_at_horizon);
}

// ---------------------------------------------------------------------------
// Calendar-queue ordering property
// ---------------------------------------------------------------------------

/// Reference model entry: the full (time, seq) key the seed heap used.
struct RefEvent {
  trace::TimeSec time;
  std::uint64_t seq;
  std::uint32_t task;
};

/// Property: draining the calendar queue while pushing new events
/// forward in time replays exactly the (time, push-seq) order of the
/// seed's heap — including ties within a second — across window
/// advances and far-bucket scatters.
TEST(CalendarQueue, DrainsInTimeThenSeqOrder) {
  CalendarQueue queue(/*origin=*/-500, /*span_hint=*/400000);
  std::vector<RefEvent> reference;
  std::uint64_t seq = 0;
  std::uint64_t rng = 12345;
  const auto next_rand = [&rng]() {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  const auto push = [&](trace::TimeSec now) {
    // Mix of near pushes (same L0 window) and far pushes (minutes to
    // days ahead, crossing several 8192 s windows), some negative-time.
    const std::uint64_t r = next_rand();
    const trace::TimeSec delta =
        1 + static_cast<trace::TimeSec>(
                r % (r % 3 == 0 ? 250000 : (r % 2 == 0 ? 40 : 7000)));
    const trace::TimeSec t = now + delta;
    const auto task = static_cast<std::uint32_t>(seq);
    queue.push(t, EvKind::kSubmit, task, 0);
    reference.push_back(RefEvent{t, seq, task});
    ++seq;
  };

  for (int i = 0; i < 400; ++i) {
    push(-500);  // initial burst, heavy same-second ties
  }
  std::size_t drained = 0;
  while (!queue.empty()) {
    const trace::TimeSec t = queue.next_time();
    ASSERT_NE(t, CalendarQueue::kNoEvent);
    // The reference order: stable sort by time = (time, seq) order.
    std::stable_sort(reference.begin() + static_cast<std::ptrdiff_t>(drained),
                     reference.end(),
                     [](const RefEvent& a, const RefEvent& b) {
                       return a.time < b.time;
                     });
    const std::vector<QueuedEvent>& bucket = queue.bucket(t);
    ASSERT_FALSE(bucket.empty());
    for (const QueuedEvent& e : bucket) {
      ASSERT_LT(drained, reference.size());
      EXPECT_EQ(reference[drained].time, t);
      EXPECT_EQ(reference[drained].task, e.task);
      ++drained;
    }
    queue.finish_bucket(t);
    // Handlers push strictly forward while draining.
    while (drained < 7000 && next_rand() % 3 != 0) {
      push(t);
    }
  }
  EXPECT_EQ(drained, reference.size());
  EXPECT_GE(drained, 7000u);
}

TEST(CalendarQueue, BoundedScanDoesNotAdvancePastBound) {
  CalendarQueue queue(0, 100000);
  queue.push(50000, EvKind::kEnd, 7, 0);  // several windows ahead
  // An earlier external event (the workload cursor) exists at t=100:
  // the queue must report "nothing at or before 100" and stay put so a
  // handler at t=100 can still push into t=101.
  EXPECT_EQ(queue.next_time(/*bound=*/100), CalendarQueue::kNoEvent);
  queue.push(101, EvKind::kSubmit, 8, 0);
  EXPECT_EQ(queue.next_time(), 101);
  queue.finish_bucket(101);
  EXPECT_EQ(queue.next_time(), 50000);
}

// ---------------------------------------------------------------------------
// Eviction storms / generation invalidation
// ---------------------------------------------------------------------------

/// Saturates a small park with low-priority work, then slams it with
/// waves of high-priority tasks: every wave triggers mass eviction, and
/// every eviction leaves a stale end event whose generation must be
/// recognized as dead. Validates the whole output trace and the stats
/// identities that only hold if no stale event is ever double-applied.
TEST(SimStress, EvictionStormInvalidatesStaleEnds) {
  std::vector<trace::Machine> machines;
  for (int i = 0; i < 16; ++i) {
    trace::Machine m;
    m.machine_id = i + 1;
    machines.push_back(m);
  }
  Workload workload;
  for (int i = 0; i < 800; ++i) {  // filler: long-running best-effort
    TaskSpec spec;
    spec.job_id = 1 + i;
    spec.priority = 1 + i % 2;
    spec.submit_time = 0;
    spec.duration = 40000;
    spec.cpu_request = 0.01f;
    spec.mem_request = 0.018f;  // ~55 fit per machine by memory
    workload.push_back(spec);
  }
  for (int wave = 0; wave < 12; ++wave) {  // production waves
    for (int i = 0; i < 300; ++i) {
      TaskSpec spec;
      spec.job_id = 10000 + wave;
      spec.task_index = i;
      spec.priority = 11;
      spec.submit_time = 600 + wave * 1800;
      spec.duration = 900;
      spec.cpu_request = 0.02f;
      spec.mem_request = 0.04f;
      workload.push_back(spec);
    }
  }
  SimConfig config;
  config.horizon = util::kSecondsPerDay;
  config.isolation_eviction_probability = 0.6;  // amplify churn
  ClusterSim sim(machines, config);
  const trace::TraceSet out = sim.run(workload);
  trace::validate_or_throw(out);

  const SimStats& s = sim.stats();
  EXPECT_GT(s.evicted, 500) << "storm must actually evict at scale";
  EXPECT_EQ(s.submitted, 800 + 12 * 300);
  // Attempt conservation: every placement ends in exactly one terminal
  // event or is still running at the horizon. A stale end event that
  // slipped past its generation check would double-terminate an attempt
  // and break this identity.
  EXPECT_EQ(s.scheduled, s.terminal_events() + s.running_at_horizon);
  // Every eviction requeues: resubmits covers at least the evictions.
  EXPECT_GE(s.resubmits, s.evicted);
  // A stale end double-applied would end a task twice; conservation
  // above plus trace validation (legal state transitions per task)
  // catches both double-ends and lost tasks.
}

/// The sim.machine_outage fault site: deterministic whole-machine
/// failures at sample boundaries, same behaviour at any thread count.
TEST(SimStress, MachineOutageFaultSiteIsDeterministic) {
  const auto run = [](std::size_t threads) {
    util::ThreadPool pool(threads);
    exec::ScopedPool scoped(&pool);
    SimConfig config;
    config.horizon = util::kSecondsPerDay;
    ClusterSim sim(contended_park(), config);
    const trace::TraceSet out = sim.run(contended_workload());
    return std::pair<std::uint64_t, std::int64_t>(
        out.content_digest(), sim.stats().faults_injected);
  };
  fault::configure("sim.machine_outage:p=0.002,seed=7");
  const auto [d1, f1] = run(1);
  const auto [d4, f4] = run(4);
  fault::configure("");
  ASSERT_GT(f1, 0) << "outage site must fire for the test to mean anything";
  EXPECT_EQ(f1, f4);
  EXPECT_EQ(d1, d4);
}

/// The sim.task_lost fault site converts terminal events to LOST.
TEST(SimStress, TaskLostFaultSiteShapesTerminals) {
  SimConfig config;
  config.horizon = util::kSecondsPerDay;
  fault::configure("sim.task_lost:every=10");
  ClusterSim sim(contended_park(), config);
  const trace::TraceSet out = sim.run(contended_workload());
  fault::configure("");
  EXPECT_GT(sim.stats().lost, 0);
  EXPECT_EQ(sim.stats().faults_injected, sim.stats().lost);
  trace::validate_or_throw(out);
}

}  // namespace
}  // namespace cgc::sim
