#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/error.h"
#include "src/common/serde.h"
#include "src/ctrl/control_plane.h"
#include "src/ctrl/slo.h"
#include "src/ctrl/workload.h"
#include "src/fault/generator.h"
#include "src/fault/physics_generator.h"
#include "src/fault/trace.h"
#include "src/runtime/sweep.h"
#include "src/runtime/thread_pool.h"

namespace ihbd::ctrl {
namespace {

// --- SloHistogram -----------------------------------------------------------

TEST(SloHistogram, QuantilesAreBucketUpperBounds) {
  SloHistogram h;
  for (int i = 0; i < 90; ++i) h.observe(1.0);    // bucket upper bound 1.0
  for (int i = 0; i < 9; ++i) h.observe(100.0);   // (64, 128]
  h.observe(100000.0);                            // (65536, 131072]
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.9), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 128.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.999), 131072.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 131072.0);
}

TEST(SloHistogram, EmptyAndNaNAndMerge) {
  SloHistogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
  h.observe(std::nan(""));  // dropped, like obs::Histogram
  EXPECT_EQ(h.count(), 0u);
  h.observe(2.0);
  SloHistogram other;
  other.observe(8.0);
  other.observe(8.0);
  h.merge(other);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 18.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 8.0);
}

TEST(SloHistogram, SerdeRoundTripIsExact) {
  SloHistogram h;
  for (double x : {1e-6, 7.5e-5, 7.7e-5, 0.3, 1e4}) h.observe(x);
  serde::Writer w;
  h.save(w);
  auto bytes = w.take();
  serde::Reader r(bytes);
  const auto back = SloHistogram::load(r);
  r.expect_done("slo histogram");
  EXPECT_EQ(back.count(), h.count());
  EXPECT_EQ(back.sum(), h.sum());  // bit-exact doubles
  for (double q : {0.5, 0.9, 0.99, 0.999})
    EXPECT_DOUBLE_EQ(back.quantile(q), h.quantile(q));
}

// --- workload ---------------------------------------------------------------

TEST(Workload, DeterministicAndInBounds) {
  WorkloadConfig cfg;
  cfg.arrival_rate_per_day = 50.0;
  cfg.duration_days = 10.0;
  cfg.min_groups = 2;
  cfg.max_groups = 5;
  Rng a(7), b(7);
  const auto w1 = generate_workload(cfg, a);
  const auto w2 = generate_workload(cfg, b);
  ASSERT_EQ(w1.size(), w2.size());
  ASSERT_GT(w1.size(), 300u);  // ~500 expected
  double prev = 0.0;
  for (std::size_t i = 0; i < w1.size(); ++i) {
    EXPECT_EQ(w1[i].day, w2[i].day);
    EXPECT_EQ(w1[i].run_days, w2[i].run_days);
    EXPECT_EQ(w1[i].groups, w2[i].groups);
    EXPECT_EQ(w1[i].id, static_cast<int>(i));
    EXPECT_GE(w1[i].day, prev);
    EXPECT_LT(w1[i].day, 10.0);
    EXPECT_GE(w1[i].groups, 2);
    EXPECT_LE(w1[i].groups, 5);
    EXPECT_GT(w1[i].run_days, 0.0);
    prev = w1[i].day;
  }
}

// --- control plane ----------------------------------------------------------

ControlPlaneConfig small_config() {
  ControlPlaneConfig cfg;
  cfg.node_count = 256;
  cfg.nodes_per_tor = 4;
  cfg.tors_per_domain = 16;
  cfg.k = 2;
  cfg.gpus_per_node = 4;
  cfg.reconfig_batch = 32;
  return cfg;
}

std::vector<JobArrival> small_workload(double duration_days,
                                       double rate = 40.0,
                                       std::uint64_t seed = 5) {
  WorkloadConfig wl;
  wl.arrival_rate_per_day = rate;
  wl.duration_days = duration_days;
  wl.tp_size_gpus = 32;  // m = 8 nodes per group
  wl.min_groups = 1;
  wl.max_groups = 3;
  wl.mean_run_days = 0.05;
  Rng rng(seed);
  return generate_workload(wl, rng);
}

std::string result_bytes(const ControlPlaneResult& r) {
  serde::Writer w;
  r.save(w);
  return w.take();
}

TEST(ControlPlane, FaultFreeRunCompletesEveryJob) {
  const fault::FaultTrace trace(256, 8.0, {});
  const auto arrivals = small_workload(8.0);
  auto result = run_control_plane(small_config(), trace, arrivals);

  EXPECT_EQ(result.arrivals, arrivals.size());
  EXPECT_EQ(result.preemptions, 0u);
  EXPECT_EQ(result.fault_transitions, 0u);
  // Light load on a healthy fleet: everything submitted early finishes;
  // at most the last few arrivals can straddle the horizon.
  EXPECT_GE(result.completions + 5, result.arrivals);
  EXPECT_EQ(result.unfinished, result.arrivals - result.completions);
  EXPECT_GE(result.starts, result.completions);
  EXPECT_GT(result.events, arrivals.size());  // arrivals + drains + ...
  // Every started job steered its nodes through the batched queue.
  EXPECT_GT(result.reconfig_enqueued, 0u);
  EXPECT_EQ(result.reconfig_drained,
            result.reconfig_enqueued);  // queue fully drained
  EXPECT_EQ(result.reconfig_failed, 0u);
  EXPECT_EQ(result.job_wait_s.count(), result.starts);
  // Job wait = drain latency on an idle queue: within a few drain periods.
  EXPECT_LT(result.job_wait_s.quantile(0.99), 16.0);
  EXPECT_GT(result.reconfig_latency_s.count(), 0u);
  // Reconfig latency: batching delay (~1 s drain tick) + 60-80 us switch.
  EXPECT_LT(result.reconfig_latency_s.quantile(0.999), 16.0);
}

TEST(ControlPlane, DeterministicAcrossRuns) {
  const fault::FaultTrace trace(
      256, 6.0, {{3, 1.0, 3.0}, {40, 2.0, 4.0}, {41, 2.5, 5.5}});
  const auto arrivals = small_workload(6.0);
  const auto a = run_control_plane(small_config(), trace, arrivals);
  const auto b = run_control_plane(small_config(), trace, arrivals);
  EXPECT_EQ(result_bytes(a), result_bytes(b));  // byte-identical
}

TEST(ControlPlane, FaultBurstPreemptsAndRecovers) {
  // Kill half the fleet mid-run under near-saturating load: jobs must be
  // preempted (cancelling their completion events), then recover capacity
  // after the repair.
  std::vector<fault::FaultEvent> events;
  for (int n = 0; n < 128; ++n) events.push_back({n, 2.0, 4.0});
  const fault::FaultTrace trace(256, 10.0, events);
  const auto arrivals = small_workload(10.0, /*rate=*/250.0);
  auto cfg = small_config();
  auto result = run_control_plane(cfg, trace, arrivals);

  EXPECT_EQ(result.fault_transitions, 256u);
  EXPECT_GT(result.preemptions, 0u);
  EXPECT_GT(result.placement_churn, 0u);
  EXPECT_GT(result.completions, arrivals.size() / 2);
  // Faults landed while reconfigs were in flight at least once in a while:
  // the queue reports them rather than stalling.
  EXPECT_EQ(result.reconfig_drained, result.reconfig_enqueued);
}

TEST(ControlPlane, CoalescingKicksInUnderChurn) {
  // Tiny drain budget + rapid job turnover: park/steer requests for the
  // same node overlap in the queue and coalesce.
  std::vector<fault::FaultEvent> events;
  for (int n = 0; n < 32; ++n)
    events.push_back({n, 1.0 + 0.05 * n, 1.5 + 0.05 * n});
  const fault::FaultTrace trace(256, 8.0, events);
  const auto arrivals = small_workload(8.0, /*rate=*/150.0);
  auto cfg = small_config();
  cfg.reconfig_batch = 4;
  cfg.drain_period_days = 8.0 / 86400.0;
  auto result = run_control_plane(cfg, trace, arrivals);
  EXPECT_GT(result.reconfig_coalesced, 0u);
  EXPECT_EQ(result.reconfig_drained, result.reconfig_enqueued);
  EXPECT_GT(result.peak_reconfig_depth, 4u);
}

TEST(ControlPlane, RejectsMismatchedTraceAndMixedTp) {
  const fault::FaultTrace trace(128, 4.0, {});
  EXPECT_THROW(run_control_plane(small_config(), trace, small_workload(4.0)),
               ConfigError);
  const fault::FaultTrace ok_trace(256, 4.0, {});
  auto arrivals = small_workload(4.0);
  arrivals[1].tp_size_gpus = 64;
  EXPECT_THROW(run_control_plane(small_config(), ok_trace, arrivals),
               ConfigError);
}

TEST(ControlPlane, DepthCountersAgreeWithFaultyAtUnderNestedIntervals) {
  // Regression for the overlap contract in src/fault/trace.h: the plane's
  // per-node depth counters must reproduce FaultTrace::faulty_at exactly
  // when intervals on one node nest or overlap. Interval endpoints sit off
  // the 0.25-day sampler grid so the probe never races a same-instant
  // fault edge.
  const fault::FaultTrace trace(256, 8.0,
                                {{3, 1.1, 5.3},    // outer
                                 {3, 2.2, 3.7},    // nested: no 1->0 edge
                                 {3, 4.9, 6.1},    // overlaps the outer tail
                                 {7, 2.2, 2.9},
                                 {7, 2.9, 3.3}});  // back-to-back, no gap
  const auto arrivals = small_workload(8.0);
  ControlPlane plane(small_config(), trace, arrivals);
  int probes = 0;
  plane.health_probe = [&](const ControlPlane& p, double day) {
    const auto expect = trace.faulty_at(day);
    for (int n = 0; n < 256; ++n)
      ASSERT_EQ(p.node_faulty(n), static_cast<bool>(expect[n]))
          << "node " << n << " at day " << day;
    ++probes;
  };
  plane.run();
  EXPECT_GE(probes, 30);  // the 0.25-day sampler covered the horizon
}

TEST(ControlPlane, InjectedFailuresRetryToConvergence) {
  // 10% of session switches fail transiently: every run must still
  // complete, retries must converge (nothing left in flight beyond the
  // horizon's pending tail), and the whole thing stays byte-deterministic.
  const fault::FaultTrace trace(
      256, 8.0, {{3, 1.1, 3.0}, {40, 2.0, 4.0}, {41, 2.5, 5.5}});
  const auto arrivals = small_workload(8.0, /*rate=*/120.0);
  auto cfg = small_config();
  cfg.inject.session_failure_rate = 0.10;
  cfg.inject.seed = 17;
  const auto a = run_control_plane(cfg, trace, arrivals);
  const auto b = run_control_plane(cfg, trace, arrivals);
  EXPECT_EQ(result_bytes(a), result_bytes(b));

  EXPECT_GT(a.reconfig_injected, 0u);
  EXPECT_GT(a.reconfig_retried, 0u);
  // Conservation: every enqueued request is either resolved (drained) or
  // still waiting out a backoff at the horizon.
  EXPECT_EQ(a.reconfig_drained + a.reconfig_pending_end, a.reconfig_enqueued);
  // At 10% per attempt with the default 6-attempt budget, dead letters are
  // ~1e-6 likely per request; retried successes land in the retried split.
  EXPECT_GT(a.reconfig_latency_retried_s.count(), 0u);
  // The run makes progress comparable to fault-free despite the injection.
  EXPECT_GT(a.completions, arrivals.size() / 2);
}

TEST(ControlPlane, DeadLettersDegradeJobsInsteadOfStalling) {
  // Brutal injection (every switch fails) with a 2-attempt budget: steers
  // dead-letter, jobs start anyway on their last good placement, and their
  // waits land in the degraded SLO split — the run never stalls.
  const fault::FaultTrace trace(256, 8.0, {});
  const auto arrivals = small_workload(8.0);
  auto cfg = small_config();
  cfg.inject.session_failure_rate = 1.0;
  cfg.inject.seed = 3;
  cfg.retry.max_attempts = 2;
  const auto r = run_control_plane(cfg, trace, arrivals);

  EXPECT_GT(r.reconfig_dead_lettered, 0u);
  EXPECT_GT(r.degraded_starts, 0u);
  EXPECT_EQ(r.job_wait_degraded_s.count(), r.degraded_starts);
  // Degraded or not, the light-load invariant holds: everything submitted
  // early still finishes.
  EXPECT_GE(r.completions + 5, r.arrivals);
  // The two SLO splits partition the starts.
  EXPECT_EQ(r.job_wait_s.count() + r.job_wait_degraded_s.count(), r.starts);
}

TEST(ControlPlane, MergeAndSerdeRoundTrip) {
  const fault::FaultTrace trace(256, 4.0, {{9, 1.0, 2.0}});
  const auto a = run_control_plane(small_config(), trace, small_workload(4.0));
  const auto b =
      run_control_plane(small_config(), trace, small_workload(4.0, 40.0, 9));

  auto merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.arrivals, a.arrivals + b.arrivals);
  EXPECT_EQ(merged.events, a.events + b.events);
  EXPECT_EQ(merged.job_wait_s.count(),
            a.job_wait_s.count() + b.job_wait_s.count());
  EXPECT_EQ(merged.peak_pending_jobs,
            std::max(a.peak_pending_jobs, b.peak_pending_jobs));

  const auto bytes = result_bytes(merged);
  serde::Reader r(bytes);
  const auto back = ControlPlaneResult::load(r);
  r.expect_done("ctrl result");
  EXPECT_EQ(result_bytes(back), bytes);
}

TEST(ControlPlane, ConcurrentTrialsInOneCellMatchOneWorker) {
  // Several daemons run at once inside one sweep cell (the trials of a cell
  // are concurrent pool tasks). Each trial owns its trace, workload and
  // plane; the merged bytes must not depend on the pool width. Under
  // ThreadSanitizer this is the multi-daemon race check.
  runtime::SweepSpec spec;
  spec.seed = 77;
  spec.trials = 4;
  spec.keep_samples = false;
  spec.axes = {runtime::Axis::of_values("Nodes", {256.0})};
  const auto sweep = [&](int workers) {
    runtime::ThreadPool pool(workers);
    const auto grid = runtime::run_sweep_reduce(
        spec, ControlPlaneResult{},
        [](const runtime::Scenario&, Rng& rng) {
          std::vector<fault::FaultEvent> events;
          for (int i = 0; i < 12; ++i) {
            const int node = static_cast<int>(rng.uniform_index(256));
            const double start = 0.5 + 3.0 * rng.uniform();
            events.push_back({node, start, start + 0.5 * rng.uniform()});
          }
          const fault::FaultTrace trace(256, 4.0, events);
          auto cfg = small_config();
          cfg.seed = rng.next();
          cfg.inject.session_failure_rate = 0.10;
          cfg.inject.seed = rng.next();
          return run_control_plane(cfg, trace,
                                   small_workload(4.0, 150.0, rng.next()));
        },
        [](ControlPlaneResult& acc, ControlPlaneResult&& r) { acc.merge(r); },
        0, &pool);
    return result_bytes(grid.cells.front());
  };
  const std::string one = sweep(1);
  EXPECT_EQ(sweep(4), one);
  EXPECT_EQ(sweep(4), one);
}

// --- golden result pin --------------------------------------------------------

/// FNV-1a-64 of a byte string.
std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

fault::FaultTrace golden_trace(fault::TraceModel model, int nodes,
                               double days) {
  if (model == fault::TraceModel::kPoisson) {
    fault::TraceGenConfig tg;
    tg.node_count = nodes;
    tg.duration_days = days;
    tg.seed = 11;
    return fault::generate_trace(tg);
  }
  fault::PhysicsTraceConfig pc = model == fault::TraceModel::kStorm
                                     ? fault::storm_trace_defaults()
                                     : fault::physics_trace_defaults();
  pc.node_count = nodes;
  pc.duration_days = days;
  pc.seed = 11;
  pc.storm.rate_per_day *= 10.0;  // a storm or two inside the short horizon
  return fault::generate_physics_trace(pc);
}

struct GoldenCase {
  fault::TraceModel model;
  double inject;
  std::uint64_t fnv;  ///< FNV-1a-64 of ControlPlaneResult::save bytes
};

void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << fault::trace_model_name(c.model) << " inject " << c.inject;
}

class ControlPlaneGolden : public ::testing::TestWithParam<GoldenCase> {};

// Pins the exact serialized result of a small loaded fleet per trace model
// and injection rate. DeterministicAcrossRuns only checks that a run agrees
// with itself; this catches silent drift in RNG draw order, event order or
// any counter. A change that is meant to alter results must update these
// values and say so.
TEST_P(ControlPlaneGolden, ResultBytesArePinned) {
  const GoldenCase& c = GetParam();
  const fault::FaultTrace trace = golden_trace(c.model, 256, 24.0);
  const auto arrivals = small_workload(24.0, /*rate=*/200.0, /*seed=*/21);
  auto cfg = small_config();
  cfg.seed = 31;
  cfg.inject.session_failure_rate = c.inject;
  cfg.inject.seed = 41;
  const auto r = run_control_plane(cfg, trace, arrivals);
  ASSERT_GT(r.fault_transitions, 0u);
  ASSERT_GT(r.starts, 0u);
  EXPECT_EQ(fnv1a64(result_bytes(r)), c.fnv);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndInjection, ControlPlaneGolden,
    ::testing::Values(
        GoldenCase{fault::TraceModel::kPoisson, 0.0, 0x867b0d6c2e930f83ull},
        GoldenCase{fault::TraceModel::kPoisson, 0.10, 0x5f7f96b37c7bed26ull},
        GoldenCase{fault::TraceModel::kPhysics, 0.0, 0xc8ab29726d52d211ull},
        GoldenCase{fault::TraceModel::kPhysics, 0.10, 0xc36af0af60aeb614ull},
        GoldenCase{fault::TraceModel::kStorm, 0.0, 0xcbbcbd47d51453e4ull},
        GoldenCase{fault::TraceModel::kStorm, 0.10, 0xc657c7f0ff97a55aull}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(fault::trace_model_name(info.param.model)) +
             (info.param.inject > 0.0 ? "_inject10" : "_clean");
    });

}  // namespace
}  // namespace ihbd::ctrl
