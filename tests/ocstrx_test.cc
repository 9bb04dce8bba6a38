#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <stdexcept>
#include <vector>

#include "src/common/error.h"
#include "src/evsim/engine.h"
#include "src/ocstrx/bundle.h"
#include "src/ocstrx/fabric_manager.h"
#include "src/ocstrx/reconfig_queue.h"
#include "src/ocstrx/transceiver.h"

namespace ihbd::ocstrx {
namespace {

TEST(Transceiver, StartsIdleAndDark) {
  Transceiver trx(0);
  EXPECT_EQ(trx.state(), TrxState::kIdle);
  EXPECT_FALSE(trx.active_path().has_value());
  EXPECT_DOUBLE_EQ(trx.bandwidth_gbps(OcsPath::kExternal1), 0.0);
}

TEST(Transceiver, SynchronousReconfigureActivates) {
  Transceiver trx(0);
  Rng rng(1);
  const auto latency = trx.reconfigure_now(OcsPath::kExternal1, rng);
  ASSERT_TRUE(latency.has_value());
  EXPECT_GE(*latency, 60e-6);
  EXPECT_LE(*latency, 80e-6);
  EXPECT_EQ(trx.state(), TrxState::kActive);
  EXPECT_DOUBLE_EQ(trx.bandwidth_gbps(OcsPath::kExternal1), 800.0);
}

TEST(Transceiver, TimeDivisionExclusivity) {
  // §4.1 Design 1: activating one path completely disables the others.
  Transceiver trx(0);
  Rng rng(1);
  trx.reconfigure_now(OcsPath::kExternal1, rng);
  trx.reconfigure_now(OcsPath::kExternal2, rng);
  EXPECT_DOUBLE_EQ(trx.bandwidth_gbps(OcsPath::kExternal1), 0.0);
  EXPECT_DOUBLE_EQ(trx.bandwidth_gbps(OcsPath::kExternal2), 800.0);
  EXPECT_DOUBLE_EQ(trx.bandwidth_gbps(OcsPath::kLoopback), 0.0);
}

TEST(Transceiver, ReconfigureToSamePathIsFree) {
  Transceiver trx(0);
  Rng rng(1);
  trx.reconfigure_now(OcsPath::kLoopback, rng);
  const auto again = trx.reconfigure_now(OcsPath::kLoopback, rng);
  ASSERT_TRUE(again.has_value());
  EXPECT_DOUBLE_EQ(*again, 0.0);
}

TEST(Transceiver, ControlPlaneLatencyWhenNotPreloaded) {
  Transceiver trx(0);
  Rng rng(1);
  const auto cold =
      trx.reconfigure_now(OcsPath::kExternal1, rng, /*preloaded=*/false);
  ASSERT_TRUE(cold.has_value());
  EXPECT_GT(*cold, 500e-6);  // hardware + control plane
}

TEST(Transceiver, EventDrivenReconfiguration) {
  Transceiver trx(0);
  Rng rng(1);
  evsim::Engine engine;
  bool done = false;
  ASSERT_TRUE(trx.reconfigure(engine, OcsPath::kExternal1, rng,
                              /*preloaded=*/true, [&] { done = true; }));
  EXPECT_EQ(trx.state(), TrxState::kReconfiguring);
  EXPECT_DOUBLE_EQ(trx.bandwidth_gbps(OcsPath::kExternal1), 0.0);
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(trx.state(), TrxState::kActive);
  EXPECT_GE(engine.now(), 60e-6);
  EXPECT_LE(engine.now(), 80e-6);
}

TEST(Transceiver, RejectsReconfigureWhileInFlight) {
  Transceiver trx(0);
  Rng rng(1);
  evsim::Engine engine;
  ASSERT_TRUE(trx.reconfigure(engine, OcsPath::kExternal1, rng, true));
  EXPECT_FALSE(trx.reconfigure(engine, OcsPath::kExternal2, rng, true));
}

TEST(Transceiver, FailureDropsInFlightCompletion) {
  Transceiver trx(0);
  Rng rng(1);
  evsim::Engine engine;
  bool done = false;
  trx.reconfigure(engine, OcsPath::kExternal1, rng, true, [&] { done = true; });
  trx.fail();
  engine.run();
  EXPECT_FALSE(done);
  EXPECT_EQ(trx.state(), TrxState::kFailed);
}

TEST(Transceiver, FailAndRepairLifecycle) {
  Transceiver trx(0);
  Rng rng(1);
  trx.fail();
  EXPECT_FALSE(trx.healthy());
  EXPECT_FALSE(trx.reconfigure_now(OcsPath::kExternal1, rng).has_value());
  trx.repair();
  EXPECT_TRUE(trx.healthy());
  EXPECT_TRUE(trx.reconfigure_now(OcsPath::kExternal1, rng).has_value());
}

TEST(Bundle, AggregatesLineRate) {
  Bundle b(0, 0, 1, 8);
  EXPECT_DOUBLE_EQ(b.total_line_rate_gbps(), 6400.0);  // 8 x 800G = 6.4 Tbps
}

TEST(Bundle, SteerMovesAllMembers) {
  Bundle b(0, 0, 1, 8);
  Rng rng(1);
  const auto latency = b.steer(OcsPath::kExternal1, rng);
  ASSERT_TRUE(latency.has_value());
  EXPECT_DOUBLE_EQ(b.bandwidth_gbps(OcsPath::kExternal1), 6400.0);
  EXPECT_DOUBLE_EQ(b.bandwidth_gbps(OcsPath::kLoopback), 0.0);
}

TEST(Bundle, PartialFailureDegradesBandwidth) {
  Bundle b(0, 0, 1, 8);
  Rng rng(1);
  b.steer(OcsPath::kExternal1, rng);
  b.fail_one(3);
  EXPECT_FALSE(b.healthy());
  EXPECT_DOUBLE_EQ(b.bandwidth_gbps(OcsPath::kExternal1), 5600.0);
}

TEST(Bundle, SteerFailsWhenMemberFailed) {
  Bundle b(0, 0, 1, 4);
  Rng rng(1);
  b.fail_one(0);
  EXPECT_FALSE(b.steer(OcsPath::kExternal2, rng).has_value());
  b.repair();
  EXPECT_TRUE(b.steer(OcsPath::kExternal2, rng).has_value());
}

TEST(Bundle, HealthCountFollowsRepeatedAndPartialEdges) {
  // healthy() reads a failed-member count: repeated and overlapping edges
  // must keep it equal to "every member is healthy".
  Bundle b(0, 0, 1, 4);
  const auto all_members_healthy = [&] {
    for (int i = 0; i < b.trx_count(); ++i)
      if (!b.trx(i).healthy()) return false;
    return true;
  };
  b.fail_one(1);
  b.fail_one(1);  // already failed: counted once
  EXPECT_FALSE(b.healthy());
  b.fail();       // fails the other three
  b.fail();       // no-op for the count
  EXPECT_FALSE(b.healthy());
  b.repair();
  EXPECT_TRUE(b.healthy());
  EXPECT_EQ(b.healthy(), all_members_healthy());
  b.repair();     // repairing a healthy bundle changes nothing
  EXPECT_TRUE(b.healthy());
  b.fail_one(0);
  b.fail_one(3);
  EXPECT_FALSE(b.healthy());
  EXPECT_EQ(b.healthy(), all_members_healthy());
  b.repair();
  EXPECT_TRUE(b.healthy());
  EXPECT_EQ(b.healthy(), all_members_healthy());
}

TEST(Bundle, AsyncSteerCompletesViaBarrier) {
  Bundle b(0, 0, 1, 4);
  Rng rng(1);
  evsim::Engine engine;
  bool done = false;
  ASSERT_TRUE(b.steer_async(engine, OcsPath::kExternal1, rng, true,
                            [&] { done = true; }));
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(b.bandwidth_gbps(OcsPath::kExternal1), 3200.0);
}

TEST(FabricManager, RejectsBadConfigs) {
  EXPECT_THROW(NodeFabricManager(1, 1, 8), ConfigError);
  EXPECT_THROW(NodeFabricManager(4, 5, 8), ConfigError);
  EXPECT_THROW(NodeFabricManager(4, 4, 0), ConfigError);
}

TEST(FabricManager, SessionPreloadAndApply) {
  NodeFabricManager fm(4, 4, 2);
  Rng rng(1);
  Session ring;
  ring[0] = OcsPath::kExternal1;
  ring[1] = OcsPath::kExternal1;
  ring[2] = OcsPath::kLoopback;
  ring[3] = OcsPath::kLoopback;
  fm.preload_session("ring", ring);
  EXPECT_TRUE(fm.has_session("ring"));
  const auto latency = fm.apply_session("ring", rng);
  ASSERT_TRUE(latency.has_value());
  EXPECT_LE(*latency, 80e-6);  // fast switch: hardware latency only
  EXPECT_DOUBLE_EQ(fm.external_bandwidth_gbps(), 2 * 2 * 800.0);
}

TEST(FabricManager, UnknownSessionFails) {
  NodeFabricManager fm(4, 4, 1);
  Rng rng(1);
  EXPECT_FALSE(fm.apply_session("nope", rng).has_value());
}

TEST(FabricManager, AdhocPaysControlPlane) {
  NodeFabricManager fm(4, 2, 1);
  Rng rng(1);
  Session s;
  s[0] = OcsPath::kExternal2;
  const auto latency = fm.apply_adhoc(s, rng);
  ASSERT_TRUE(latency.has_value());
  EXPECT_GT(*latency, 500e-6);
}

TEST(FabricManager, ParkAllLoopback) {
  NodeFabricManager fm(4, 4, 2);
  Rng rng(1);
  fm.park_all_loopback(rng);
  EXPECT_DOUBLE_EQ(fm.external_bandwidth_gbps(), 0.0);
  for (int b = 0; b < fm.bundle_count(); ++b)
    EXPECT_DOUBLE_EQ(fm.bundle(b).bandwidth_gbps(OcsPath::kLoopback),
                     2 * 800.0);
}

TEST(FabricManager, HealthTracksBundles) {
  NodeFabricManager fm(4, 4, 1);
  EXPECT_TRUE(fm.healthy());
  fm.bundle(2).fail();
  EXPECT_FALSE(fm.healthy());
  fm.bundle(2).repair();
  EXPECT_TRUE(fm.healthy());
}

std::vector<NodeFabricManager> test_fleet(int nodes) {
  std::vector<NodeFabricManager> fleet;
  fleet.reserve(static_cast<std::size_t>(nodes));
  Session ring;
  ring[0] = OcsPath::kExternal1;
  ring[1] = OcsPath::kExternal2;
  Session park;
  park[0] = OcsPath::kLoopback;
  park[1] = OcsPath::kLoopback;
  for (int n = 0; n < nodes; ++n) {
    fleet.emplace_back(4, 2, 1);
    fleet.back().preload_session("ring", ring);
    fleet.back().preload_session("park", park);
  }
  return fleet;
}

TEST(ReconfigQueue, DrainsFifoWithinBatchBudget) {
  auto fleet = test_fleet(8);
  ReconfigQueue q(/*max_batch=*/3);
  Rng rng(1);
  for (int n = 0; n < 5; ++n) EXPECT_TRUE(q.enqueue(n, "ring", 1.0 + n));
  EXPECT_EQ(q.pending(), 5u);

  const auto first = q.drain_batch(fleet, 10.0, rng);
  ASSERT_EQ(first.size(), 3u);  // batch budget caps the drain
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(first[static_cast<std::size_t>(i)].request.node, i);
    EXPECT_TRUE(first[static_cast<std::size_t>(i)].ok());
    EXPECT_LE(*first[static_cast<std::size_t>(i)].switch_latency_s, 80e-6);
    EXPECT_DOUBLE_EQ(first[static_cast<std::size_t>(i)].drained_at, 10.0);
  }
  EXPECT_EQ(q.pending(), 2u);
  const auto rest = q.drain_batch(fleet, 11.0, rng);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].request.node, 3);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.drained(), 5u);
  EXPECT_EQ(q.failed(), 0u);
}

TEST(ReconfigQueue, CoalescesPerNodeKeepingOldestWait) {
  auto fleet = test_fleet(4);
  ReconfigQueue q;
  Rng rng(1);
  EXPECT_TRUE(q.enqueue(2, "ring", 1.0));
  EXPECT_TRUE(q.enqueue(0, "ring", 2.0));
  // Retarget node 2 while queued: no new entry, position and enqueue time
  // stay those of the original request, target becomes the latest ask.
  EXPECT_FALSE(q.enqueue(2, "park", 3.0));
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(q.coalesced(), 1u);

  const auto out = q.drain_batch(fleet, 5.0, rng);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].request.node, 2);
  EXPECT_EQ(q.session_name(out[0].request.session), "park");
  EXPECT_DOUBLE_EQ(out[0].request.enqueued_at, 1.0);
  // Once drained, the node can be queued afresh.
  EXPECT_TRUE(q.enqueue(2, "ring", 6.0));
}

TEST(ReconfigQueue, ReportsFailuresWithoutStalling) {
  auto fleet = test_fleet(3);
  fleet[1].bundle(0).fail();
  ReconfigQueue q;
  Rng rng(1);
  q.enqueue(0, "ring", 0.0);
  q.enqueue(1, "ring", 0.0);   // touched bundle failed -> transient !ok()
  q.enqueue(2, "nope", 0.0);   // unknown session -> permanent !ok()
  q.enqueue(99, "ring", 0.0);  // out-of-fleet node -> permanent !ok()
  const auto out = q.drain_batch(fleet, 1.0, rng);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_TRUE(out[0].ok());
  EXPECT_FALSE(out[1].ok());
  EXPECT_TRUE(out[1].will_retry);  // hardware can recover: retry
  EXPECT_FALSE(out[2].ok());
  EXPECT_TRUE(out[2].permanent);  // a wrong request stays wrong: resolve
  EXPECT_FALSE(out[3].ok());
  EXPECT_TRUE(out[3].permanent);
  EXPECT_EQ(q.failed(), 3u);
  EXPECT_EQ(q.retrying(), 1u);
  EXPECT_EQ(q.drained(), 3u);  // node 1 is unresolved, not drained
  EXPECT_FALSE(q.empty());

  // The bundle comes back; the retry succeeds once its backoff elapses.
  fleet[1].bundle(0).repair();
  ASSERT_TRUE(q.next_retry_at().has_value());
  const auto again = q.drain_batch(fleet, *q.next_retry_at(), rng);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_TRUE(again[0].ok());
  EXPECT_EQ(again[0].request.node, 1);
  EXPECT_EQ(again[0].request.attempts, 2);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.drained(), 4u);
}

TEST(ReconfigQueue, BackoffScheduleIsCappedExponential) {
  RetryPolicy p;
  p.base_backoff = 2.0;
  p.backoff_factor = 2.0;
  p.max_backoff = 16.0;
  EXPECT_DOUBLE_EQ(p.backoff_for(1), 2.0);
  EXPECT_DOUBLE_EQ(p.backoff_for(2), 4.0);
  EXPECT_DOUBLE_EQ(p.backoff_for(3), 8.0);
  EXPECT_DOUBLE_EQ(p.backoff_for(4), 16.0);
  EXPECT_DOUBLE_EQ(p.backoff_for(5), 16.0);  // capped
  EXPECT_DOUBLE_EQ(p.backoff_for(50), 16.0);

  // The queue schedules exactly that ladder: each failed attempt's next
  // deadline is now + backoff_for(attempts so far).
  auto fleet = test_fleet(1);
  fleet[0].bundle(0).fail();
  p.max_attempts = 100;
  ReconfigQueue q(/*max_batch=*/4, p);
  Rng rng(1);
  q.enqueue(0, "ring", 0.0);
  double now = 0.0;
  const double expect_gap[] = {2.0, 4.0, 8.0, 16.0, 16.0};
  for (const double gap : expect_gap) {
    const auto out = q.drain_batch(fleet, now, rng);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].will_retry);
    ASSERT_TRUE(q.next_retry_at().has_value());
    EXPECT_DOUBLE_EQ(*q.next_retry_at(), now + gap);
    // Draining before the deadline is a no-op: the request backs off.
    EXPECT_TRUE(q.drain_batch(fleet, now + gap / 2, rng).empty());
    now = *q.next_retry_at();
  }
  EXPECT_EQ(q.retried(), 5u);
}

TEST(ReconfigQueue, DeadLettersAfterMaxAttempts) {
  auto fleet = test_fleet(2);
  fleet[1].bundle(1).fail();
  RetryPolicy p;
  p.max_attempts = 3;
  p.base_backoff = 1.0;
  p.backoff_factor = 2.0;
  p.max_backoff = 4.0;
  ReconfigQueue q(/*max_batch=*/4, p);
  Rng rng(1);
  q.enqueue(1, "ring", 0.0);
  double now = 0.0;
  for (int attempt = 1; attempt <= 3; ++attempt) {
    const auto out = q.drain_batch(fleet, now, rng);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].request.attempts, attempt);
    EXPECT_FALSE(out[0].ok());
    if (attempt < 3) {
      EXPECT_TRUE(out[0].will_retry);
      now = *q.next_retry_at();
    } else {
      EXPECT_TRUE(out[0].dead_lettered);
      EXPECT_FALSE(out[0].will_retry);
    }
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.dead_lettered(), 1u);
  EXPECT_EQ(q.drained(), 1u);  // dead-lettering RESOLVES the request
  EXPECT_EQ(q.failed(), 3u);
  ASSERT_EQ(q.dead_letters().size(), 1u);
  EXPECT_EQ(q.dead_letters()[0].node, 1);
  EXPECT_EQ(q.session_name(q.dead_letters()[0].session), "ring");
  EXPECT_EQ(q.dead_letters()[0].attempts, 3);
  // The dead letter freed the coalescing key: the node can re-enqueue.
  EXPECT_TRUE(q.enqueue(1, "park", now));
}

TEST(ReconfigQueue, InjectedFailuresAreDeterministic) {
  fault::InjectionPlan plan;
  plan.session_failure_rate = 0.5;
  plan.seed = 7;
  // The plan is a pure hash: same (node, sequence) -> same verdict.
  for (int n = 0; n < 4; ++n) {
    for (std::uint64_t s = 0; s < 8; ++s) {
      EXPECT_EQ(plan.should_fail(n, s), plan.should_fail(n, s));
    }
  }

  // Two identical queues see identical injected-failure sequences.
  const auto run = [&] {
    auto fleet = test_fleet(8);
    ReconfigQueue q(/*max_batch=*/64, RetryPolicy{}, plan);
    Rng rng(3);
    for (int n = 0; n < 8; ++n) q.enqueue(n, "ring", 0.0);
    std::string verdicts;
    for (const auto& oc : q.drain_batch(fleet, 1.0, rng))
      verdicts += oc.injected ? 'x' : '.';
    return verdicts;
  };
  const std::string a = run();
  EXPECT_EQ(a, run());
  EXPECT_NE(a.find('x'), std::string::npos);  // rate 0.5 over 8 draws
  EXPECT_NE(a.find('.'), std::string::npos);

  // rate = 1 fails every attempt until the dead-letter gives up.
  plan.session_failure_rate = 1.0;
  auto fleet = test_fleet(1);
  RetryPolicy p;
  p.max_attempts = 4;
  ReconfigQueue q(/*max_batch=*/4, p, plan);
  Rng rng(3);
  q.enqueue(0, "ring", 0.0);
  double now = 0.0;
  while (!q.empty()) {
    q.drain_batch(fleet, now, rng);
    now = q.next_retry_at().value_or(now + 1.0);
  }
  EXPECT_EQ(q.injected(), 4u);
  EXPECT_EQ(q.dead_lettered(), 1u);
}

TEST(ReconfigQueue, CoalescingOntoBackoffKeepsSlotButResetsBudget) {
  auto fleet = test_fleet(2);
  fleet[0].bundle(0).fail();
  RetryPolicy p;
  p.max_attempts = 3;
  p.base_backoff = 2.0;
  p.max_backoff = 8.0;
  ReconfigQueue q(/*max_batch=*/4, p);
  Rng rng(1);
  q.enqueue(0, "ring", 0.0);
  auto out = q.drain_batch(fleet, 1.0, rng);
  ASSERT_TRUE(out[0].will_retry);
  const double deadline = *q.next_retry_at();

  // Retarget while backing off: no new entry, the backoff slot and the
  // original enqueue time survive, but the attempt budget is fresh (the
  // intent is new).
  EXPECT_FALSE(q.enqueue(0, "park", 2.0));
  EXPECT_EQ(q.coalesced(), 1u);
  EXPECT_DOUBLE_EQ(*q.next_retry_at(), deadline);

  fleet[0].bundle(0).repair();
  out = q.drain_batch(fleet, deadline, rng);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].ok());
  EXPECT_EQ(q.session_name(out[0].request.session), "park");
  EXPECT_DOUBLE_EQ(out[0].request.enqueued_at, 0.0);
  EXPECT_EQ(out[0].request.attempts, 1);  // budget was reset on coalesce
}

TEST(ReconfigQueue, PromotedRetriesKeepDeadlineOrder) {
  auto fleet = test_fleet(4);
  fleet[2].bundle(0).fail();
  fleet[3].bundle(0).fail();
  RetryPolicy p;
  p.base_backoff = 2.0;
  p.max_backoff = 8.0;
  p.max_attempts = 5;
  ReconfigQueue q(/*max_batch=*/8, p);
  Rng rng(1);
  // Node 3 fails first (earlier deadline), then node 2 one drain later.
  q.enqueue(3, "ring", 0.0);
  q.drain_batch(fleet, 0.0, rng);        // 3 -> retry at 2.0
  q.enqueue(2, "ring", 0.5);
  q.drain_batch(fleet, 0.5, rng);        // 2 -> retry at 2.5
  q.enqueue(1, "ring", 1.0);             // fresh arrival
  fleet[2].bundle(0).repair();
  fleet[3].bundle(0).repair();
  // At 3.0 both retries are due: they rejoin ahead-of-batch in deadline
  // order (3 before 2), after the already-ready fresh arrival.
  const auto out = q.drain_batch(fleet, 3.0, rng);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].request.node, 1);
  EXPECT_EQ(out[1].request.node, 3);
  EXPECT_EQ(out[2].request.node, 2);
  for (const auto& oc : out) EXPECT_TRUE(oc.ok());
  EXPECT_TRUE(q.empty());
}

TEST(ReconfigQueue, OutOfRangeNodesFailPermanently) {
  // Bad node ids must never index or size the dense slot table: each one
  // resolves as a permanent failure on its first attempt, counted in
  // failed() and drained(), without disturbing the in-range requests
  // drained in the same batch.
  auto fleet = test_fleet(4);
  const int beyond = static_cast<int>(fleet.size());
  const std::vector<int> nodes = {0, -1, 1, beyond, 2, INT_MAX, 3};
  const auto bad = [&](int n) { return n < 0 || n >= beyond; };
  ReconfigQueue q(/*max_batch=*/16);
  Rng rng(1);
  for (const int n : nodes) EXPECT_TRUE(q.enqueue(n, "ring", 0.5));
  EXPECT_EQ(q.pending(), nodes.size());

  const auto out = q.drain_batch(fleet, 1.0, rng);
  ASSERT_EQ(out.size(), nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const ReconfigOutcome& oc = out[i];
    EXPECT_EQ(oc.request.node, nodes[i]);  // FIFO order kept
    EXPECT_EQ(oc.request.attempts, 1);
    EXPECT_TRUE(oc.resolved());
    EXPECT_FALSE(oc.will_retry);
    EXPECT_FALSE(oc.dead_lettered);
    EXPECT_EQ(oc.permanent, bad(nodes[i])) << "node " << nodes[i];
    EXPECT_EQ(oc.ok(), !bad(nodes[i])) << "node " << nodes[i];
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.failed(), 3u);
  EXPECT_EQ(q.drained(), nodes.size());
  EXPECT_EQ(q.retried(), 0u);
  EXPECT_EQ(q.enqueued(), nodes.size());
  for (int n = 0; n < beyond; ++n)  // every in-range node was steered
    EXPECT_GT(fleet[static_cast<std::size_t>(n)].external_bandwidth_gbps(),
              0.0);

  // The queue stays usable: in-range nodes still coalesce afterwards.
  EXPECT_TRUE(q.enqueue(2, "park", 2.0));
  EXPECT_FALSE(q.enqueue(2, "ring", 2.5));
  EXPECT_TRUE(q.enqueue(INT_MAX, "ring", 2.5));
  const auto again = q.drain_batch(fleet, 3.0, rng);
  ASSERT_EQ(again.size(), 2u);
  EXPECT_TRUE(again[0].ok());
  EXPECT_EQ(q.session_name(again[0].request.session), "ring");
  EXPECT_TRUE(again[1].permanent);
  EXPECT_EQ(q.drained(), nodes.size() + 2);
}

// --- RNG draw order -----------------------------------------------------------

/// The next `n` hardware-latency draws of `rng`, as a switching transceiver
/// makes them.
std::vector<double> next_draws(Rng& rng, int n) {
  std::vector<double> out;
  for (int i = 0; i < n; ++i)
    out.push_back(rng.uniform(phy::OcsSwitchMatrix::kReconfigMinS,
                              phy::OcsSwitchMatrix::kReconfigMaxS));
  return out;
}

TEST(DrawOrder, OneDrawPerSwitchingTransceiverInBundleOrder) {
  NodeFabricManager fm(4, 4, 2);
  Session pre;
  pre[1] = OcsPath::kExternal2;
  fm.preload_session("pre", pre);
  Session ring;
  ring[0] = OcsPath::kExternal1;
  ring[1] = OcsPath::kExternal2;  // already there: no draw
  ring[3] = OcsPath::kLoopback;
  fm.preload_session("ring", ring);

  Rng rng(77);
  Rng ref(77);
  const auto pre_latency = fm.apply_session("pre", rng);
  const std::vector<double> pre_draws = next_draws(ref, 2);
  ASSERT_TRUE(pre_latency.has_value());
  EXPECT_EQ(*pre_latency, std::max(pre_draws[0], pre_draws[1]));

  // Bundles 0 and 3 switch (2 members each): exactly 4 draws; bundle 1
  // and the untouched bundle 2 draw nothing.
  const auto latency = fm.apply_session("ring", rng);
  const std::vector<double> draws = next_draws(ref, 4);
  ASSERT_TRUE(latency.has_value());
  EXPECT_EQ(*latency, *std::max_element(draws.begin(), draws.end()));
  EXPECT_EQ(rng.state(), ref.state());

  // Re-applying a session already in place draws nothing and costs 0.
  const auto again = fm.apply_session("ring", rng);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, 0.0);
  EXPECT_EQ(rng.state(), ref.state());

  // Pinned values: a change to the number or order of draws moves them.
  Rng pinned(2025);
  NodeFabricManager fresh(4, 4, 1);
  fresh.preload_session("ring", ring);
  const auto pinned_latency = fresh.apply_session("ring", pinned);
  Rng pinned_ref(2025);
  const std::vector<double> pinned_draws = next_draws(pinned_ref, 3);
  ASSERT_TRUE(pinned_latency.has_value());
  EXPECT_EQ(*pinned_latency,
            *std::max_element(pinned_draws.begin(), pinned_draws.end()));
  EXPECT_EQ(pinned.next(), pinned_ref.next());
}

TEST(DrawOrder, PartialApplyKeepsEarlierBundlesAndTheirDraws) {
  NodeFabricManager fm(4, 4, 2);
  Session ring;
  ring[0] = OcsPath::kExternal1;
  ring[1] = OcsPath::kExternal2;
  ring[2] = OcsPath::kLoopback;  // failed below
  ring[3] = OcsPath::kLoopback;
  fm.preload_session("ring", ring);
  fm.bundle(2).fail_one(1);

  Rng rng(9);
  Rng ref(9);
  EXPECT_FALSE(fm.apply_session("ring", rng).has_value());
  // Bundles 0 and 1 switched before the failed bundle 2 was reached: their
  // four draws stay consumed; bundle 2 (a member down) and bundle 3 draw
  // nothing and stay dark.
  next_draws(ref, 4);
  EXPECT_EQ(rng.state(), ref.state());
  EXPECT_DOUBLE_EQ(fm.bundle(0).bandwidth_gbps(OcsPath::kExternal1), 1600.0);
  EXPECT_DOUBLE_EQ(fm.bundle(1).bandwidth_gbps(OcsPath::kExternal2), 1600.0);
  EXPECT_DOUBLE_EQ(fm.bundle(2).bandwidth_gbps(OcsPath::kLoopback), 0.0);
  EXPECT_DOUBLE_EQ(fm.bundle(3).bandwidth_gbps(OcsPath::kLoopback), 0.0);
  EXPECT_EQ(fm.bundle(2).trx(0).state(), TrxState::kIdle);

  // After repair the same session completes; bundles 0 and 1 are already
  // in place, so only bundles 2 and 3 draw.
  fm.bundle(2).repair();
  const auto latency = fm.apply_session("ring", rng);
  const std::vector<double> draws = next_draws(ref, 4);
  ASSERT_TRUE(latency.has_value());
  EXPECT_EQ(*latency, *std::max_element(draws.begin(), draws.end()));
  EXPECT_EQ(rng.state(), ref.state());
}

TEST(FabricManager, OverwritingASessionKeepsTheOthers) {
  NodeFabricManager fm(4, 4, 1);
  Session a;
  a[0] = OcsPath::kExternal1;
  a[1] = OcsPath::kExternal1;
  Session b;
  b[2] = OcsPath::kExternal2;
  fm.preload_session("a", a);
  fm.preload_session("b", b);
  Session a2;
  a2[3] = OcsPath::kExternal2;
  fm.preload_session("a", a2);  // shorter: b's steps move down
  EXPECT_EQ(fm.find_session("a"), 0);
  EXPECT_EQ(fm.find_session("b"), 1);
  EXPECT_EQ(fm.find_session("c"), -1);
  Rng rng(1);
  ASSERT_TRUE(fm.apply_session("b", rng).has_value());
  EXPECT_DOUBLE_EQ(fm.bundle(2).bandwidth_gbps(OcsPath::kExternal2), 800.0);
  ASSERT_TRUE(fm.apply_session("a", rng).has_value());
  EXPECT_DOUBLE_EQ(fm.bundle(3).bandwidth_gbps(OcsPath::kExternal2), 800.0);
  EXPECT_DOUBLE_EQ(fm.bundle(0).bandwidth_gbps(OcsPath::kExternal1), 0.0);
}

TEST(FabricManager, CopiesOwnTheirTransceivers) {
  NodeFabricManager a(4, 2, 2);
  Session ring;
  ring[0] = OcsPath::kExternal1;
  a.preload_session("ring", ring);
  a.bundle(1).fail();
  NodeFabricManager b = a;
  Bundle standalone = a.bundle(0);  // a node's bundle, copied out
  a.bundle(1).repair();
  Rng rng(1);
  ASSERT_TRUE(a.apply_session("ring", rng).has_value());
  EXPECT_TRUE(a.healthy());
  EXPECT_FALSE(b.healthy());  // its own copy of the failed bundle
  EXPECT_DOUBLE_EQ(b.bundle(0).bandwidth_gbps(OcsPath::kExternal1), 0.0);
  EXPECT_DOUBLE_EQ(standalone.bandwidth_gbps(OcsPath::kExternal1), 0.0);
  ASSERT_TRUE(b.apply_session("ring", rng).has_value());
  EXPECT_DOUBLE_EQ(b.bundle(0).bandwidth_gbps(OcsPath::kExternal1), 1600.0);
  b = a;  // assignment re-points too
  a.bundle(0).fail();
  EXPECT_TRUE(b.healthy());
}

// --- interned session names ----------------------------------------------------

TEST(ReconfigQueue, SessionNamesReadBackAfterCoalescingRetargets) {
  auto fleet = test_fleet(3);
  fleet[1].bundle(0).fail();
  RetryPolicy p;
  p.max_attempts = 2;
  p.base_backoff = 1.0;
  p.max_backoff = 1.0;
  ReconfigQueue q(/*max_batch=*/8, p);
  Rng rng(1);
  EXPECT_TRUE(q.enqueue(0, "ring", 0.0));
  EXPECT_TRUE(q.enqueue(1, "ring", 0.0));
  EXPECT_TRUE(q.enqueue(2, "ring", 0.0));
  // Retarget two queued requests; "park" is first seen while coalescing
  // and "nope" names no preloaded session.
  EXPECT_FALSE(q.enqueue(1, "park", 0.5));
  EXPECT_FALSE(q.enqueue(2, "nope", 0.5));
  EXPECT_EQ(q.session_name(0), "ring");
  EXPECT_EQ(q.session_name(1), "park");
  EXPECT_EQ(q.session_name(2), "nope");

  auto out = q.drain_batch(fleet, 1.0, rng);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(q.session_name(out[0].request.session), "ring");
  EXPECT_TRUE(out[0].ok());
  EXPECT_EQ(q.session_name(out[1].request.session), "park");
  EXPECT_TRUE(out[1].will_retry);
  EXPECT_EQ(q.session_name(out[2].request.session), "nope");
  EXPECT_TRUE(out[2].permanent);

  // Retarget node 1 again while it backs off; its dead letter carries the
  // latest target.
  EXPECT_FALSE(q.enqueue(1, "ring", 1.5));
  double now = *q.next_retry_at();
  while (!q.empty()) {
    for (const auto& oc : q.drain_batch(fleet, now, rng))
      EXPECT_EQ(q.session_name(oc.request.session), "ring");
    now = q.next_retry_at().value_or(now + 1.0);
  }
  ASSERT_EQ(q.dead_letters().size(), 1u);
  EXPECT_EQ(q.dead_letters()[0].node, 1);
  EXPECT_EQ(q.session_name(q.dead_letters()[0].session), "ring");
  EXPECT_THROW(q.session_name(3), std::out_of_range);
}

TEST(ReconfigQueue, RetriesFromSeveralBackoffsRejoinInDeadlineOrder) {
  // Requests backing off with different delays are released in (deadline,
  // failure order), also after the drain clock stepped back.
  auto fleet = test_fleet(5);
  for (auto& fm : fleet) fm.bundle(0).fail();
  RetryPolicy p;
  p.max_attempts = 10;
  p.base_backoff = 1.0;
  p.backoff_factor = 2.0;
  p.max_backoff = 8.0;
  ReconfigQueue q(/*max_batch=*/16, p);
  Rng rng(1);
  const auto drain = [&](double now) {
    std::vector<int> nodes;
    for (const auto& oc : q.drain_batch(fleet, now, rng))
      nodes.push_back(oc.request.node);
    return nodes;
  };
  q.enqueue(0, "ring", 0.0);
  q.enqueue(1, "ring", 0.0);
  EXPECT_EQ(drain(0.0), (std::vector<int>{0, 1}));  // both due at 1.0
  EXPECT_EQ(drain(1.0), (std::vector<int>{0, 1}));  // both due at 3.0
  q.enqueue(2, "ring", 1.5);
  EXPECT_EQ(drain(1.5), (std::vector<int>{2}));  // due at 2.5
  q.enqueue(3, "ring", 2.0);
  EXPECT_EQ(drain(2.0), (std::vector<int>{3}));  // due at 3.0, after 0, 1
  q.enqueue(4, "ring", 1.8);
  EXPECT_EQ(drain(1.8), (std::vector<int>{4}));  // clock back: due at 2.8
  EXPECT_DOUBLE_EQ(*q.next_retry_at(), 2.5);
  EXPECT_EQ(q.retrying(), 5u);
  for (auto& fm : fleet) fm.bundle(0).repair();
  EXPECT_EQ(drain(10.0), (std::vector<int>{2, 4, 0, 1, 3}));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.next_retry_at().has_value());
}

}  // namespace
}  // namespace ihbd::ocstrx
