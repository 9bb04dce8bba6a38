#include <gtest/gtest.h>

#include "src/common/error.h"
#include "src/core/scheduler.h"
#include "src/topo/baselines.h"
#include "src/topo/khop_ring.h"

namespace ihbd::core {
namespace {

fault::FaultTrace no_faults(int nodes, double days) {
  return fault::FaultTrace(nodes, days, {});
}

TEST(Scheduler, SingleJobRunsToCompletion) {
  topo::KHopRing ring(64, 4, 2);
  const auto trace = no_faults(64, 10.0);
  std::vector<JobRequest> jobs{{1, 32, 128, 2.0}};
  const auto result = simulate_schedule(ring, trace, jobs, 0.5);
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_TRUE(result.outcomes[0].finished());
  EXPECT_DOUBLE_EQ(result.outcomes[0].completed_day, 2.0);
  EXPECT_DOUBLE_EQ(result.outcomes[0].waiting_days, 0.0);
  EXPECT_DOUBLE_EQ(result.goodput_gpu_days, 128 * 2.0);
}

TEST(Scheduler, FifoQueuesWhenOversubscribed) {
  topo::KHopRing ring(64, 4, 2);  // 256 GPUs
  const auto trace = no_faults(64, 20.0);
  // Two jobs of 160 GPUs each cannot co-run on 256.
  std::vector<JobRequest> jobs{{1, 32, 160, 3.0}, {2, 32, 160, 3.0}};
  const auto result = simulate_schedule(ring, trace, jobs, 0.5);
  EXPECT_TRUE(result.outcomes[0].finished());
  EXPECT_TRUE(result.outcomes[1].finished());
  EXPECT_DOUBLE_EQ(result.outcomes[0].completed_day, 3.0);
  EXPECT_GE(result.outcomes[1].waiting_days, 3.0);
  EXPECT_GT(result.outcomes[1].completed_day, 5.9);
}

TEST(Scheduler, SmallJobsBackfillAroundBigOnes) {
  topo::KHopRing ring(64, 4, 2);  // 256 GPUs
  const auto trace = no_faults(64, 20.0);
  std::vector<JobRequest> jobs{{1, 32, 192, 4.0}, {2, 32, 64, 1.0}};
  const auto result = simulate_schedule(ring, trace, jobs, 0.5);
  // 192 + 64 = 256: both run immediately.
  EXPECT_DOUBLE_EQ(result.outcomes[1].completed_day, 1.0);
  EXPECT_DOUBLE_EQ(result.outcomes[1].waiting_days, 0.0);
}

TEST(Scheduler, FaultBurstPreemptsNewestJob) {
  topo::KHopRing ring(64, 4, 3);  // 256 GPUs
  // Days 5..10: 8 nodes (32 GPUs) down.
  std::vector<fault::FaultEvent> events;
  for (int n = 0; n < 8; ++n) events.push_back({n, 5.0, 10.0});
  fault::FaultTrace trace(64, 30.0, events);
  std::vector<JobRequest> jobs{{1, 32, 128, 8.0}, {2, 32, 128, 8.0}};
  const auto result = simulate_schedule(ring, trace, jobs, 0.5);
  // Both fit until day 5 (256 usable); during the burst only 224 are
  // usable, so job 2 preempts. It resumes at day 8 when job 1 completes
  // (not day 10 - backfilling into the freed capacity), finishing late.
  EXPECT_TRUE(result.outcomes[0].finished());
  EXPECT_TRUE(result.outcomes[1].finished());
  EXPECT_GE(result.outcomes[1].preemptions, 1);
  EXPECT_NEAR(result.outcomes[1].waiting_days, 3.0, 0.6);
  EXPECT_GT(result.outcomes[1].completed_day,
            result.outcomes[0].completed_day);
}

TEST(Scheduler, UnfinishedJobReportedAsSuch) {
  topo::KHopRing ring(64, 4, 2);
  const auto trace = no_faults(64, 5.0);
  std::vector<JobRequest> jobs{{1, 32, 128, 100.0}};
  const auto result = simulate_schedule(ring, trace, jobs, 1.0);
  EXPECT_FALSE(result.outcomes[0].finished());
  EXPECT_GT(result.goodput_gpu_days, 0.0);
}

TEST(Scheduler, UtilizationBounded) {
  topo::KHopRing ring(64, 4, 2);
  const auto trace = no_faults(64, 10.0);
  std::vector<JobRequest> jobs{{1, 32, 256, 10.0}};
  const auto result = simulate_schedule(ring, trace, jobs, 0.5);
  EXPECT_GT(result.utilization(), 0.99);
  EXPECT_LE(result.utilization(), 1.0 + 1e-9);
}

TEST(Scheduler, RejectsBadJob) {
  topo::KHopRing ring(64, 4, 2);
  const auto trace = no_faults(64, 5.0);
  std::vector<JobRequest> jobs{{1, 32, 100, 1.0}};  // not a TP multiple
  EXPECT_THROW(simulate_schedule(ring, trace, jobs), ConfigError);
}

TEST(Scheduler, ArchitectureComparisonFavorsInfiniteHbd) {
  // The same job mix on SiP-Ring suffers more waiting under faults.
  std::vector<fault::FaultEvent> events;
  for (int n = 0; n < 18; n += 3) events.push_back({n * 2, 2.0, 28.0});
  fault::FaultTrace trace(72, 30.0, events);
  topo::KHopRing ring(72, 4, 3);
  topo::SipRing sip(72, 4);
  std::vector<JobRequest> jobs{{1, 32, 192, 20.0}};
  const auto r_ring = simulate_schedule(ring, trace, jobs, 0.5);
  const auto r_sip = simulate_schedule(sip, trace, jobs, 0.5);
  EXPECT_GE(r_ring.goodput_gpu_days, r_sip.goodput_gpu_days);
}

}  // namespace
}  // namespace ihbd::core
