// Trace replay (src/topo/waste.h) as the benches run it: a sweep grid of
// incremental replays bit-identical to the serial reference for any worker
// count, the sample-day primitive (src/fault/trace.h), and the
// keep_samples memory-bounding mode.
#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "src/fault/generator.h"
#include "src/fault/trace.h"
#include "src/runtime/sweep.h"
#include "src/runtime/thread_pool.h"
#include "src/topo/khop_ring.h"
#include "src/topo/waste.h"

namespace ihbd::topo {
namespace {

fault::FaultTrace small_trace(int nodes = 96, double days = 45.0) {
  fault::TraceGenConfig cfg;
  cfg.node_count = nodes;
  cfg.duration_days = days;
  return fault::generate_trace(cfg);
}

void expect_same_result(const TraceWasteResult& a, const TraceWasteResult& b) {
  // Bitwise: vector<double> operator== compares element bits for non-NaN.
  EXPECT_EQ(a.waste_ratio.t, b.waste_ratio.t);
  EXPECT_EQ(a.waste_ratio.v, b.waste_ratio.v);
  EXPECT_EQ(a.usable_gpus.t, b.usable_gpus.t);
  EXPECT_EQ(a.usable_gpus.v, b.usable_gpus.v);
  EXPECT_EQ(a.waste_summary.count, b.waste_summary.count);
  EXPECT_EQ(a.waste_summary.mean, b.waste_summary.mean);
  EXPECT_EQ(a.waste_summary.p50, b.waste_summary.p50);
  EXPECT_EQ(a.waste_summary.p90, b.waste_summary.p90);
  EXPECT_EQ(a.waste_summary.p99, b.waste_summary.p99);
  EXPECT_EQ(a.waste_summary.min, b.waste_summary.min);
  EXPECT_EQ(a.waste_summary.max, b.waste_summary.max);
}

// --- fault-layer primitives ----------------------------------------------

TEST(SampleDays, MatchesSerialLoopEnumeration) {
  const auto trace = small_trace();
  for (double step : {1.0, 0.7, 2.5}) {
    const auto days = trace.sample_days(step);
    std::vector<double> expect;
    for (double day = 0.0; day < trace.duration_days(); day += step)
      expect.push_back(day);
    EXPECT_EQ(days, expect) << "step " << step;
  }
}

// --- incremental replay vs serial reference ------------------------------

TEST(TraceReplay, SweepGridBitIdenticalToSerialOracle) {
  // The production shape of Figs. 13/15/16/20: a sweep over (TP) cells,
  // each one incremental replay, spread over the pool's workers. Results
  // must stay bit-identical to the serial oracle for any worker count.
  const auto trace = small_trace();
  const KHopRing ring(96, 4, 2);
  const std::vector<double> tps{4, 8, 16};

  std::vector<TraceWasteResult> oracle;
  for (const double tp : tps)
    oracle.push_back(
        evaluate_waste_over_trace(ring, trace, static_cast<int>(tp), 1.0));

  for (int workers : {1, 2, 8}) {
    runtime::ThreadPool pool(workers);
    runtime::SweepSpec spec;
    spec.trials = 1;
    spec.axes = {runtime::Axis::of_values("TP", tps)};
    const auto grid = runtime::run_sweep_reduce(
        spec, TraceWasteResult{},
        [&](const runtime::Scenario& s, Rng&) {
          return evaluate_waste_over_trace(ring, trace,
                                           static_cast<int>(s.value(0)),
                                           TraceReplayOptions{});
        },
        [](TraceWasteResult& acc, TraceWasteResult&& replay) {
          acc = std::move(replay);
        },
        /*threads=*/0, &pool);
    for (std::size_t t = 0; t < tps.size(); ++t) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " tp=" + std::to_string(static_cast<int>(tps[t])));
      expect_same_result(oracle[t], grid.cells[t]);
    }
  }
}

TEST(TraceReplay, KeepSamplesOffKeepsSeriesAndMoments) {
  const auto trace = small_trace();
  const KHopRing ring(96, 4, 2);
  const auto exact = evaluate_waste_over_trace(ring, trace, 8, 1.0);
  TraceReplayOptions opts;
  opts.keep_samples = false;
  const auto bounded = evaluate_waste_over_trace(ring, trace, 8, opts);
  // The series (what fig20 prints) are untouched...
  EXPECT_EQ(bounded.waste_ratio.v, exact.waste_ratio.v);
  EXPECT_EQ(bounded.usable_gpus.v, exact.usable_gpus.v);
  EXPECT_EQ(bounded.waste_summary.count, exact.waste_summary.count);
  EXPECT_NEAR(bounded.waste_summary.mean, exact.waste_summary.mean, 1e-12);
  EXPECT_EQ(bounded.waste_summary.max, exact.waste_summary.max);
  // ...but percentiles degrade to the documented moments-only approximation.
  EXPECT_EQ(bounded.waste_summary.p99, bounded.waste_summary.mean);
}

}  // namespace
}  // namespace ihbd::topo
