// Micro-benchmark for the trace replay (see src/topo/waste.h): the serial
// oracle vs the production incremental replay (grid cursor + per-word XOR
// deltas into the incremental allocators), on the 348-day
// production-calibrated sim trace (720 4-GPU nodes, same cluster as Figs.
// 13/15/16/20). Covers the K-Hop Ring and the per-island baseline
// architectures. Reports replayed samples per second per tier; CI runs it
// to track the speedups. Built directly on the vendored bench/microbench.h
// harness so it needs no Google Benchmark.
#include <chrono>
#include <cstddef>
#include <cstdlib>

#include "bench/fault_bench_common.h"
#include "bench/microbench.h"
#include "src/topo/baselines.h"
#include "src/topo/khop_ring.h"
#include "src/topo/waste.h"

using namespace ihbd;

namespace {

const fault::FaultTrace& sim_trace() {
  static const fault::FaultTrace trace = bench::make_sim_trace();
  return trace;
}

const topo::KHopRing& khop_ring() {
  static const topo::KHopRing ring(bench::kNodes4, bench::kGpusPerNode, 2);
  return ring;
}

topo::TraceReplayOptions replay_options(double step_days = 1.0) {
  topo::TraceReplayOptions opts;
  opts.step_days = step_days;
  return opts;
}

/// Shared measured loop: `replay` does one replay; reports samples/second.
/// Every tier reports through this one wrapper so the numbers stay
/// comparable.
template <typename Replay>
void run_replay_bench(benchmark::State& state, Replay&& replay) {
  std::size_t samples = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const topo::TraceWasteResult result = replay();
    benchmark::DoNotOptimize(result);
    samples += result.waste_ratio.size();
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (secs > 0.0)
    state.counters["samples/s"] = static_cast<double>(samples) / secs;
}

}  // namespace

static void BM_replay_serial(benchmark::State& state) {
  const int tp = static_cast<int>(state.range(0));
  run_replay_bench(state, [&] {
    return topo::evaluate_waste_over_trace(khop_ring(), sim_trace(), tp, 1.0);
  });
}
BENCHMARK(BM_replay_serial)->Arg(8)->Arg(32);

// The production replay: packed masks + per-word XOR deltas end-to-end
// (cursor.advance_to_words into apply_words, popcount healthy counts).
static void BM_replay_packed(benchmark::State& state) {
  const int tp = static_cast<int>(state.range(0));
  run_replay_bench(state, [&] {
    return topo::evaluate_waste_over_trace(khop_ring(), sim_trace(), tp,
                                           replay_options());
  });
}
BENCHMARK(BM_replay_packed)->Arg(8)->Arg(32);

// --- baseline architectures: per-island allocators vs serial oracle -------
//
// Arg encodes (architecture, TP). TPUv4 appears in both regimes (per-cube
// fragmentation at TP-32, pooled clean-cube assembly at TP-128).

namespace {

struct BaselineCase {
  const char* label;
  int tp;
};
constexpr BaselineCase kBaselineCases[] = {
    {"NVL-72", 32}, {"TPUv4", 32}, {"TPUv4", 128},
    {"SiP-Ring", 32}, {"Big-Switch", 32},
};

const topo::HbdArchitecture& baseline_arch(int case_index) {
  static const auto archs = bench::make_archs();
  const char* want = kBaselineCases[case_index].label;
  for (const auto& arch : archs)
    if (arch->name() == want) return *arch;
  std::abort();  // unreachable: every case names a paper architecture
}

}  // namespace

static void BM_baseline_serial(benchmark::State& state) {
  const auto c = kBaselineCases[state.range(0)];
  const topo::HbdArchitecture& arch =
      baseline_arch(static_cast<int>(state.range(0)));
  run_replay_bench(state, [&] {
    return topo::evaluate_waste_over_trace(arch, sim_trace(), c.tp, 1.0);
  });
}
BENCHMARK(BM_baseline_serial)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

static void BM_baseline_packed(benchmark::State& state) {
  const auto c = kBaselineCases[state.range(0)];
  const topo::HbdArchitecture& arch =
      baseline_arch(static_cast<int>(state.range(0)));
  run_replay_bench(state, [&] {
    return topo::evaluate_waste_over_trace(arch, sim_trace(), c.tp,
                                           replay_options());
  });
}
BENCHMARK(BM_baseline_packed)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

// Quarter-day sampling: the incremental replay's home turf — the
// transition count is fixed by the trace, so 4x the samples cost the serial
// oracle 4x but the incremental replay almost nothing (most samples see no
// flips).
static void BM_replay_serial_quarter_day(benchmark::State& state) {
  const int tp = static_cast<int>(state.range(0));
  run_replay_bench(state, [&] {
    return topo::evaluate_waste_over_trace(khop_ring(), sim_trace(), tp,
                                           0.25);
  });
}
BENCHMARK(BM_replay_serial_quarter_day)->Arg(32);

static void BM_replay_packed_quarter_day(benchmark::State& state) {
  const int tp = static_cast<int>(state.range(0));
  run_replay_bench(state, [&] {
    return topo::evaluate_waste_over_trace(khop_ring(), sim_trace(), tp,
                                           replay_options(0.25));
  });
}
BENCHMARK(BM_replay_packed_quarter_day)->Arg(32);

BENCHMARK_MAIN();
