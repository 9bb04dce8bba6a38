// Sweep explorer: drive the runtime Monte-Carlo sweep engine end to end.
//
// Sweeps GPU waste ratio over fault ratio x architecture on the paper's
// simulation cluster, runs the identical grid serially and in parallel,
// checks the results are bit-identical, and reports the wall-clock speedup.
//
//   $ ./sweep_explorer [trials] [threads]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>

#include "src/common/cli.h"
#include "src/fault/trace.h"
#include "src/runtime/report.h"
#include "src/runtime/sweep.h"
#include "src/runtime/thread_pool.h"
#include "src/topo/baselines.h"

using namespace ihbd;

namespace {

/// A count argument: the whole text an integer in [1, max], else exit 2.
int count_arg(const char* text, const char* what,
              int max = std::numeric_limits<int>::max()) {
  const std::optional<int> v = cli::parse_count(text, max);
  if (!v) {
    std::fprintf(stderr,
                 "sweep_explorer: %s expects an integer in [1, %d], got "
                 "'%s'\nusage: sweep_explorer [trials] [threads]\n",
                 what, max, text);
    std::exit(2);
  }
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 3) {
    std::fprintf(stderr, "usage: sweep_explorer [trials] [threads]\n");
    return 2;
  }
  // Both counts are checked before any pool exists.
  const int trials = argc > 1 ? count_arg(argv[1], "trials") : 100;
  const int threads = argc > 2
                          ? count_arg(argv[2], "threads", runtime::kMaxWorkers)
                          : runtime::ThreadPool::default_threads();

  // The §6.1 architecture set on the 720-node (2,880-GPU) simulation
  // cluster (TPUv4 requires the node count to tile its 4x4x4 cubes).
  const auto archs = topo::make_paper_architectures(720, 4);
  std::vector<std::string> names;
  for (const auto& arch : archs) names.push_back(arch->name());

  runtime::SweepSpec spec;
  spec.seed = 2025;
  spec.trials = trials;
  spec.axes = {
      runtime::Axis::of_values("Fault ratio", {0.0, 0.02, 0.05, 0.10},
                               [](double f) { return Table::pct(f, 0); }),
      runtime::Axis::of_labels("Arch", names),
  };

  const auto trial_fn = [&](const runtime::Scenario& s, Rng& rng) {
    const auto& arch = *archs[s.index(1)];
    const auto mask =
        fault::sample_fault_mask(arch.node_count(), s.value(0), rng);
    return arch.allocate(mask, /*tp_size_gpus=*/32).waste_ratio();
  };

  const auto run_timed = [&](int n_threads) {
    const auto t0 = std::chrono::steady_clock::now();
    auto result = runtime::run_sweep(spec, trial_fn, n_threads);
    const auto t1 = std::chrono::steady_clock::now();
    return std::pair(std::move(result),
                     std::chrono::duration<double>(t1 - t0).count());
  };

  std::printf("Sweep: %zu cells x %d trials, TP-32, 720 nodes\n",
              spec.cell_count(), trials);
  const auto [serial, serial_s] = run_timed(1);
  const auto [parallel, parallel_s] = run_timed(threads);

  // Substreams make the grid bit-stable in thread count: same samples,
  // same order, any schedule.
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    if (serial.cells[c].samples() != parallel.cells[c].samples()) {
      std::printf("MISMATCH in cell %zu — substreams broken\n", c);
      return 1;
    }
  }

  runtime::ReportSpec report;
  report.title = "Mean TP-32 waste ratio (" + std::to_string(trials) +
                 " trials per cell)";
  report.row_axis = 0;
  report.col_axis = 1;
  report.format = [](double v) { return Table::pct(v); };
  runtime::to_table(parallel, report).print();

  std::printf(
      "\n1 thread: %.3f s   %d threads: %.3f s   speedup: %.2fx\n"
      "Results bit-identical across thread counts.\n",
      serial_s, threads, parallel_s,
      parallel_s > 0 ? serial_s / parallel_s : 0.0);
  return 0;
}
