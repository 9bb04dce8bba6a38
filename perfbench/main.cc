// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload ctrl-steady|ctrl-stress|replay-grid --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints every metric by name with its unit, the run's stamp, and as the
// last stdout line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics of a separate traced run. Exit codes: 0 ok, 1 a
// correctness check failed, 2 bad usage, 3 not a Release build.
#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/spans.h"
#include "src/common/serde.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using perfbench::Args;
using perfbench::Outcome;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every per-layer metric with its unit, in report order. A workload
/// reports the layers it loads; the rest read 0 (that layer did no work).
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"fault.trace_gen_s", "s"},
    {"ctrl.workload_gen_s", "s"},
    {"ctrl.construct_s", "s"},
    {"ctrl.run_s", "s"},
    {"evsim.events", "count"},
    {"evsim.dispatch_ns", "ns"},
    {"orch.delta_calls", "count"},
    {"orch.churn_groups", "count"},
    {"orch.delta_s", "s"},
    {"ocstrx.queue.enqueued", "count"},
    {"ocstrx.queue.coalesced", "count"},
    {"ocstrx.queue.attempts", "count"},
    {"ocstrx.queue.retried", "count"},
    {"ocstrx.queue.dead_lettered", "count"},
    {"ocstrx.queue.injected", "count"},
    {"ocstrx.queue.batches", "count"},
    {"ocstrx.queue.peak_depth", "count"},
    {"ocstrx.queue.drive_peak_depth", "count"},
    {"ocstrx.queue.useful_ratio", "ratio"},
    {"ocstrx.queue.enqueue_ns", "ns"},
    {"ocstrx.queue.drain_ns_per_attempt", "ns"},
    {"ocstrx.fabric.applies", "count"},
    {"ocstrx.fabric.apply_ns", "ns"},
    {"ocstrx.fabric.fail_repair_ns", "ns"},
    {"ctrl.attributed_s", "s"},
    {"ctrl.residual_s", "s"},
    {"ctrl.sim.job_wait_p50_s", "s"},
    {"ctrl.sim.job_wait_p99_s", "s"},
    {"ctrl.sim.reconfig_p99_s", "s"},
    {"ctrl.sim.degraded_starts", "count"},
    {"runtime.busy_ratio", "ratio"},
    {"runtime.trial_s_max", "s"},
    {"runtime.merge_s", "s"},
    {"fault.cursor_s", "s"},
    {"fault.word_deltas", "count"},
    {"topo.alloc_s", "s"},
    {"topo.alloc_calls", "count"},
    {"topo.merge_s", "s"},
    {"replay.grid_s", "s"},
    {"trace.overhead_ratio", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload ctrl-steady|ctrl-stress|"
               "replay-grid --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--trace-out")
      usage(("unknown flag '" + flag + "'").c_str());
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t v = 0;
    if (flag == "--workload") {
      a.workload = value;
      if (a.workload != "ctrl-steady" && a.workload != "ctrl-stress" &&
          a.workload != "replay-grid")
        usage(("unknown workload '" + a.workload + "'").c_str());
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, a.seed)) usage("--seed takes an unsigned integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, v) || v < 1 || v > 3600)
        usage("--seconds takes an integer in [1, 3600]");
      a.seconds = static_cast<int>(v);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::string(value) != "0" && std::string(value) != "1")
        usage("--trace takes 0 or 1");
      a.trace = std::string(value) == "1";
      have_trace = true;
    } else {
      a.trace_out = value;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string stamp_json(const Args& a) {
  using ihbd::serde::json_append_number;
  using ihbd::serde::json_append_string;
  utsname u{};
  uname(&u);
  std::string s = "{\"machine\":";
  json_append_string(s, std::string(u.nodename) + " " + u.sysname + " " +
                            u.release + " " + u.machine);
  s += ",\"nproc\":";
  json_append_number(
      s, static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  s += ",\"compiler\":";
  json_append_string(s, PERFBENCH_COMPILER);
  s += ",\"build_type\":";
  json_append_string(s, PERFBENCH_BUILD_TYPE);
  s += ",\"workload\":";
  json_append_string(s, a.workload);
  s += ",\"seed\":";
  json_append_number(s, a.seed);
  s += ",\"seconds\":";
  json_append_number(s, static_cast<std::uint64_t>(a.seconds));
  s += ",\"trace\":";
  json_append_number(s, static_cast<std::uint64_t>(a.trace ? 1 : 0));
  s += '}';
  return s;
}

void append_metric(std::string& out, const Metric& m) {
  using ihbd::serde::json_append_string;
  json_append_string(out, m.name);
  char num[64];
  std::snprintf(num, sizeof num, "%.17g", m.value);
  out += ":{\"value\":";
  out += num;
  out += ",\"unit\":";
  json_append_string(out, m.unit);
  out += '}';
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
#ifndef NDEBUG
  const bool optimized = false;
#else
  const bool optimized = std::string(PERFBENCH_BUILD_TYPE) == "Release";
#endif
  if (!optimized) {
    std::fprintf(stderr,
                 "perfbench: refusing to record numbers from a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  Outcome out;
  try {
    if (args.workload == "ctrl-steady") {
      out = perfbench::run_ctrl_steady(args);
    } else if (args.workload == "ctrl-stress") {
      out = perfbench::run_ctrl_stress(args);
    } else {
      out = perfbench::run_replay_grid(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (args.trace && !args.trace_out.empty()) {
    if (!perfbench::write_perfetto(args.trace_out))
      out.fail("could not write the Perfetto trace", 0);
    if (const std::uint64_t dropped = perfbench::spans_dropped())
      std::fprintf(stderr,
                   "perfbench: %llu spans beyond the in-memory cap are "
                   "missing from the Perfetto file (aggregates include them)\n",
                   static_cast<unsigned long long>(dropped));
  }

  const double failed_ratio =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  std::vector<Metric> metrics;
  if (args.trace) {
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = out.layers.find(name);
      metrics.push_back(
          {name, it == out.layers.end() ? 0.0 : it->second, unit});
      if (it != out.layers.end()) out.layers.erase(it);
    }
    for (const auto& [name, value] : out.layers)
      out.fail("layer metric '" + name + "' is missing from the catalogue", 0);
  } else {
    metrics = {
        {"node_days_per_s", perfbench::median(out.rates), "node-day/s"},
        {"setup_s", perfbench::median(out.setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  }
  for (const Metric& m : metrics)
    std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  if (!args.trace) {
    std::vector<double> rates = out.rates;
    std::sort(rates.begin(), rates.end());
    std::printf("%-36s min %.6g median %.6g max %.6g node-day/s (%zu ops)\n",
                "node_days_per_s per op", rates.front(),
                perfbench::median(rates), rates.back(), rates.size());
    std::printf("%-36s", "setup_s per pool build");
    for (const double s : out.setup_s) std::printf(" %.6g", s);
    std::printf(" s\n");
  }
  std::printf("%-36s %.6g ratio (%llu of %llu ops)\n", "ops_failed_ratio",
              failed_ratio, static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  std::printf("%-36s %016llx\n", "simulated_digest",
              static_cast<unsigned long long>(out.digest));
  for (const std::string& why : out.failures)
    std::printf("FAILED: %s\n", why.c_str());
  std::printf("stamp %s\n", stamp_json(args).c_str());

  const bool correct =
      out.failures.empty() && out.failed == 0 && out.attempted > 0;
  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(out.attempted);
  json += ",\"failed\":" + std::to_string(out.failed);
  json += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ',';
    append_metric(json, metrics[i]);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
