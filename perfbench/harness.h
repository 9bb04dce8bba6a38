// Shared parts of the benchmark: parsed arguments, what a workload reports
// back, the input-pool builder, the operation driver every workload runs
// through, and small timing/hashing helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfbench/spans.h"
#include "src/fault/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string trace_out;  ///< Perfetto file of the traced run
};

/// What one workload run reports. An operation is one daemon run or one
/// replay cell; it fails when it throws or fails a correctness check.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check

  double measured_s = 0.0;  ///< host seconds of the measured phase
  /// Per measured operation (daemon run, sweep, trace grid): simulated
  /// node-days completed per host second. node_days_per_s is their median.
  std::vector<double> rates;
  /// Host seconds of each build of the whole input pool (shared set-up
  /// such as architectures and the fleet config probe included). setup_s
  /// is their median.
  std::vector<double> setup_s;
  /// FNV-1a over the first serialized output of every input, in input
  /// order: equal between the traced and the untraced run.
  std::uint64_t digest = 0;

  /// Per-layer metrics by name (traced run only); layers the workload
  /// does not load are absent and reported as 0.
  std::map<std::string, double> layers;

  void record(double node_days, double seconds) {
    measured_s += seconds;
    rates.push_back(node_days / seconds);
  }

  void fail(std::string why, std::uint64_t ops = 1) {
    failed += ops;
    failures.push_back(std::move(why));
  }
};

Outcome run_ctrl_steady(const Args& args);
Outcome run_ctrl_stress(const Args& args);
Outcome run_replay_grid(const Args& args);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = kFnvBasis) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Whether two generated event lists are identical, field by field.
inline bool same_events(const std::vector<ihbd::fault::FaultEvent>& a,
                        const std::vector<ihbd::fault::FaultEvent>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ihbd::fault::FaultEvent& x,
                       const ihbd::fault::FaultEvent& y) {
                      return x.node == y.node && x.start_day == y.start_day &&
                             x.end_day == y.end_day;
                    });
}

/// Seed of input `slot` of a run with workload seed `seed` (splitmix64).
inline std::uint64_t input_seed(std::uint64_t seed, std::uint64_t slot) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ull * (slot + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// How many times the input pool is built in an untraced run.
inline constexpr int kSetupBuilds = 3;

/// Builds a workload's input pool with `make` and returns the first build.
/// The untraced run builds it kSetupBuilds times, records each build's
/// host seconds in out.setup_s, and requires every rebuild to equal the
/// first (`same(a, b)`): the same seed gives the same inputs. The traced run
/// builds it once, under the generator spans.
template <typename Make, typename Same>
auto build_inputs(const Args& args, Outcome& out, Make&& make, Same&& same) {
  auto t0 = Clock::now();
  auto inputs = make();
  out.setup_s.push_back(seconds_since(t0));
  for (int b = 1; b < kSetupBuilds && !args.trace; ++b) {
    t0 = Clock::now();
    const auto again = make();
    out.setup_s.push_back(seconds_since(t0));
    if (!same(inputs, again))
      out.fail("set-up: a rebuild of the inputs from the same seed differs",
               0);
  }
  return inputs;
}

/// One checked output of an operation: one daemon run or one replay cell.
struct OpOutput {
  std::size_t key = 0;  ///< which input (and cell) it was computed from
  std::string label;    ///< names the input in failure lines
  std::string bytes;    ///< the serialized result
  std::vector<std::string> problems;  ///< checks it failed
};

/// What one measured operation did: its simulated work, its host time
/// and its outputs.
struct OpRun {
  double node_days = 0.0;
  double seconds = 0.0;
  std::vector<OpOutput> outputs;
};

/// Runs a workload's operations. `op(k, traced)` runs operation k of a
/// pass over the input pool (k < ops_per_pass), timing only the work it
/// measures, and returns an OpRun whose output keys are below `keys`.
///
/// Untraced run: operations in pool order, cycling, for at least
/// --seconds of measured time and at least one pass; each one's rate goes
/// to node_days_per_s. Traced run: every operation of one pass once
/// untraced and once traced, alternating which goes first so warm-up does
/// not bias trace.overhead_ratio (traced wall / untraced wall); tracing is
/// left on afterwards for the workload's layer attribution.
///
/// Every output counts as an attempted operation and must reproduce the
/// bytes of its key's first output. Sets out.digest and returns the first
/// bytes of every key.
template <typename Op>
std::vector<std::string> run_ops(const Args& args, std::size_t ops_per_pass,
                                 std::size_t keys, Outcome& out, Op&& op) {
  std::vector<std::string> first(keys);
  std::vector<bool> seen(keys, false);
  const auto accept = [&](OpRun run) {
    for (OpOutput& o : run.outputs) {
      ++out.attempted;
      if (!seen[o.key]) {
        seen[o.key] = true;
        first[o.key] = std::move(o.bytes);
      } else if (o.bytes != first[o.key]) {
        o.problems.push_back(o.label +
                             ": result bytes differ from its first run");
      }
      if (o.problems.empty()) continue;
      ++out.failed;
      for (std::string& p : o.problems) out.failures.push_back(std::move(p));
    }
    return run.seconds;
  };

  if (!args.trace) {
    set_tracing(false);
    for (std::size_t k = 0; k < ops_per_pass || out.measured_s < args.seconds;
         ++k) {
      OpRun run = op(k % ops_per_pass, false);
      out.record(run.node_days, run.seconds);
      accept(std::move(run));
    }
  } else {
    double walls[2] = {0.0, 0.0};  // [untraced, traced]
    for (std::size_t k = 0; k < ops_per_pass; ++k) {
      for (int pass = 0; pass < 2; ++pass) {
        const bool traced = (pass == 0) == (k % 2 == 1);
        set_tracing(traced);
        walls[traced] += accept(op(k, traced));
      }
    }
    set_tracing(true);
    out.layers["trace.overhead_ratio"] = walls[1] / walls[0];
  }

  std::uint64_t h = kFnvBasis;
  for (const std::string& b : first) h = fnv1a(b, h);
  out.digest = h;
  return first;
}

}  // namespace perfbench
