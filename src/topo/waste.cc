#include "src/topo/waste.h"

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <utility>

#include "src/common/contracts.h"
#include "src/fault/transitions.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/topo/incremental.h"

namespace ihbd::topo {

namespace {

/// Replay metrics (src/obs): replays and samples, fault flips applied,
/// summary-assembly cost, and the per-replay throughput distribution.
/// Recording is skipped unless obs is enabled and never touches replay
/// results (byte-identical output on vs off).
struct ReplayObs {
  obs::Counter& samples;           ///< samples replayed
  obs::Counter& flips_applied;     ///< net fault flips fed to allocators
  obs::Counter& merge_ns;          ///< summary-assembly wall time
  obs::Counter& evaluations;       ///< evaluate_waste_over_trace calls
  obs::Histogram& samples_per_s;   ///< per-replay throughput
};

ReplayObs& replay_obs() {
  static ReplayObs o{obs::counter("replay.samples"),
                     obs::counter("replay.flips_applied"),
                     obs::counter("replay.merge_ns"),
                     obs::counter("replay.evaluations"),
                     obs::histogram("replay.samples_per_s")};
  return o;
}

std::uint64_t obs_elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// One cursor walk over every sample day in `days` (= trace.sample_days(
/// step_days)): the cursor's per-word XOR deltas feed an incremental
/// allocator. The cursor's mask equals trace.faulty_at(day) bit-for-bit and
/// the allocator's aggregates equal arch.allocate(mask, tp) on it, so the
/// fragment matches the serial oracle exactly.
TraceWindowFragment replay_trace_window_incremental(
    const HbdArchitecture& arch, const fault::FaultTrace& trace,
    int tp_size_gpus, const std::vector<double>& days, double step_days,
    bool keep_samples) {
  IHBD_TRACE_SPAN("replay_window");
  const bool obs_on = obs::enabled();
  const auto t0 = obs_on ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point{};
  std::uint64_t flips = 0;
  TraceWindowFragment frag;
  frag.waste_acc.set_keep_samples(keep_samples);
  frag.waste_ratio.t.reserve(days.size());
  frag.waste_ratio.v.reserve(days.size());
  frag.usable_gpus.t.reserve(days.size());
  frag.usable_gpus.v.reserve(days.size());
  // The replay samples strictly on the step grid, so the cursor binds to
  // the grid-folded word-delta timeline: at most one pre-folded group per
  // sample.
  fault::FaultMaskCursor cursor(trace, step_days);
  const auto allocator = make_incremental_allocator(arch, tp_size_gpus);
  // A sample with no deltas cannot change the allocation, so the previous
  // aggregates are re-emitted without even the virtual call — identical
  // values either way.
  double waste = 0.0;
  double usable = 0.0;
  bool have_alloc = false;
  for (const double day : days) {
    const std::vector<fault::WordDelta>& deltas =
        cursor.advance_to_words(day);
    if (!have_alloc || !deltas.empty()) {
      if (obs_on)
        for (const fault::WordDelta& d : deltas)
          flips += static_cast<std::uint64_t>(std::popcount(d.xor_bits));
      const Allocation& alloc =
          allocator->apply_words(cursor.packed_mask(), deltas);
      waste = alloc.waste_ratio();
      usable = static_cast<double>(alloc.usable_gpus);
      have_alloc = true;
    }
    frag.waste_ratio.push(day, waste);
    frag.usable_gpus.push(day, usable);
    frag.waste_acc.add(waste);
  }
  if (obs_on) {
    ReplayObs& o = replay_obs();
    o.samples.add(days.size());
    o.flips_applied.add(flips);
    const double secs = static_cast<double>(obs_elapsed_ns(t0)) * 1e-9;
    if (secs > 0.0)
      o.samples_per_s.observe(static_cast<double>(days.size()) / secs);
  }
  return frag;
}

}  // namespace

TraceWasteResult evaluate_waste_over_trace(const HbdArchitecture& arch,
                                           const fault::FaultTrace& trace,
                                           int tp_size_gpus,
                                           const TraceReplayOptions& options) {
  IHBD_EXPECTS(trace.node_count() == arch.node_count());
  IHBD_EXPECTS(options.step_days > 0.0);

  IHBD_TRACE_SPAN("replay_trace");
  replay_obs().evaluations.add(1);

  TraceWindowFragment frag = replay_trace_window_incremental(
      arch, trace, tp_size_gpus, trace.sample_days(options.step_days),
      options.step_days, options.keep_samples);

  IHBD_TRACE_SPAN("replay_merge");
  const bool obs_on = obs::enabled();
  const auto merge_t0 = obs_on ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
  TraceWasteResult out;
  out.waste_ratio = std::move(frag.waste_ratio);
  out.usable_gpus = std::move(frag.usable_gpus);
  out.waste_summary = frag.waste_acc.summary();
  if (obs_on) replay_obs().merge_ns.add(obs_elapsed_ns(merge_t0));
  return out;
}

const runtime::shard::ShardCodec<TraceWasteResult>& trace_waste_codec() {
  static const runtime::shard::ShardCodec<TraceWasteResult> codec{
      [](serde::Writer& w, const TraceWasteResult& r) {
        serde::write_time_series(w, r.waste_ratio);
        serde::write_time_series(w, r.usable_gpus);
        serde::write_summary(w, r.waste_summary);
      },
      [](serde::Reader& r) {
        TraceWasteResult out;
        out.waste_ratio = serde::read_time_series(r);
        out.usable_gpus = serde::read_time_series(r);
        out.waste_summary = serde::read_summary(r);
        return out;
      },
      // Replay grids run one trial per cell: plans never split a cell, so
      // no merge is required (and none would be bit-faithful for the
      // concatenated series anyway).
      {},
  };
  return codec;
}

TraceWasteResult evaluate_waste_over_trace(const HbdArchitecture& arch,
                                           const fault::FaultTrace& trace,
                                           int tp_size_gpus,
                                           double step_days) {
  IHBD_EXPECTS(trace.node_count() == arch.node_count());
  IHBD_EXPECTS(step_days > 0.0);
  TraceWasteResult out;
  for (double day = 0.0; day < trace.duration_days(); day += step_days) {
    const auto mask = trace.faulty_at(day);
    const Allocation alloc = arch.allocate(mask, tp_size_gpus);
    out.waste_ratio.push(day, alloc.waste_ratio());
    out.usable_gpus.push(day, static_cast<double>(alloc.usable_gpus));
  }
  out.waste_summary = out.waste_ratio.summarize_values();
  return out;
}

double mean_waste_at_ratio(const HbdArchitecture& arch, double fault_ratio,
                           int tp_size_gpus, int trials, Rng& rng) {
  IHBD_EXPECTS(trials > 0);
  double total = 0.0;
  for (int t = 0; t < trials; ++t) {
    const auto mask =
        fault::sample_fault_mask(arch.node_count(), fault_ratio, rng);
    total += arch.allocate(mask, tp_size_gpus).waste_ratio();
  }
  return total / trials;
}

int max_job_scale(const TimeSeries& usable_gpus, double quantile,
                  int tp_size_gpus) {
  IHBD_EXPECTS(quantile >= 0.0 && quantile <= 1.0);
  IHBD_EXPECTS(tp_size_gpus > 0);
  if (usable_gpus.v.empty()) return 0;
  // The job size supportable `quantile` of the time is the
  // (1 - quantile)-percentile of the usable series. The series holds
  // integer GPU counts, but linear interpolation (and the (1 - quantile)
  // rank itself) carries FP noise, so a mathematically integral result can
  // land at 959.999... — truncating that floors away an entire TP group.
  // Round within an epsilon before flooring.
  const double val =
      percentile(usable_gpus.v, (1.0 - quantile) * 100.0);
  const int gpus = static_cast<int>(std::floor(val + 1e-9));
  return (gpus / tp_size_gpus) * tp_size_gpus;
}

double fault_waiting_rate(const TimeSeries& usable_gpus,
                          double job_scale_gpus) {
  if (usable_gpus.v.empty()) return 0.0;
  std::size_t waiting = 0;
  for (double u : usable_gpus.v)
    if (u < job_scale_gpus) ++waiting;
  return static_cast<double>(waiting) /
         static_cast<double>(usable_gpus.v.size());
}

}  // namespace ihbd::topo
