// Evaluation drivers for HBD fault resilience (paper §6.2): GPU waste ratio
// over a fault trace or fault-ratio sweep, maximum supported job scale, and
// job fault-waiting rate. Shared by Figs. 13-16 and 20-23 benches.
//
// Trace replay has one production path and one test reference, and they
// produce bit-identical output:
//   * evaluate_waste_over_trace(arch, trace, tp, TraceReplayOptions) — the
//     incremental replay: one fault::FaultMaskCursor walks the trace's
//     grid-folded word-delta timeline over every sample day and feeds the
//     per-word XOR deltas to a topo::IncrementalAllocator, so samples with
//     no transitions never re-allocate (see incremental.h). Parallelism
//     lives one level up, across the cells of a sweep grid.
//   * evaluate_waste_over_trace(arch, trace, tp, step_days) — the serial
//     oracle: one pass over the sample days, re-allocating from scratch at
//     each. Kept as the bit-equivalence reference for tests.
// With keep_samples off, the incremental replay's summary degrades to
// moments (percentile fields = mean); the series are unchanged.
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/fault/trace.h"
#include "src/runtime/accumulate.h"
#include "src/runtime/shard.h"
#include "src/topo/hbd.h"

namespace ihbd::topo {

/// Result of replaying a fault trace against an architecture.
struct TraceWasteResult {
  TimeSeries waste_ratio;  ///< healthy-GPU waste ratio per sample time
  TimeSeries usable_gpus;  ///< GPUs inside placed TP groups per sample time
  Summary waste_summary;   ///< summary over waste_ratio.v
};

/// ShardCodec for replay sweeps whose cells hold a TraceWasteResult (the
/// fig13/15/16/20 grids): bit-exact save/load of both series and the
/// summary. Replay grids run one trial per cell, so no merge is needed —
/// the distributed reduce is pure placement, keeping the sharded result
/// byte-identical to the single-process one.
const runtime::shard::ShardCodec<TraceWasteResult>& trace_waste_codec();

/// Options of the incremental replay.
struct TraceReplayOptions {
  double step_days = 1.0;
  /// Retain per-sample values inside the waste summary so its percentiles
  /// are exact. false bounds memory to O(series) — the summary degrades to
  /// moments (percentile fields = mean), the series are kept.
  bool keep_samples = true;
};

/// The incremental replay's per-sample output before the summary is
/// assembled: both series plus the waste accumulator.
struct TraceWindowFragment {
  TimeSeries waste_ratio;
  TimeSeries usable_gpus;
  runtime::Accumulator waste_acc;
};

/// Incremental replay of `trace` against `arch` with TP size
/// `tp_size_gpus`, bit-identical to the serial oracle below.
TraceWasteResult evaluate_waste_over_trace(const HbdArchitecture& arch,
                                           const fault::FaultTrace& trace,
                                           int tp_size_gpus,
                                           const TraceReplayOptions& options);

/// Serial reference replay, sampling every `step_days`. Kept as the
/// bit-equivalence oracle for the incremental replay (tests) and for
/// callers that want the simplest possible loop.
TraceWasteResult evaluate_waste_over_trace(const HbdArchitecture& arch,
                                           const fault::FaultTrace& trace,
                                           int tp_size_gpus,
                                           double step_days = 1.0);

/// Mean waste ratio at an exact node-fault ratio (Fig. 14 sweep), averaged
/// over `trials` random fault masks.
double mean_waste_at_ratio(const HbdArchitecture& arch, double fault_ratio,
                           int tp_size_gpus, int trials, Rng& rng);

/// Maximum job scale (GPUs) supportable a `quantile` fraction of the time,
/// e.g. quantile = 0.99 -> the job size that would have been placeable 99%
/// of the trace. Derived from a usable-GPUs series, rounded down to a
/// multiple of the TP size.
int max_job_scale(const TimeSeries& usable_gpus, double quantile,
                  int tp_size_gpus);

/// Fraction of sampled time where fewer than `job_scale_gpus` usable GPUs
/// were available (Fig. 16's fault-waiting rate).
double fault_waiting_rate(const TimeSeries& usable_gpus,
                          double job_scale_gpus);

}  // namespace ihbd::topo
