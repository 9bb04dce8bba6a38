// Declarative parallel Monte-Carlo sweep engine.
//
// Every evaluation in the paper is a sweep: a grid of scenario axes
// (fault ratio x TP size x architecture x ...) with many random trials per
// grid cell. This engine replaces the hand-rolled serial loops of the bench
// binaries with one declarative API:
//
//   SweepSpec spec;
//   spec.seed = 14;
//   spec.trials = 200;
//   spec.axes = {Axis::of_values("Fault ratio", {0.0, 0.01, 0.05}),
//                Axis::of_labels("Arch", {"IHBD", "NVL-72"})};
//   SweepResult res = run_sweep(spec, trial_fn, threads);
//
// The engine is a plan -> execute -> reduce pipeline with a serializable
// boundary between the stages (src/runtime/shard.h):
//
//   plan    — shard::plan_shards partitions the grid into ShardSpecs,
//             deterministically from the spec alone.
//   execute — every (cell, trial) pair of a shard is one parallel_for
//             index on a ThreadPool, so the trials of ONE cell may run
//             concurrently. Each pair draws from its own RNG substream
//             derived from (spec.seed, global trial index), and a per-cell
//             in-order commit folds a cell's trials strictly in trial
//             order (a trial that finishes early is parked until its
//             predecessors have folded). The result is therefore
//             bit-identical for any thread count, execution order, shard
//             count, or kill/resume history. Sharded executors serialize
//             per-cell state through a ShardCodec and periodically persist
//             versioned, checksummed checkpoints (src/runtime/checkpoint.h)
//             so a killed worker resumes mid-shard.
//   reduce  — shard results fold back into the grid, order-respecting.
//
// The single-process path is the degenerate one-shard plan executed in
// place: no serialization, no files, byte-identical to the pre-pipeline
// engine. The distributed path engages only when BOTH an ambient
// shard::ShardContext is installed (bench_util --shard-dir) AND the caller
// passes a ShardCodec — sweeps without a codec always run locally.
//
// A trial may return NaN to mark its cell "not applicable" (e.g. an
// architecture that cannot host the requested TP size); such cells stay
// empty and reports skip them.
//
// Because trials of one cell may run at the same time, a trial function
// must not share mutable state across the trials of a cell (per-trial
// slots indexed by Scenario::trial() are fine). Folds need no locking: one
// cell's folds never overlap, and they run in trial order.
//
// The scalar path above is a thin adapter over the generic engine,
// run_sweep_reduce: trials may return ANY result type, folded in trial
// order into a user-supplied per-cell accumulator. That is how the
// trace-replay benches carry a full TraceWasteResult (time series +
// summary) per grid cell instead of one double per trial:
//
//   auto res = run_sweep_reduce<ReplayAcc>(spec, ReplayAcc{},
//       [&](const Scenario& s, Rng& rng) { return replay(s, rng); },
//       [](ReplayAcc& acc, ReplayFragment&& f) { acc.merge(std::move(f)); },
//       threads);
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/contracts.h"
#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/common/stats.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/accumulate.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/shard.h"
#include "src/runtime/sweep_spec.h"
#include "src/runtime/thread_pool.h"

namespace ihbd::runtime {

/// Outcome of a sweep: one accumulator of user-chosen type per grid cell,
/// row-major in the axis order of the spec.
template <typename Acc>
struct GenericSweepResult {
  SweepSpec spec;
  std::vector<Acc> cells;

  std::size_t flat_index(const std::vector<std::size_t>& idx) const {
    return flat_cell_index(spec, idx);
  }
  const Acc& cell(const std::vector<std::size_t>& idx) const {
    return cells[flat_index(idx)];
  }
};

/// Scalar sweeps reduce into the mergeable moments Accumulator.
using SweepResult = GenericSweepResult<Accumulator>;

/// One Monte-Carlo trial: observe the scenario, draw from rng, return the
/// sample (NaN = cell not applicable).
using TrialFn = std::function<double(const Scenario&, Rng&)>;

namespace detail {

/// Sweep-engine metrics (src/obs): cells/trials completed and per-cell
/// busy time (its trials plus its folds, summed over the threads that ran
/// them). Handles are interned once; recording is skipped unless obs is
/// enabled, so the engine's determinism and throughput are untouched.
struct SweepObs {
  obs::Counter& cells;
  obs::Counter& trials;
  obs::Counter& cell_ns;
  obs::Histogram& cell_seconds;
};
inline SweepObs& sweep_obs() {
  static SweepObs o{obs::counter("sweep.cells"), obs::counter("sweep.trials"),
                    obs::counter("sweep.cell_ns"),
                    obs::histogram("sweep.cell_seconds")};
  return o;
}

inline std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// One cell's in-order commit point. A finished trial whose turn it is
/// folds itself, then every successor already parked; a trial that
/// finishes early parks its result. So one cell's folds never overlap and
/// always see its trials in order, whichever threads ran them.
template <typename R>
struct CellCommit {
  std::mutex mu;
  int next = 0;                          ///< next trial to fold
  std::vector<std::optional<R>> parked;  ///< finished early, by offset
  std::vector<std::size_t> idx;          ///< the cell's axis indices
  std::uint64_t busy_ns = 0;             ///< obs only
};

/// The execute stage: run trials [trial_begin, trial_end) of every cell in
/// `cells` as pool tasks — one parallel_for index per (cell, trial) pair —
/// and fold each cell's trials, strictly in trial order, into acc_of(k).
/// cell_done(k) runs once cell k (an index into `cells`) has folded its
/// last trial. Every execution path — local, sharded, resumed — funnels
/// through here, which is what makes them bit-interchangeable. With one
/// trial per cell this schedules exactly one index per cell.
template <typename Trial, typename Fold, typename AccOf, typename CellDone>
void execute_cells(const SweepSpec& spec,
                   const std::vector<std::size_t>& cells, int trial_begin,
                   int trial_end, Trial& trial, Fold& fold, AccOf&& acc_of,
                   CellDone&& cell_done, ThreadPool& pool) {
  using R = std::decay_t<std::invoke_result_t<Trial&, const Scenario&, Rng&>>;
  IHBD_EXPECTS(trial_end > trial_begin);
  const auto per_cell = static_cast<std::size_t>(trial_end - trial_begin);
  std::vector<CellCommit<R>> commits(cells.size());
  for (std::size_t k = 0; k < cells.size(); ++k) {
    commits[k].next = trial_begin;
    commits[k].parked.resize(per_cell);
    commits[k].idx = decode_cell(spec, cells[k]);
  }
  const bool obs_on = obs::enabled();
  const auto clock = [obs_on] {
    return obs_on ? std::chrono::steady_clock::now()
                  : std::chrono::steady_clock::time_point{};
  };

  pool.parallel_for(cells.size() * per_cell, [&](std::size_t i) {
    IHBD_TRACE_SPAN("sweep_trial");
    const std::size_t k = i / per_cell;
    const std::size_t cell = cells[k];
    CellCommit<R>& c = commits[k];
    int t = trial_begin + static_cast<int>(i % per_cell);

    auto t0 = clock();
    std::optional<R> result;
    {
      Rng rng = trial_rng(spec, cell, t);
      result.emplace(trial(Scenario(spec, cell, c.idx, t), rng));
    }
    std::unique_lock<std::mutex> lock(c.mu);
    if (obs_on) c.busy_ns += ns_since(t0);
    if (t != c.next) {
      c.parked[static_cast<std::size_t>(t - trial_begin)] = std::move(result);
      return;
    }
    for (;;) {
      lock.unlock();
      t0 = clock();
      const Scenario scenario(spec, cell, c.idx, t);
      if constexpr (std::is_invocable_v<Fold&, decltype(acc_of(k)), R&&,
                                        const Scenario&>) {
        fold(acc_of(k), std::move(*result), scenario);
      } else {
        fold(acc_of(k), std::move(*result));
      }
      lock.lock();
      if (obs_on) c.busy_ns += ns_since(t0);
      t = ++c.next;
      if (t == trial_end) break;
      std::optional<R>& slot = c.parked[static_cast<std::size_t>(t - trial_begin)];
      if (!slot) return;  // trial t is still running; it folds itself
      result = std::move(slot);
      slot.reset();
    }
    lock.unlock();
    if (obs_on) {
      SweepObs& o = sweep_obs();
      o.cells.add(1);
      o.trials.add(per_cell);
      o.cell_ns.add(c.busy_ns);
      o.cell_seconds.observe(static_cast<double>(c.busy_ns) * 1e-9);
    }
    cell_done(k);
  });
}

/// Execute one shard directly into the result grid (the local path: no
/// serialization boundary).
template <typename Acc, typename Trial, typename Fold>
void execute_shard_into(const SweepSpec& spec, const shard::ShardSpec& sh,
                        std::vector<Acc>& cells, Trial& trial, Fold& fold,
                        const PoolRef& pool_ref) {
  std::vector<std::size_t> ids(sh.cells());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = sh.cell_begin + i;
  execute_cells(
      spec, ids, sh.trial_begin, sh.trial_end, trial, fold,
      [&](std::size_t k) -> Acc& { return cells[ids[k]]; },
      [](std::size_t) {}, *pool_ref);
}

/// Execute one shard durably: resume completed cells from the newest valid
/// checkpoint generation, run the rest on the pool, persist a checkpoint
/// every checkpoint_every() completions, and return the complete encoded
/// ShardPayload. Completed cells are held serialized (codec bytes), so a
/// checkpoint is a pure concatenation and resume needs no re-execution.
template <typename Acc, typename Trial, typename Fold>
std::string execute_shard_durable(const SweepSpec& spec,
                                  const shard::ShardPlan& plan,
                                  const shard::ShardSpec& sh, const Acc& init,
                                  Trial& trial, Fold& fold,
                                  const shard::ShardCodec<Acc>& codec,
                                  shard::ShardContext& ctx,
                                  const PoolRef& pool_ref) {
  const std::string ckpt_path = ctx.checkpoint_path(sh.index);
  std::vector<std::optional<std::string>> done(sh.cells());

  if (!ckpt_path.empty()) {
    const checkpoint::Recovered rec = checkpoint::load_with_fallback(ckpt_path);
    if (rec.valid) {
      try {
        shard::ShardPayload saved = shard::decode_shard_payload(rec.payload);
        // A checkpoint from another plan (or another shard of this plan —
        // path collisions across runs) must not leak cells into this one.
        if (saved.plan_hash == plan.plan_hash && saved.shard_id == sh.id) {
          for (shard::ShardPayloadEntry& e : saved.entries) {
            if (e.cell >= sh.cell_begin && e.cell < sh.cell_end &&
                e.trial_begin == sh.trial_begin &&
                e.trial_end == sh.trial_end) {
              done[e.cell - sh.cell_begin] = std::move(e.acc_bytes);
            }
          }
          if (!saved.metrics.empty()) ctx.note_resumed_metrics(saved.metrics);
        }
      } catch (const ConfigError&) {
        // Frame was valid but the payload didn't decode: version skew.
        // Start the shard from scratch rather than trusting it.
      }
    }
  }

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < done.size(); ++i) {
    if (!done[i].has_value()) pending.push_back(i);
  }

  auto build_payload = [&](bool with_metrics) {
    shard::ShardPayload payload;
    payload.plan_hash = plan.plan_hash;
    payload.shard_id = sh.id;
    payload.shard_index = sh.index;
    for (std::size_t i = 0; i < done.size(); ++i) {
      if (!done[i].has_value()) continue;
      shard::ShardPayloadEntry e;
      e.cell = sh.cell_begin + i;
      e.trial_begin = sh.trial_begin;
      e.trial_end = sh.trial_end;
      e.acc_bytes = *done[i];
      payload.entries.push_back(std::move(e));
    }
    if (with_metrics && obs::enabled()) {
      serde::Writer mw;
      obs::snapshot().save(mw);
      payload.metrics = mw.take();
    }
    return shard::encode_shard_payload(payload);
  };

  std::vector<std::size_t> ids(pending.size());
  for (std::size_t k = 0; k < ids.size(); ++k) ids[k] = sh.cell_begin + pending[k];
  // A pending cell's accumulator lives only from its first fold until it is
  // serialized.
  std::vector<std::optional<Acc>> accs(pending.size());
  std::mutex mu;
  std::size_t since_checkpoint = 0;
  const std::size_t every = std::max<std::size_t>(1, ctx.checkpoint_every());
  execute_cells(
      spec, ids, sh.trial_begin, sh.trial_end, trial, fold,
      [&](std::size_t k) -> Acc& {
        if (!accs[k]) accs[k].emplace(init);
        return *accs[k];
      },
      [&](std::size_t k) {
        serde::Writer w;
        codec.save(w, *accs[k]);
        accs[k].reset();
        std::lock_guard<std::mutex> lock(mu);
        done[pending[k]] = w.take();
        ctx.note_progress(sh.index);
        if (!ckpt_path.empty() && ++since_checkpoint >= every) {
          since_checkpoint = 0;
          checkpoint::write(ckpt_path, build_payload(/*with_metrics=*/true));
        }
      },
      *pool_ref);

  return build_payload(/*with_metrics=*/true);
}

/// The reduce stage: validate and fold shard payloads (in plan order) back
/// into the result grid. Whole-cell entries are placed directly — a
/// deserialize of exactly the bytes the executor serialized, hence
/// bit-identical to local execution. When a plan split one cell's trials,
/// the partial accumulators are combined with an order-respecting tree
/// merge (adjacent pairs, trial order preserved at every level).
template <typename Acc>
void reduce_shard_payloads(const shard::ShardPlan& plan,
                           const std::vector<std::string>& payloads,
                           const shard::ShardCodec<Acc>& codec,
                           std::vector<Acc>& cells) {
  if (payloads.size() != plan.shards.size()) {
    throw ConfigError("sweep reduce: expected " +
                      std::to_string(plan.shards.size()) + " shard results, got " +
                      std::to_string(payloads.size()));
  }
  std::vector<int> next_trial(cells.size(), 0);
  std::vector<std::vector<Acc>> parts(cells.size());
  for (std::size_t i = 0; i < plan.shards.size(); ++i) {
    const shard::ShardSpec& sh = plan.shards[i];
    shard::ShardPayload payload = shard::decode_shard_payload(payloads[i]);
    if (payload.plan_hash != plan.plan_hash || payload.shard_id != sh.id ||
        payload.shard_index != sh.index) {
      throw ConfigError("sweep reduce: shard result " + std::to_string(i) +
                        " does not match the plan");
    }
    if (payload.entries.size() != sh.cells()) {
      throw ConfigError("sweep reduce: shard " + std::to_string(i) +
                        " result is incomplete");
    }
    for (shard::ShardPayloadEntry& e : payload.entries) {
      if (e.cell < sh.cell_begin || e.cell >= sh.cell_end ||
          e.trial_begin != sh.trial_begin || e.trial_end != sh.trial_end) {
        throw ConfigError("sweep reduce: shard " + std::to_string(i) +
                          " entry outside its shard range");
      }
      if (e.trial_begin != next_trial[e.cell]) {
        throw ConfigError("sweep reduce: non-contiguous trial coverage for "
                          "cell " + std::to_string(e.cell));
      }
      next_trial[e.cell] = e.trial_end;
      serde::Reader r(e.acc_bytes);
      parts[e.cell].push_back(codec.load(r));
      r.expect_done("shard accumulator");
    }
  }
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    if (next_trial[cell] != plan.trials) {
      throw ConfigError("sweep reduce: cell " + std::to_string(cell) +
                        " not fully covered by shard results");
    }
    std::vector<Acc>& v = parts[cell];
    if (v.size() > 1 && !codec.merge) {
      throw ConfigError("sweep reduce: trial-split plan needs a codec with "
                        "merge()");
    }
    while (v.size() > 1) {
      std::vector<Acc> merged;
      merged.reserve((v.size() + 1) / 2);
      for (std::size_t i = 0; i < v.size(); i += 2) {
        if (i + 1 < v.size()) codec.merge(v[i], std::move(v[i + 1]));
        merged.push_back(std::move(v[i]));
      }
      v = std::move(merged);
    }
    cells[cell] = std::move(v.front());
  }
}

/// The distributed composition: plan from the spec, claim-and-execute
/// shards through the transport until none are claimable, then poll for
/// the full result set and reduce. Every participant (worker or
/// coordinator) converges on the identical result grid.
template <typename Acc, typename Trial, typename Fold>
GenericSweepResult<Acc> run_sweep_sharded(const SweepSpec& spec, Acc init,
                                          Trial& trial, Fold& fold,
                                          const shard::ShardCodec<Acc>& codec,
                                          shard::ShardContext& ctx,
                                          int threads, ThreadPool* pool) {
  const shard::ShardPlan plan = shard::plan_shards(spec, ctx.policy());
  ctx.begin_sweep(plan);
  struct EndGuard {
    shard::ShardContext& ctx;
    ~EndGuard() { ctx.end_sweep(); }
  } guard{ctx};

  const PoolRef pool_ref(threads, pool);
  std::vector<std::string> payloads;
  for (;;) {
    bool progressed = false;
    if (ctx.executes()) {
      while (const std::optional<std::size_t> claimed = ctx.claim()) {
        progressed = true;
        const shard::ShardSpec& sh = plan.shards[*claimed];
        try {
          std::string payload = execute_shard_durable(
              spec, plan, sh, init, trial, fold, codec, ctx, pool_ref);
          ctx.publish_result(*claimed, std::move(payload));
        } catch (...) {
          ctx.release(*claimed);
          throw;
        }
      }
    }
    if (std::optional<std::vector<std::string>> all = ctx.try_collect()) {
      payloads = std::move(*all);
      break;
    }
    // Keep alternating claim and collect: a shard whose owner died becomes
    // claimable again once its lease goes stale, and this participant must
    // pick it up rather than wait forever.
    if (!progressed) ctx.poll_wait();
  }

  GenericSweepResult<Acc> result;
  result.spec = spec;
  result.cells.assign(spec.cell_count(), std::move(init));
  reduce_shard_payloads(plan, payloads, codec, result.cells);
  return result;
}

}  // namespace detail

/// Generic reduce engine: run every (cell, trial) on a thread pool and fold
/// each trial's result into that cell's accumulator, strictly in trial
/// order within a cell. `init` seeds every cell (copied). `fold` is invoked
/// as fold(acc, result) or, if it accepts a third parameter,
/// fold(acc, result, scenario). (cell, trial) pairs are distributed
/// dynamically — trials of one cell may run concurrently, so `trial` must
/// not share mutable state within a cell; because every trial draws from
/// its own substream and folds in trial order, results are bit-identical
/// for any thread count.
///
/// Execution substrate: an explicit `pool` wins. With pool == nullptr,
/// threads == 0 fans out on the process-wide ThreadPool::shared(); threads
/// > 0 uses a dedicated transient pool of that width. A trial that fans out
/// on the sweep's own pool runs that inner range inline (see
/// src/runtime/thread_pool.h).
///
/// Distribution: when an ambient shard::ShardContext is installed
/// (bench_util --shard-dir) AND `codec` is non-null, the sweep runs as
/// plan -> claim/execute -> reduce across every participating process,
/// returning the identical result grid in each. Without a codec (or
/// without a context) the sweep runs locally as the degenerate one-shard
/// plan — byte-identical to the distributed result.
template <typename Acc, typename Trial, typename Fold>
GenericSweepResult<Acc> run_sweep_reduce(
    const SweepSpec& spec, Acc init, Trial&& trial, Fold&& fold,
    int threads = 0, ThreadPool* pool = nullptr,
    const shard::ShardCodec<Acc>* codec = nullptr) {
  detail::validate_spec(spec);
  if (shard::ShardContext* ctx = shard::context();
      ctx != nullptr && codec != nullptr) {
    return detail::run_sweep_sharded(spec, std::move(init), trial, fold,
                                     *codec, *ctx, threads, pool);
  }
  GenericSweepResult<Acc> result;
  result.spec = spec;
  result.cells.assign(spec.cell_count(), std::move(init));
  const shard::ShardPlan plan =
      shard::plan_shards(spec, shard::PlanPolicy{.max_shards = 1});
  const PoolRef pool_ref(threads, pool);
  detail::execute_shard_into(spec, plan.shards.front(), result.cells, trial,
                             fold, pool_ref);
  return result;
}

/// Scalar sweep: a thin adapter over run_sweep_reduce with an Accumulator
/// per cell (NaN results leave the cell untouched). Bit-identical to the
/// pre-generic engine for any thread count; same pool/threads resolution as
/// run_sweep_reduce. Shardable out of the box (shard::accumulator_codec).
SweepResult run_sweep(const SweepSpec& spec, const TrialFn& fn,
                      int threads = 0, ThreadPool* pool = nullptr);

}  // namespace ihbd::runtime
