// ctrl-steady and ctrl-stress: the always-on control-plane daemon
// (src/ctrl) over pre-generated fault traces and job arrivals.
//
// An operation is one daemon run: ControlPlane construction plus run() to
// the trace horizon, on a FaultTrace rebuilt from the input's event list so
// every run pays the lazily built transition timeline, as a fresh process
// does. ctrl-steady runs daemons back to back on the calling thread;
// ctrl-stress runs them as the trials of one runtime::run_sweep_reduce cell
// on 2 workers.
//
// evsim, orch and ocstrx run inside ControlPlane::run(), where the
// benchmark cannot place spans. Their per-layer numbers are per-call costs
// from isolated drives of the same entry points, multiplied by the
// daemon's exact call counts; orch is replayed exactly. ctrl.residual_s is
// what run() spent beyond those attributed costs.
#include <algorithm>
#include <cmath>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/spans.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/ctrl/control_plane.h"
#include "src/ctrl/workload.h"
#include "src/dcn/fattree.h"
#include "src/evsim/engine.h"
#include "src/fault/generator.h"
#include "src/fault/physics_generator.h"
#include "src/ocstrx/fabric_manager.h"
#include "src/ocstrx/reconfig_queue.h"
#include "src/orch/incremental.h"
#include "src/orch/orchestrator.h"
#include "src/runtime/sweep.h"

namespace perfbench {
namespace {

using namespace ihbd;

constexpr double kHorizonDays = 96.0;
constexpr double kSecondsPerDay = 86400.0;
constexpr int kNodesPerGroup = 8;  // m: TP-32 over 4-GPU nodes

struct CtrlShape {
  int nodes;
  double load;    ///< offered load relative to fault-free group capacity
  double inject;  ///< injected session-switch failure rate
  fault::TraceModel model;
  std::size_t pool;  ///< distinct inputs generated before measuring
};

constexpr CtrlShape kSteady{10240, 0.45, 0.0, fault::TraceModel::kPoisson, 4};
constexpr CtrlShape kStress{2560, 0.75, 0.10, fault::TraceModel::kStorm, 8};
constexpr int kStressWorkers = 2;
constexpr int kStressTrialsPerSweep = 2;

struct CtrlInput {
  std::uint64_t id = 0;  ///< span id: the input's seed
  ctrl::ControlPlaneConfig cfg;
  std::vector<fault::FaultEvent> events;
  std::vector<ctrl::JobArrival> arrivals;
};

/// Offered load -> Poisson arrival intensity, as bench_ctrl_plane does.
double arrival_rate(const ctrl::WorkloadConfig& wl, int nodes,
                    double utilization) {
  const double capacity_groups =
      static_cast<double>(nodes) / kNodesPerGroup;
  const double mean_groups = 0.5 * (wl.min_groups + wl.max_groups);
  return utilization * capacity_groups / (wl.mean_run_days * mean_groups);
}

/// The daemon's fleet config; n_constraints at half of max_constraints()
/// (the moderate alignment bench_ctrl_plane runs).
ctrl::ControlPlaneConfig base_config(const CtrlShape& shape) {
  ctrl::ControlPlaneConfig cfg;
  cfg.node_count = shape.nodes;
  cfg.nodes_per_tor = 4;
  cfg.tors_per_domain = 32;
  const dcn::FatTree probe(dcn::FatTreeConfig{shape.nodes, cfg.nodes_per_tor,
                                              cfg.tors_per_domain});
  const orch::FatTreeOrchestrator probe_orch(probe, cfg.k, cfg.gpus_per_node);
  cfg.n_constraints = probe_orch.max_constraints() / 2;
  cfg.inject.session_failure_rate = shape.inject;
  return cfg;
}

fault::FaultTrace generate_fault_trace(const CtrlShape& shape,
                                       std::uint64_t seed) {
  if (shape.model == fault::TraceModel::kPoisson) {
    fault::TraceGenConfig tg;
    tg.node_count = shape.nodes;
    tg.duration_days = kHorizonDays;
    tg.seed = seed;
    return fault::generate_trace(tg);
  }
  fault::PhysicsTraceConfig pc = shape.model == fault::TraceModel::kStorm
                                     ? fault::storm_trace_defaults()
                                     : fault::physics_trace_defaults();
  pc.node_count = shape.nodes;
  pc.duration_days = kHorizonDays;
  pc.seed = seed;
  return fault::generate_physics_trace(pc);
}

/// Generate the pool of inputs: the fleet config probe, then per input a
/// fault trace and a job arrival stream.
std::vector<CtrlInput> make_pool(const CtrlShape& shape, std::uint64_t seed) {
  const ctrl::ControlPlaneConfig base = base_config(shape);
  std::vector<CtrlInput> pool;
  for (std::size_t slot = 0; slot < shape.pool; ++slot) {
    CtrlInput in;
    in.id = input_seed(seed, slot);
    Rng rng(in.id);
    in.cfg = base;
    const std::uint64_t trace_seed = rng.next();
    in.cfg.seed = rng.next();
    in.cfg.inject.seed = rng.next();
    {
      Span s("fault.trace_gen", in.id);
      in.events = generate_fault_trace(shape, trace_seed).events();
    }
    ctrl::WorkloadConfig wl;
    wl.duration_days = kHorizonDays;
    wl.tp_size_gpus = in.cfg.gpus_per_node * kNodesPerGroup;
    wl.arrival_rate_per_day = arrival_rate(wl, shape.nodes, shape.load);
    {
      Span s("ctrl.workload_gen", in.id);
      in.arrivals = ctrl::generate_workload(wl, rng);
    }
    pool.push_back(std::move(in));
  }
  return pool;
}

/// Whether two pool builds generated the same inputs.
bool same_pool(const std::vector<CtrlInput>& a,
               const std::vector<CtrlInput>& b) {
  const auto same_arrival = [](const ctrl::JobArrival& x,
                               const ctrl::JobArrival& y) {
    return x.id == y.id && x.day == y.day &&
           x.tp_size_gpus == y.tp_size_gpus && x.groups == y.groups &&
           x.run_days == y.run_days;
  };
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [&](const CtrlInput& x, const CtrlInput& y) {
                      return x.id == y.id && x.cfg.seed == y.cfg.seed &&
                             x.cfg.inject.seed == y.cfg.inject.seed &&
                             same_events(x.events, y.events) &&
                             std::equal(x.arrivals.begin(), x.arrivals.end(),
                                        y.arrivals.begin(), y.arrivals.end(),
                                        same_arrival);
                    });
}

std::vector<CtrlInput> build_pool(const CtrlShape& shape, const Args& args,
                                  Outcome& out) {
  return build_inputs(
      args, out, [&] { return make_pool(shape, args.seed); }, same_pool);
}

fault::FaultTrace load_trace(const CtrlInput& in) {
  return fault::FaultTrace(in.cfg.node_count, kHorizonDays, in.events);
}

/// Engine queue depth seen by one daemon run's health sampler (traced
/// run). One per pool slot, so concurrent trials never share one.
struct DepthProbe {
  double sum = 0.0;
  std::uint64_t samples = 0;
};

/// One daemon run. Spans split construction from run().
ctrl::ControlPlaneResult run_daemon(const CtrlInput& in, std::uint64_t parent,
                                    DepthProbe* probe) {
  Span op("ctrl.op", in.id, parent);
  const fault::FaultTrace trace = load_trace(in);
  std::optional<ctrl::ControlPlane> cp;
  {
    Span s("ctrl.construct");
    cp.emplace(in.cfg, trace, in.arrivals);
  }
  if (probe != nullptr) {
    cp->health_probe = [probe](const ctrl::ControlPlane& plane, double) {
      probe->sum += static_cast<double>(plane.engine().pending());
      ++probe->samples;
    };
  }
  Span s("ctrl.run");
  return cp->run();
}

std::string result_bytes(const ctrl::ControlPlaneResult& r) {
  serde::Writer w;
  r.save(w);
  return w.take();
}

/// Exact replay of the trace's 0<->1 health edges through an
/// IncrementalPlacement built like the daemon's.
struct OrchReplay {
  std::uint64_t calls = 0;  ///< set_faulty calls = health edges
  std::uint64_t churn = 0;  ///< groups removed + added
  double seconds = 0.0;
};

OrchReplay replay_orch(const CtrlInput& in) {
  const ctrl::ControlPlaneConfig& cfg = in.cfg;
  const fault::FaultTrace trace = load_trace(in);
  const dcn::FatTree tree(dcn::FatTreeConfig{cfg.node_count, cfg.nodes_per_tor,
                                             cfg.tors_per_domain});
  const orch::FatTreeOrchestrator orch(tree, cfg.k, cfg.gpus_per_node);
  orch::IncrementalPlacement inc(
      orch,
      orch::JobSpec{in.arrivals.empty() ? 32 : in.arrivals[0].tp_size_gpus, 0},
      cfg.n_constraints < 0 ? orch.max_constraints() : cfg.n_constraints,
      std::vector<bool>(static_cast<std::size_t>(cfg.node_count), false));
  std::vector<int> depth(static_cast<std::size_t>(cfg.node_count), 0);
  OrchReplay r;
  Span replay("orch.replay", in.id);
  for (const fault::FaultTransition& tr : *trace.transition_timeline()) {
    // The daemon consumes transitions up to and including the horizon.
    if (tr.day > trace.duration_days()) break;
    int& d = depth[static_cast<std::size_t>(tr.node)];
    const bool was_down = d > 0;
    d += tr.down ? 1 : -1;
    if (was_down == (d > 0)) continue;
    const auto t0 = Clock::now();
    const orch::PlacementDelta delta = inc.set_faulty(tr.node, d > 0);
    r.seconds += seconds_since(t0);
    ++r.calls;
    r.churn += delta.removed.size() + delta.added.size();
  }
  return r;
}

/// The post-run checks of one daemon run; returns the failed ones.
std::vector<std::string> check_run(const ctrl::ControlPlaneResult& r,
                                   std::uint64_t orch_churn,
                                   std::uint64_t id) {
  std::vector<std::string> bad;
  const std::string tag = " (input " + std::to_string(id) + ")";
  if (r.reconfig_enqueued != r.reconfig_drained + r.reconfig_pending_end)
    bad.push_back("reconfig_enqueued != drained + pending_end" + tag);
  // Every failed attempt is retried, dead-lettered or permanent; the
  // daemon only issues preloaded sessions to in-range nodes, so it has no
  // permanent failures.
  if (r.reconfig_failed != r.reconfig_retried + r.reconfig_dead_lettered)
    bad.push_back("reconfig_failed != retried + dead_lettered" + tag);
  if (r.completions + r.unfinished != r.arrivals)
    bad.push_back("completions + unfinished != arrivals" + tag);
  if (orch_churn != r.placement_churn)
    bad.push_back("orch replay churn " + std::to_string(orch_churn) +
                  " != placement_churn " + std::to_string(r.placement_churn) +
                  tag);
  return bad;
}

/// Daemon counts summed over the traced runs.
struct DaemonCounts {
  ctrl::ControlPlaneResult sum;
  OrchReplay orch;
};

/// Per-slot state of a ctrl workload: the orch replay of each input, the
/// traced runs' depth probes, and the traced runs' summed counts.
struct CtrlState {
  explicit CtrlState(const std::vector<CtrlInput>& inputs)
      : pool(inputs), orch(inputs.size()), probes(inputs.size()) {}

  /// Check one daemon run of pool slot `slot`. The orch replay runs once
  /// per slot, and again on every traced run so orch.delta_s is timed
  /// there; traced runs are folded into `counts`.
  OpOutput check(const ctrl::ControlPlaneResult& r, std::size_t slot,
                 bool traced) {
    const CtrlInput& in = pool[slot];
    if (!orch[slot] || traced) orch[slot] = replay_orch(in);
    if (traced) {
      counts.sum.merge(r);
      counts.orch.calls += orch[slot]->calls;
      counts.orch.churn += orch[slot]->churn;
      counts.orch.seconds += orch[slot]->seconds;
    }
    return OpOutput{slot, "input " + std::to_string(in.id), result_bytes(r),
                    check_run(r, orch[slot]->churn, in.id)};
  }

  const std::vector<CtrlInput>& pool;
  std::vector<std::optional<OrchReplay>> orch;
  std::vector<DepthProbe> probes;
  DaemonCounts counts;
};

// --- isolated per-layer drives ---------------------------------------------

std::vector<ocstrx::NodeFabricManager> make_fleet(
    const ctrl::ControlPlaneConfig& cfg) {
  // The daemon's per-node fabric managers with its two preloaded sessions.
  ocstrx::Session hbd, park;
  for (int b = 0; b < cfg.bundles_per_node; ++b) {
    hbd[static_cast<std::uint32_t>(b)] = b % 2 == 0
                                             ? ocstrx::OcsPath::kExternal1
                                             : ocstrx::OcsPath::kExternal2;
    park[static_cast<std::uint32_t>(b)] = ocstrx::OcsPath::kLoopback;
  }
  std::vector<ocstrx::NodeFabricManager> fleet;
  fleet.reserve(static_cast<std::size_t>(cfg.node_count));
  for (int n = 0; n < cfg.node_count; ++n) {
    fleet.emplace_back(cfg.gpus_per_node, cfg.bundles_per_node,
                       cfg.trx_per_bundle);
    fleet.back().preload_session("hbd", hbd);
    fleet.back().preload_session("park", park);
  }
  return fleet;
}

/// Event dispatch in the daemon's pattern: a drain event re-armed with
/// schedule_in every simulated second, the 0.25-day schedule_every health
/// timer, and `depth` pending one-shots standing in for scheduled job
/// completions. Returns ns per executed event.
double drive_evsim(std::size_t depth, std::uint64_t events) {
  evsim::Engine engine;
  for (std::size_t i = 0; i < depth; ++i)
    engine.schedule_at(1e9 + static_cast<double>(i), [](evsim::Engine&) {});
  engine.schedule_every(0.25, 0.25, [](evsim::Engine&) {});
  const double period = 1.0 / kSecondsPerDay;
  std::function<void(evsim::Engine&)> drain = [&](evsim::Engine& e) {
    e.schedule_in(period, drain);
  };
  engine.schedule_in(period, drain);
  Span s("evsim.drive");
  const auto t0 = Clock::now();
  engine.run_until(static_cast<double>(events) * period);
  return seconds_since(t0) * 1e9 / static_cast<double>(engine.executed());
}

struct QueueDrive {
  double enqueue_ns = 0.0;
  double drain_ns_per_attempt = 0.0;  ///< includes the fabric apply
  std::uint64_t peak_depth = 0;
};

/// ReconfigQueue with the daemon's batch size, retry policy and injection
/// plan, fed the daemon's mean enqueues per drain tick for `enqueues`
/// calls over a fleet whose nodes faulty at mid-horizon have failed
/// bundles, then drained dry on the daemon's one-second cadence.
QueueDrive drive_queue(const CtrlInput& in, std::uint64_t enqueues,
                       std::uint64_t per_tick) {
  const ctrl::ControlPlaneConfig& cfg = in.cfg;
  std::vector<ocstrx::NodeFabricManager> fleet = make_fleet(cfg);
  const std::vector<bool> down = load_trace(in).faulty_at(kHorizonDays / 2);
  for (int n = 0; n < cfg.node_count; ++n) {
    if (!down[static_cast<std::size_t>(n)]) continue;
    auto& fm = fleet[static_cast<std::size_t>(n)];
    for (int b = 0; b < fm.bundle_count(); ++b) fm.bundle(b).fail();
  }
  ocstrx::ReconfigQueue queue(cfg.reconfig_batch, cfg.retry, cfg.inject);
  Rng rng(cfg.seed);
  const std::string sessions[2] = {"hbd", "park"};
  const std::uint64_t nodes = static_cast<std::uint64_t>(cfg.node_count);
  QueueDrive d;
  double enqueue_s = 0.0, drain_s = 0.0, now = 0.0;
  std::uint64_t sent = 0, attempts = 0;
  Span s("ocstrx.queue.drive", in.id);
  while (sent < enqueues || !queue.empty()) {
    now += cfg.drain_period_days;
    const auto t0 = Clock::now();
    for (std::uint64_t k = 0; k < per_tick && sent < enqueues; ++k, ++sent) {
      // Walk the fleet in node order: consecutive steers hit distinct,
      // adjacent nodes, as a job's TP groups do.
      const int node = static_cast<int>(sent % nodes);
      queue.enqueue(node, sessions[(sent / nodes) % 2], now);
    }
    const auto t1 = Clock::now();
    d.peak_depth = std::max<std::uint64_t>(d.peak_depth, queue.pending());
    attempts += queue.drain_batch(fleet, now, rng).size();
    drain_s += seconds_since(t1);
    enqueue_s += std::chrono::duration<double>(t1 - t0).count();
  }
  d.enqueue_ns = enqueues == 0 ? 0.0 : enqueue_s * 1e9 / enqueues;
  d.drain_ns_per_attempt = attempts == 0 ? 0.0 : drain_s * 1e9 / attempts;
  return d;
}

struct FabricDrive {
  double apply_ns = 0.0;
  double fail_repair_ns = 0.0;  ///< per node health edge (all bundles)
};

/// apply_session alternating the two preloaded sessions across a healthy
/// fleet built like the daemon's, and whole-node fail/repair edges as
/// ControlPlane::on_fault_day issues them.
FabricDrive drive_fabric(const ctrl::ControlPlaneConfig& cfg,
                         std::uint64_t applies, std::uint64_t edges) {
  std::vector<ocstrx::NodeFabricManager> fleet = make_fleet(cfg);
  Rng rng(cfg.seed);
  const std::string sessions[2] = {"hbd", "park"};
  const std::size_t n = fleet.size();
  FabricDrive d;
  {
    Span s("ocstrx.fabric.apply_drive");
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < applies; ++i)
      fleet[i % n].apply_session(sessions[(i / n) % 2], rng);
    d.apply_ns = seconds_since(t0) * 1e9 / static_cast<double>(applies);
  }
  // Whole passes (down then up) so the fleet ends healthy.
  const std::uint64_t passes =
      std::max<std::uint64_t>(2, (edges / n + 1) & ~std::uint64_t{1});
  {
    Span s("ocstrx.fabric.fail_repair_drive");
    const auto t0 = Clock::now();
    for (std::uint64_t p = 0; p < passes; ++p) {
      for (auto& fm : fleet) {
        for (int b = 0; b < fm.bundle_count(); ++b) {
          if (p % 2 == 0) {
            fm.bundle(b).fail();
          } else {
            fm.bundle(b).repair();
          }
        }
      }
    }
    d.fail_repair_ns =
        seconds_since(t0) * 1e9 / static_cast<double>(passes * n);
  }
  return d;
}

constexpr std::uint64_t kDriveCap = std::uint64_t{1} << 21;

/// Per-layer metrics of the daemon from the traced runs' exact counts and
/// the isolated drives' per-call costs.
void daemon_layers(const CtrlState& state, Outcome& out) {
  const std::vector<CtrlInput>& pool = state.pool;
  const DaemonCounts& c = state.counts;
  const ctrl::ControlPlaneResult& r = c.sum;
  DepthProbe probe;
  for (const DepthProbe& p : state.probes) {
    probe.sum += p.sum;
    probe.samples += p.samples;
  }
  const std::uint64_t enqueue_calls =
      r.reconfig_enqueued + r.reconfig_coalesced;
  const std::uint64_t attempts = r.reconfig_drained + r.reconfig_retried;
  const std::uint64_t applies = attempts - r.reconfig_injected;
  const std::uint64_t successes = attempts - r.reconfig_failed;

  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::size_t depth =
      probe.samples == 0 ? 0
                         : static_cast<std::size_t>(
                               std::llround(probe.sum / u(probe.samples)));
  const double dispatch_ns =
      drive_evsim(depth, std::min(std::max<std::uint64_t>(r.events, 1),
                                  kDriveCap));
  const std::uint64_t per_tick =
      r.reconfig_batches == 0
          ? 1
          : std::max<std::uint64_t>(
                1, std::llround(u(enqueue_calls) / u(r.reconfig_batches)));
  const QueueDrive q = drive_queue(
      pool.front(), std::min(enqueue_calls, kDriveCap), per_tick);
  const FabricDrive f = drive_fabric(
      pool.front().cfg,
      std::min(std::max<std::uint64_t>(applies, 1), kDriveCap), c.orch.calls);

  const double run_s = span_total("ctrl.run").total_s;
  const double attributed =
      (u(r.events) * dispatch_ns + u(enqueue_calls) * q.enqueue_ns +
       u(attempts) * q.drain_ns_per_attempt +
       u(c.orch.calls) * f.fail_repair_ns) *
          1e-9 +
      c.orch.seconds;

  out.layers["ctrl.construct_s"] = span_total("ctrl.construct").total_s;
  out.layers["ctrl.run_s"] = run_s;
  out.layers["evsim.events"] = u(r.events);
  out.layers["evsim.dispatch_ns"] = dispatch_ns;
  out.layers["orch.delta_calls"] = u(c.orch.calls);
  out.layers["orch.churn_groups"] = u(c.orch.churn);
  out.layers["orch.delta_s"] = c.orch.seconds;
  out.layers["ocstrx.queue.enqueued"] = u(r.reconfig_enqueued);
  out.layers["ocstrx.queue.coalesced"] = u(r.reconfig_coalesced);
  out.layers["ocstrx.queue.attempts"] = u(attempts);
  out.layers["ocstrx.queue.retried"] = u(r.reconfig_retried);
  out.layers["ocstrx.queue.dead_lettered"] = u(r.reconfig_dead_lettered);
  out.layers["ocstrx.queue.injected"] = u(r.reconfig_injected);
  out.layers["ocstrx.queue.batches"] = u(r.reconfig_batches);
  out.layers["ocstrx.queue.peak_depth"] = u(r.peak_reconfig_depth);
  out.layers["ocstrx.queue.drive_peak_depth"] = u(q.peak_depth);
  out.layers["ocstrx.queue.useful_ratio"] =
      attempts == 0 ? 0.0 : u(successes) / u(attempts);
  out.layers["ocstrx.queue.enqueue_ns"] = q.enqueue_ns;
  out.layers["ocstrx.queue.drain_ns_per_attempt"] = q.drain_ns_per_attempt;
  out.layers["ocstrx.fabric.applies"] = u(applies);
  out.layers["ocstrx.fabric.apply_ns"] = f.apply_ns;
  out.layers["ocstrx.fabric.fail_repair_ns"] = f.fail_repair_ns;
  out.layers["ctrl.attributed_s"] = attributed;
  out.layers["ctrl.residual_s"] = run_s - attributed;
  out.layers["ctrl.sim.job_wait_p50_s"] = r.job_wait_s.quantile(0.50);
  out.layers["ctrl.sim.job_wait_p99_s"] = r.job_wait_s.quantile(0.99);
  out.layers["ctrl.sim.reconfig_p99_s"] =
      r.reconfig_latency_s.quantile(0.99);
  out.layers["ctrl.sim.degraded_starts"] = u(r.degraded_starts);
  if (run_s - attributed < 0.0)
    out.failures.push_back(
        "ctrl.residual_s is negative: the attributed per-call costs exceed "
        "ctrl.run_s");
}

void generator_layers(Outcome& out) {
  out.layers["fault.trace_gen_s"] = span_total("fault.trace_gen").total_s;
  out.layers["ctrl.workload_gen_s"] = span_total("ctrl.workload_gen").total_s;
}

}  // namespace

// --- ctrl-steady -----------------------------------------------------------

Outcome run_ctrl_steady(const Args& args) {
  Outcome out;
  set_tracing(args.trace);
  const std::vector<CtrlInput> pool = build_pool(kSteady, args, out);
  CtrlState state(pool);
  const double node_days = kSteady.nodes * kHorizonDays;

  // An operation is one daemon run of one pool slot.
  run_ops(args, pool.size(), pool.size(), out,
          [&](std::size_t slot, bool traced) {
            const auto t0 = Clock::now();
            const ctrl::ControlPlaneResult r = run_daemon(
                pool[slot], 0, traced ? &state.probes[slot] : nullptr);
            OpRun run{node_days, seconds_since(t0), {}};
            run.outputs.push_back(state.check(r, slot, traced));
            return run;
          });
  if (args.trace) {
    generator_layers(out);
    daemon_layers(state, out);
    set_tracing(false);
  }
  return out;
}

// --- ctrl-stress -----------------------------------------------------------

namespace {

struct SweepRun {
  ctrl::ControlPlaneResult merged;
  std::vector<ctrl::ControlPlaneResult> trials;
  double wall_s = 0.0;
  double busy_s = 0.0;       ///< sum of trial-callback time
  double trial_max_s = 0.0;  ///< slowest trial
  double fold_s = 0.0;       ///< fold callbacks
};

/// One sweep: a single cell whose trials are daemon runs over pool slots
/// first_slot, first_slot + 1, ... (mod pool size). `probes`, when given,
/// holds one depth probe per pool slot.
SweepRun run_sweep(const std::vector<CtrlInput>& pool, std::size_t first_slot,
                   runtime::ThreadPool& workers,
                   std::vector<DepthProbe>* probes) {
  runtime::SweepSpec spec;
  spec.seed = pool.front().id;
  spec.trials = kStressTrialsPerSweep;
  spec.keep_samples = false;
  spec.axes = {runtime::Axis::of_values(
      "Nodes", {static_cast<double>(pool.front().cfg.node_count)})};

  SweepRun run;
  run.trials.resize(static_cast<std::size_t>(spec.trials));
  std::vector<double> trial_s(run.trials.size(), 0.0);
  std::mutex fold_mu;
  Span sweep("runtime.sweep", pool[first_slot % pool.size()].id);
  const std::uint64_t parent = sweep.seq();
  const auto t0 = Clock::now();
  auto grid = runtime::run_sweep_reduce(
      spec, ctrl::ControlPlaneResult{},
      [&](const runtime::Scenario& s, Rng&) {
        const std::size_t t = static_cast<std::size_t>(s.trial());
        const std::size_t slot = (first_slot + t) % pool.size();
        Span trial("runtime.trial", pool[slot].id, parent);
        const auto ts = Clock::now();
        run.trials[t] = run_daemon(
            pool[slot], trial.seq(),
            probes != nullptr ? &(*probes)[slot] : nullptr);
        trial_s[t] = seconds_since(ts);
        return run.trials[t];
      },
      [&](ctrl::ControlPlaneResult& acc, ctrl::ControlPlaneResult&& r) {
        Span fold("runtime.fold", 0, parent);
        const auto tf = Clock::now();
        acc.merge(r);
        std::lock_guard<std::mutex> lock(fold_mu);
        run.fold_s += seconds_since(tf);
      },
      /*threads=*/0, &workers);
  run.wall_s = seconds_since(t0);
  run.merged = std::move(grid.cells.front());
  for (const double t : trial_s) {
    run.busy_s += t;
    run.trial_max_s = std::max(run.trial_max_s, t);
  }
  return run;
}

}  // namespace

Outcome run_ctrl_stress(const Args& args) {
  Outcome out;
  set_tracing(args.trace);
  // One pool for the whole run, as in a sweep process; its threads and
  // their allocator arenas persist across sweeps.
  runtime::ThreadPool workers(kStressWorkers);
  const std::vector<CtrlInput> pool = build_pool(kStress, args, out);
  CtrlState state(pool);
  const std::size_t per_sweep = kStressTrialsPerSweep;
  const std::size_t sweeps = (pool.size() + per_sweep - 1) / per_sweep;
  const double node_days = kStress.nodes * kHorizonDays * per_sweep;

  // An operation is one sweep; its outputs are its trials' daemon runs.
  // Each sweep's merged result must also repeat exactly.
  std::vector<std::string> merged(sweeps);
  double busy_s = 0.0, trial_max_s = 0.0, merge_s = 0.0, traced_wall = 0.0;
  run_ops(args, sweeps, pool.size(), out, [&](std::size_t k, bool traced) {
    const std::size_t first = k * per_sweep;
    const SweepRun sweep =
        run_sweep(pool, first, workers, traced ? &state.probes : nullptr);
    OpRun run{node_days, sweep.wall_s, {}};
    std::string bytes;
    {
      Span codec("runtime.codec");
      const auto tc = Clock::now();
      bytes = result_bytes(sweep.merged);
      if (traced) merge_s += seconds_since(tc) + sweep.fold_s;
    }
    if (traced) {
      busy_s += sweep.busy_s;
      trial_max_s = std::max(trial_max_s, sweep.trial_max_s);
      traced_wall += sweep.wall_s;
    }
    for (std::size_t t = 0; t < sweep.trials.size(); ++t)
      run.outputs.push_back(
          state.check(sweep.trials[t], (first + t) % pool.size(), traced));
    if (merged[k].empty()) {
      merged[k] = std::move(bytes);
    } else if (bytes != merged[k]) {
      run.outputs.front().problems.push_back(
          "sweep " + std::to_string(k) +
          ": merged result differs from its first run");
    }
    return run;
  });
  if (!args.trace) return out;

  // The merged bytes must not depend on the worker count either.
  set_tracing(false);
  {
    runtime::ThreadPool one_worker(1);
    const SweepRun one = run_sweep(pool, 0, one_worker, nullptr);
    if (result_bytes(one.merged) != merged[0])
      out.fail("ctrl-stress sweep 0: merged result differs between 1 and "
               "2 workers",
               0);
  }
  set_tracing(true);
  generator_layers(out);
  daemon_layers(state, out);
  out.layers["runtime.busy_ratio"] = busy_s / (traced_wall * workers.size());
  out.layers["runtime.trial_s_max"] = trial_max_s;
  out.layers["runtime.merge_s"] = merge_s;
  set_tracing(false);
  return out;
}

}  // namespace perfbench
