#include "src/ctrl/control_plane.h"

#include <algorithm>

#include "src/common/contracts.h"
#include "src/common/error.h"
#include "src/common/serde.h"
#include "src/obs/metrics.h"

namespace ihbd::ctrl {
namespace {

constexpr double kSecondsPerDay = 86400.0;
const std::string kHbdSession = "hbd";
const std::string kParkSession = "park";

dcn::FatTree make_tree(const ControlPlaneConfig& cfg) {
  dcn::FatTreeConfig tree;
  tree.node_count = cfg.node_count;
  tree.nodes_per_tor = cfg.nodes_per_tor;
  tree.tors_per_domain = cfg.tors_per_domain;
  return dcn::FatTree(tree);
}

}  // namespace

void ControlPlaneResult::merge(const ControlPlaneResult& other) {
  events += other.events;
  arrivals += other.arrivals;
  starts += other.starts;
  completions += other.completions;
  preemptions += other.preemptions;
  unfinished += other.unfinished;
  fault_transitions += other.fault_transitions;
  placement_churn += other.placement_churn;
  reconfig_enqueued += other.reconfig_enqueued;
  reconfig_coalesced += other.reconfig_coalesced;
  reconfig_drained += other.reconfig_drained;
  reconfig_failed += other.reconfig_failed;
  reconfig_retried += other.reconfig_retried;
  reconfig_dead_lettered += other.reconfig_dead_lettered;
  reconfig_injected += other.reconfig_injected;
  reconfig_pending_end += other.reconfig_pending_end;
  reconfig_batches += other.reconfig_batches;
  degraded_starts += other.degraded_starts;
  peak_pending_jobs = std::max(peak_pending_jobs, other.peak_pending_jobs);
  peak_reconfig_depth =
      std::max(peak_reconfig_depth, other.peak_reconfig_depth);
  job_wait_s.merge(other.job_wait_s);
  job_wait_degraded_s.merge(other.job_wait_degraded_s);
  reconfig_latency_s.merge(other.reconfig_latency_s);
  reconfig_latency_retried_s.merge(other.reconfig_latency_retried_s);
}

void ControlPlaneResult::save(serde::Writer& w) const {
  w.u64(events);
  w.u64(arrivals);
  w.u64(starts);
  w.u64(completions);
  w.u64(preemptions);
  w.u64(unfinished);
  w.u64(fault_transitions);
  w.u64(placement_churn);
  w.u64(reconfig_enqueued);
  w.u64(reconfig_coalesced);
  w.u64(reconfig_drained);
  w.u64(reconfig_failed);
  w.u64(reconfig_retried);
  w.u64(reconfig_dead_lettered);
  w.u64(reconfig_injected);
  w.u64(reconfig_pending_end);
  w.u64(reconfig_batches);
  w.u64(degraded_starts);
  w.u64(peak_pending_jobs);
  w.u64(peak_reconfig_depth);
  job_wait_s.save(w);
  job_wait_degraded_s.save(w);
  reconfig_latency_s.save(w);
  reconfig_latency_retried_s.save(w);
}

ControlPlaneResult ControlPlaneResult::load(serde::Reader& r) {
  ControlPlaneResult out;
  out.events = r.u64();
  out.arrivals = r.u64();
  out.starts = r.u64();
  out.completions = r.u64();
  out.preemptions = r.u64();
  out.unfinished = r.u64();
  out.fault_transitions = r.u64();
  out.placement_churn = r.u64();
  out.reconfig_enqueued = r.u64();
  out.reconfig_coalesced = r.u64();
  out.reconfig_drained = r.u64();
  out.reconfig_failed = r.u64();
  out.reconfig_retried = r.u64();
  out.reconfig_dead_lettered = r.u64();
  out.reconfig_injected = r.u64();
  out.reconfig_pending_end = r.u64();
  out.reconfig_batches = r.u64();
  out.degraded_starts = r.u64();
  out.peak_pending_jobs = r.u64();
  out.peak_reconfig_depth = r.u64();
  out.job_wait_s = SloHistogram::load(r);
  out.job_wait_degraded_s = SloHistogram::load(r);
  out.reconfig_latency_s = SloHistogram::load(r);
  out.reconfig_latency_retried_s = SloHistogram::load(r);
  return out;
}

ControlPlane::ControlPlane(const ControlPlaneConfig& cfg,
                           const fault::FaultTrace& trace,
                           const std::vector<JobArrival>& arrivals)
    : cfg_(cfg),
      trace_(trace),
      arrivals_(arrivals),
      fat_tree_(make_tree(cfg)),
      orch_(fat_tree_, cfg.k, cfg.gpus_per_node),
      inc_(orch_,
           orch::JobSpec{arrivals_.empty() ? 32 : arrivals_[0].tp_size_gpus,
                         0},
           cfg.n_constraints < 0 ? orch_.max_constraints() : cfg.n_constraints,
           std::vector<bool>(static_cast<std::size_t>(cfg.node_count), false)),
      rng_(cfg.seed) {
  if (trace.node_count() != cfg.node_count)
    throw ConfigError("trace/control-plane node count mismatch");
  if (cfg.inject.session_failure_rate < 0.0 ||
      cfg.inject.session_failure_rate > 1.0)
    throw ConfigError(
        "ControlPlaneConfig.inject.session_failure_rate must be in [0, 1]");
  if (cfg.retry.max_attempts < 1)
    throw ConfigError("ControlPlaneConfig.retry.max_attempts must be >= 1");
  for (const auto& a : arrivals_) {
    if (a.tp_size_gpus != arrivals_[0].tp_size_gpus)
      throw ConfigError("mixed TP sizes in one control-plane fleet");
    if (a.groups < 1) throw ConfigError("job must request >= 1 TP group");
  }

  // Per-node fabric managers with the fast-switch sessions preloaded: the
  // HBD steering applied when a node joins a job, and the idle loopback
  // park (§4.2) applied on release.
  ocstrx::Session hbd;
  ocstrx::Session park;
  for (int b = 0; b < cfg.bundles_per_node; ++b) {
    hbd[static_cast<std::uint32_t>(b)] = b % 2 == 0
                                             ? ocstrx::OcsPath::kExternal1
                                             : ocstrx::OcsPath::kExternal2;
    park[static_cast<std::uint32_t>(b)] = ocstrx::OcsPath::kLoopback;
  }
  fleet_.reserve(static_cast<std::size_t>(cfg.node_count));
  for (int n = 0; n < cfg.node_count; ++n) {
    fleet_.emplace_back(cfg.gpus_per_node, cfg.bundles_per_node,
                        cfg.trx_per_bundle);
    fleet_.back().preload_session(kHbdSession, hbd);
    fleet_.back().preload_session(kParkSession, park);
  }
  queue_ = ocstrx::ReconfigQueue(cfg.reconfig_batch, cfg.retry, cfg.inject);

  const auto nodes = static_cast<std::size_t>(cfg.node_count);
  free_by_first_.assign(nodes, free_list_.end());
  owner_of_first_.assign(nodes, -1);
  waiter_of_node_.assign(nodes, -1);

  // Seed the free pool from the healthy placement, in placement order
  // (aligned groups first — jobs consume alignment-preserving capacity
  // before the shifted spill-over).
  for (const auto& g : inc_.placement().groups) add_free_group(g.group.nodes);
}

void ControlPlane::add_free_group(std::vector<int> nodes) {
  const auto first = static_cast<std::size_t>(nodes.front());
  free_list_.push_back(std::move(nodes));
  free_by_first_[first] = std::prev(free_list_.end());
}

bool ControlPlane::take_free_group(std::vector<int>& out) {
  if (free_list_.empty()) return false;
  out = std::move(free_list_.front());
  free_by_first_[static_cast<std::size_t>(out.front())] = free_list_.end();
  free_list_.pop_front();
  return true;
}

void ControlPlane::remove_free_group(int first_node) {
  auto& it = free_by_first_[static_cast<std::size_t>(first_node)];
  IHBD_EXPECTS(it != free_list_.end());
  free_list_.erase(it);
  it = free_list_.end();
}

void ControlPlane::arm_drain() {
  if (drain_armed_) return;
  drain_armed_ = true;
  engine_.schedule_in(cfg_.drain_period_days,
                      [this](evsim::Engine&) { on_drain(); });
}

void ControlPlane::enqueue_reconfig(int node, const std::string& session,
                                    int waiter_job) {
  queue_.enqueue(node, session, engine_.now());
  if (waiter_job >= 0) {
    waiter_of_node_[static_cast<std::size_t>(node)] = waiter_job;
    ++job_by_id(waiter_job).outstanding_reconfigs;
  }
  result_.peak_reconfig_depth =
      std::max(result_.peak_reconfig_depth,
               static_cast<std::uint64_t>(queue_.pending()));
  arm_drain();
}

void ControlPlane::on_drain() {
  static obs::Histogram& h_latency =
      obs::histogram("ctrl.reconfig_latency_seconds");
  static obs::Gauge& g_depth = obs::gauge("ctrl.reconfig_queue_depth");
  const auto& outcomes = queue_.drain_batch(fleet_, engine_.now(), rng_);
  ++result_.reconfig_batches;
  for (const auto& oc : outcomes) {
    if (oc.ok()) {
      const double latency_s =
          (oc.drained_at - oc.request.enqueued_at) * kSecondsPerDay +
          *oc.switch_latency_s;
      (oc.request.attempts > 1 ? result_.reconfig_latency_retried_s
                               : result_.reconfig_latency_s)
          .observe(latency_s);
      h_latency.observe(latency_s);
    }
    // A retrying attempt has not resolved: its waiter keeps waiting (the
    // job stays on its last good placement) and the coalescing key stays
    // live inside the queue.
    if (oc.will_retry) continue;
    int& waiter = waiter_of_node_[static_cast<std::size_t>(oc.request.node)];
    if (waiter >= 0) {
      Job& job = job_by_id(waiter);
      waiter = -1;
      // Giving up on a steer does not block the job: it starts anyway,
      // marked degraded so its wait lands in the degraded SLO split.
      if (!oc.ok()) job.degraded = true;
      if (--job.outstanding_reconfigs == 0 &&
          job.state == JobState::kStarting) {
        begin_running(job.arrival->id);
      }
    }
  }
  g_depth.set(static_cast<double>(queue_.pending()));
  drain_armed_ = false;
  if (!queue_.empty()) arm_drain();
}

void ControlPlane::on_arrival(std::size_t index) {
  Job& job = jobs_.emplace_back();
  job.arrival = &arrivals_[index];
  job.pending_since = engine_.now();
  pending_.push_back(job.arrival->id);  // arrivals come in id order
  ++result_.arrivals;
  result_.peak_pending_jobs = std::max(
      result_.peak_pending_jobs, static_cast<std::uint64_t>(pending_.size()));
  if (index + 1 < arrivals_.size()) {
    engine_.schedule_at(arrivals_[index + 1].day, [this, index](
                                                      evsim::Engine&) {
      on_arrival(index + 1);
    });
  }
  try_admit();
}

void ControlPlane::try_admit() {
  // FIFO head + bounded backfill: admit any of the first backfill_window
  // pending jobs whose group demand fits the free pool.
  std::size_t scanned = 0;
  for (auto it = pending_.begin();
       it != pending_.end() && scanned < cfg_.backfill_window &&
       !free_list_.empty();
       ++scanned) {
    Job& job = job_by_id(*it);
    const std::size_t needed = static_cast<std::size_t>(job.arrival->groups);
    if (free_list_.size() < needed) {
      ++it;
      continue;
    }
    for (std::size_t g = 0; g < needed; ++g) {
      std::vector<int> nodes;
      take_free_group(nodes);
      owner_of_first_[static_cast<std::size_t>(nodes.front())] =
          job.arrival->id;
      job.groups.push_back(std::move(nodes));
    }
    job.state = JobState::kStarting;
    job.degraded = false;  // fresh start attempt, fresh SLO attribution
    start_pending_reconfigs(job);
    it = pending_.erase(it);
  }
}

void ControlPlane::start_pending_reconfigs(Job& job) {
  for (const auto& nodes : job.groups)
    for (int n : nodes) enqueue_reconfig(n, kHbdSession, job.arrival->id);
  // Degenerate case (already-drained nodes coalesced away): start at once.
  if (job.outstanding_reconfigs == 0 && job.state == JobState::kStarting)
    begin_running(job.arrival->id);
}

void ControlPlane::begin_running(int job_id) {
  static obs::Histogram& h_wait = obs::histogram("ctrl.job_wait_seconds");
  Job& job = job_by_id(job_id);
  job.state = JobState::kRunning;
  ++running_count_;
  ++result_.starts;
  const double wait_s = (engine_.now() - job.pending_since) * kSecondsPerDay;
  if (job.degraded) {
    ++result_.degraded_starts;
    result_.job_wait_degraded_s.observe(wait_s);
  } else {
    result_.job_wait_s.observe(wait_s);
  }
  h_wait.observe(wait_s);
  job.completion = engine_.schedule_in(
      job.arrival->run_days, [this, job_id](evsim::Engine&) {
        complete(job_id);
      });
}

void ControlPlane::complete(int job_id) {
  Job& job = job_by_id(job_id);
  job.state = JobState::kDone;
  job.completion = 0;
  --running_count_;
  ++result_.completions;
  release_groups(job, /*park=*/true);
  try_admit();
  // Retire finished jobs from the front of the live window.
  while (!jobs_.empty() && jobs_.front().state == JobState::kDone) {
    jobs_.pop_front();
    ++first_live_job_;
  }
}

void ControlPlane::release_groups(Job& job, bool park) {
  for (auto& nodes : job.groups) {
    owner_of_first_[static_cast<std::size_t>(nodes.front())] = -1;
    for (int n : nodes) {
      int& waiter = waiter_of_node_[static_cast<std::size_t>(n)];
      if (waiter == job.arrival->id) {
        waiter = -1;
        --job.outstanding_reconfigs;
      }
      if (park) enqueue_reconfig(n, kParkSession, /*waiter_job=*/-1);
    }
    add_free_group(std::move(nodes));
  }
  // Free the storage, not just the elements: a finished job keeps nothing,
  // so the daemon's heap tracks the running set instead of every job seen.
  std::vector<std::vector<int>>().swap(job.groups);
  job.outstanding_reconfigs = 0;
}

void ControlPlane::preempt(int job_id) {
  Job& job = job_by_id(job_id);
  if (job.state == JobState::kRunning) {
    // The cancellable-completion contract in action: a preempted job's
    // departure event must never fire.
    const bool cancelled = engine_.cancel(job.completion);
    IHBD_EXPECTS(cancelled);
    job.completion = 0;
    --running_count_;
  }
  release_groups(job, /*park=*/false);
  job.state = JobState::kPending;
  job.pending_since = engine_.now();
  ++result_.preemptions;
  // Re-queue in arrival order (ids are arrival-ordered).
  const auto at =
      std::lower_bound(pending_.begin(), pending_.end(), job_id);
  pending_.insert(at, job_id);
  result_.peak_pending_jobs = std::max(
      result_.peak_pending_jobs, static_cast<std::uint64_t>(pending_.size()));
}

void ControlPlane::apply_delta(const orch::PlacementDelta& delta) {
  result_.placement_churn += delta.removed.size() + delta.added.size();
  // Jobs that lost at least one group, in loss order.
  std::vector<int> affected;
  for (const auto& g : delta.removed) {
    const int first = g.group.nodes.front();
    int& owner = owner_of_first_[static_cast<std::size_t>(first)];
    if (owner < 0) {
      remove_free_group(first);
      continue;
    }
    const int job_id = owner;
    Job& job = job_by_id(job_id);
    owner = -1;
    for (auto it = job.groups.begin(); it != job.groups.end(); ++it) {
      if (*it != g.group.nodes) continue;
      for (int n : *it) {
        int& waiter = waiter_of_node_[static_cast<std::size_t>(n)];
        if (waiter == job_id) {
          waiter = -1;
          --job.outstanding_reconfigs;
        }
      }
      job.groups.erase(it);
      break;
    }
    if (std::find(affected.begin(), affected.end(), job_id) ==
        affected.end()) {
      affected.push_back(job_id);
    }
  }
  for (const auto& g : delta.added) add_free_group(g.group.nodes);

  // Repair each affected job from the free pool; preempt when the pool
  // cannot restore its full group demand.
  for (const int job_id : affected) {
    Job& job = job_by_id(job_id);
    bool whole = true;
    while (static_cast<int>(job.groups.size()) < job.arrival->groups) {
      std::vector<int> nodes;
      if (!take_free_group(nodes)) {
        whole = false;
        break;
      }
      owner_of_first_[static_cast<std::size_t>(nodes.front())] = job_id;
      // Replacement nodes must be steered before they carry traffic: a
      // starting job adds them to its wait set; a running job keeps
      // running on the rest while the new group steers in the background.
      const int waiter =
          job.state == JobState::kStarting ? job_id : -1;
      for (int n : nodes) enqueue_reconfig(n, kHbdSession, waiter);
      job.groups.push_back(std::move(nodes));
    }
    if (!whole) preempt(job_id);
  }
}

void ControlPlane::on_fault_day(std::size_t cursor) {
  const auto& timeline = *trace_.transition_timeline();
  const double day = timeline[cursor].day;
  std::size_t end = cursor;
  while (end < timeline.size() && timeline[end].day == day) ++end;
  for (std::size_t i = cursor; i < end; ++i) {
    const auto& tr = timeline[i];
    ++result_.fault_transitions;
    // Overlapping fault intervals: a node is down while its active-interval
    // count is positive (FaultTrace contract), so only 0<->1 edges are real
    // state changes.
    auto& depth = fault_depth_[static_cast<std::size_t>(tr.node)];
    const bool was_down = depth > 0;
    depth += tr.down ? 1 : -1;
    const bool now_down = depth > 0;
    if (was_down == now_down) continue;
    auto& fm = fleet_[static_cast<std::size_t>(tr.node)];
    for (int b = 0; b < fm.bundle_count(); ++b) {
      if (now_down) {
        fm.bundle(b).fail();
      } else {
        fm.bundle(b).repair();
      }
    }
    apply_delta(inc_.set_faulty(tr.node, now_down));
  }
  try_admit();
  if (end < timeline.size()) {
    engine_.schedule_at(timeline[end].day, [this, end](evsim::Engine&) {
      on_fault_day(end);
    });
  }
}

ControlPlaneResult ControlPlane::run() {
  static obs::Gauge& g_pending = obs::gauge("ctrl.pending_jobs");
  static obs::Gauge& g_running = obs::gauge("ctrl.running_jobs");
  static obs::Gauge& g_free = obs::gauge("ctrl.free_groups");
  fault_depth_.assign(static_cast<std::size_t>(cfg_.node_count), 0);

  if (!arrivals_.empty()) {
    engine_.schedule_at(arrivals_[0].day,
                        [this](evsim::Engine&) { on_arrival(0); });
  }
  const auto& timeline = *trace_.transition_timeline();
  if (!timeline.empty()) {
    engine_.schedule_at(timeline[0].day,
                        [this](evsim::Engine&) { on_fault_day(0); });
  }
  // Periodic health sampler: the always-on daemon's heartbeat, feeding the
  // live gauges (never read back into results — obs stays monitoring-only).
  engine_.schedule_every(0.25, 0.25, [&](evsim::Engine&) {
    g_pending.set(static_cast<double>(pending_.size()));
    g_running.set(static_cast<double>(running_count_));
    g_free.set(static_cast<double>(free_list_.size()));
    if (health_probe) health_probe(*this, engine_.now());
  });

  engine_.run_until(trace_.duration_days());

  result_.events = engine_.executed();
  result_.unfinished =
      static_cast<std::uint64_t>(arrivals_.size()) - result_.completions;
  result_.reconfig_enqueued = queue_.enqueued();
  result_.reconfig_coalesced = queue_.coalesced();
  result_.reconfig_drained = queue_.drained();
  result_.reconfig_failed = queue_.failed();
  result_.reconfig_retried = queue_.retried();
  result_.reconfig_dead_lettered = queue_.dead_lettered();
  result_.reconfig_injected = queue_.injected();
  result_.reconfig_pending_end =
      static_cast<std::uint64_t>(queue_.pending());

  if (obs::enabled()) {
    obs::counter("ctrl.events").add(result_.events);
    obs::counter("ctrl.job_arrivals").add(result_.arrivals);
    obs::counter("ctrl.job_starts").add(result_.starts);
    obs::counter("ctrl.job_completions").add(result_.completions);
    obs::counter("ctrl.preemptions").add(result_.preemptions);
    obs::counter("ctrl.fault_transitions").add(result_.fault_transitions);
    obs::counter("ctrl.placement_churn").add(result_.placement_churn);
    obs::counter("ctrl.reconfig_enqueued").add(result_.reconfig_enqueued);
    obs::counter("ctrl.reconfig_coalesced").add(result_.reconfig_coalesced);
    obs::counter("ctrl.reconfig_drained").add(result_.reconfig_drained);
    obs::counter("ctrl.reconfig_failed").add(result_.reconfig_failed);
    obs::counter("ctrl.reconfig_retried").add(result_.reconfig_retried);
    obs::counter("ctrl.reconfig_dead_lettered")
        .add(result_.reconfig_dead_lettered);
    obs::counter("ctrl.reconfig_injected").add(result_.reconfig_injected);
    obs::counter("ctrl.degraded_starts").add(result_.degraded_starts);
  }
  return result_;
}

ControlPlaneResult run_control_plane(const ControlPlaneConfig& cfg,
                                     const fault::FaultTrace& trace,
                                     std::vector<JobArrival> arrivals) {
  ControlPlane cp(cfg, trace, arrivals);
  return cp.run();
}

}  // namespace ihbd::ctrl
