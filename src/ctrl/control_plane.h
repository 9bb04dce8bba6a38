// Always-on orchestration control plane (the daemon the paper's §5
// deployment implies): an event-driven service on evsim::Engine that keeps
// a cluster's placement, job set, and OCS fabric consistent under a
// continuous stream of events, instead of re-running the offline
// orchestration pipeline per scenario.
//
// Event sources, all on one engine clock (time unit: DAYS):
//   * job arrivals/departures - a pre-generated deterministic workload
//     (src/ctrl/workload.h); completions are cancellable one-shot events
//     (preemption cancels them via evsim::Engine::cancel);
//   * fault/repair transitions - FaultTrace::transitions(), walked by a
//     cursor event chain; each transition patches the incremental
//     placement (src/orch/incremental.h) and fails/repairs the node's
//     fabric-manager bundles;
//   * reconfiguration drains - a batched ReconfigQueue
//     (src/ocstrx/reconfig_queue.h) armed while non-empty, applying
//     preloaded sessions against per-node NodeFabricManagers.
//
// State model: the incremental placement partitions healthy capacity into
// TP groups; the control plane tracks each group as FREE or owned by a
// job. Admission is FIFO-with-backfill over pending jobs (any job whose
// group demand fits the free pool starts). A started job's nodes are
// steered via the reconfig queue; the job begins running only when its
// last reconfig drains, so job-wait SLOs include control-plane queueing. A
// fault that removes an owned group first tries a replacement group from
// the free pool; failing that the job is preempted - completion event
// cancelled, remaining groups released, job re-queued in arrival order.
//
// Determinism: all randomness (workload, switch-latency draws) comes from
// the caller's seeds; event ties resolve by the engine's FIFO order;
// SLO aggregates live in local SloHistograms so sweep results are
// byte-identical across thread counts and shard shapes. ctrl.* obs
// metrics mirror the same quantities for live monitoring and are never
// read back into results.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/ctrl/slo.h"
#include "src/ctrl/workload.h"
#include "src/dcn/fattree.h"
#include "src/evsim/engine.h"
#include "src/fault/injection.h"
#include "src/fault/trace.h"
#include "src/ocstrx/fabric_manager.h"
#include "src/ocstrx/reconfig_queue.h"
#include "src/orch/incremental.h"
#include "src/orch/orchestrator.h"

namespace ihbd::serde {
class Writer;
class Reader;
}  // namespace ihbd::serde

namespace ihbd::ctrl {

struct ControlPlaneConfig {
  // Fleet shape (fat-tree DCN under the InfiniteHBD ring).
  int node_count = 1024;
  int nodes_per_tor = 4;
  int tors_per_domain = 32;
  int k = 2;                ///< OCSTrx hop reach
  int gpus_per_node = 4;    ///< r
  /// Alignment constraints pinned for the daemon (-1: max_constraints()).
  int n_constraints = -1;

  // OCS fabric per node.
  int bundles_per_node = 2;
  int trx_per_bundle = 1;

  // Reconfiguration batching.
  std::size_t reconfig_batch = 64;
  double drain_period_days = 1.0 / 86400.0;  ///< one drain tick per sim-second

  /// Retry/backoff for transiently failed reconfigurations (days).
  ocstrx::RetryPolicy retry;
  /// Deterministic session-switch fault injection (off by default).
  fault::InjectionPlan inject;

  /// Admission looks at most this many pending jobs per pass (FIFO head +
  /// bounded backfill), keeping event cost bounded under overload.
  std::size_t backfill_window = 64;

  std::uint64_t seed = 2025;  ///< switch-latency draws
};

/// Deterministic, mergeable outcome of one control-plane run (the sweep
/// accumulator unit for bench_ctrl_plane).
struct ControlPlaneResult {
  std::uint64_t events = 0;  ///< engine events executed
  std::uint64_t arrivals = 0;
  std::uint64_t starts = 0;
  std::uint64_t completions = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t unfinished = 0;  ///< pending or running at the horizon
  std::uint64_t fault_transitions = 0;
  std::uint64_t placement_churn = 0;  ///< groups removed+added by faults
  std::uint64_t reconfig_enqueued = 0;
  std::uint64_t reconfig_coalesced = 0;
  std::uint64_t reconfig_drained = 0;  ///< resolved (success/perm/dead)
  std::uint64_t reconfig_failed = 0;   ///< failed apply ATTEMPTS
  std::uint64_t reconfig_retried = 0;
  std::uint64_t reconfig_dead_lettered = 0;
  std::uint64_t reconfig_injected = 0;
  std::uint64_t reconfig_pending_end = 0;  ///< unresolved at the horizon
  std::uint64_t reconfig_batches = 0;
  std::uint64_t degraded_starts = 0;  ///< jobs started with a failed steer
  std::uint64_t peak_pending_jobs = 0;
  std::uint64_t peak_reconfig_depth = 0;

  SloHistogram job_wait_s;           ///< pending -> running, seconds
  SloHistogram job_wait_degraded_s;  ///< same, jobs that started degraded
  SloHistogram reconfig_latency_s;   ///< enqueue -> applied 1st try, seconds
  SloHistogram reconfig_latency_retried_s;  ///< applied after >= 1 retry

  /// Trial-order fold for sweeps (counter adds + histogram merges).
  void merge(const ControlPlaneResult& other);

  void save(serde::Writer& w) const;
  static ControlPlaneResult load(serde::Reader& r);
};

/// The daemon. Construct, then run() to the trace horizon. One-shot: a new
/// scenario takes a new instance (long-running *within* a run; the bench
/// restarts per trial). The plane borrows `trace` and `arrivals`: both must
/// outlive it (run_control_plane owns a copy of the arrivals for callers
/// that hand over a temporary).
class ControlPlane {
 public:
  ControlPlane(const ControlPlaneConfig& cfg, const fault::FaultTrace& trace,
               const std::vector<JobArrival>& arrivals);
  ControlPlane(const ControlPlaneConfig&, const fault::FaultTrace&,
               std::vector<JobArrival>&&) = delete;

  /// Consume every event up to trace.duration_days() and return the run's
  /// aggregate result.
  ControlPlaneResult run();

  /// Live introspection (valid during/after run()).
  const evsim::Engine& engine() const { return engine_; }
  std::size_t pending_jobs() const { return pending_.size(); }
  std::size_t running_jobs() const { return running_count_; }
  int free_groups() const { return static_cast<int>(free_list_.size()); }
  /// True while the node has >= 1 active fault interval (depth > 0) —
  /// the control plane's view of FaultTrace::faulty_at under overlapping
  /// intervals. Valid during/after run().
  bool node_faulty(int node) const {
    return node >= 0 && node < static_cast<int>(fault_depth_.size()) &&
           fault_depth_[static_cast<std::size_t>(node)] > 0;
  }

  /// Optional probe invoked by the periodic health sampler with
  /// (*this, now). Monitoring/test hook; must not mutate the plane.
  std::function<void(const ControlPlane&, double)> health_probe;

 private:
  enum class JobState { kPending, kStarting, kRunning, kDone };

  struct Job {
    const JobArrival* arrival = nullptr;  ///< into arrivals_ (borrowed)
    JobState state = JobState::kPending;
    double pending_since = 0.0;  ///< arrival or last preemption day
    std::vector<std::vector<int>> groups;  ///< owned node groups
    int outstanding_reconfigs = 0;
    /// A steer for this start attempt failed permanently or dead-lettered:
    /// the job runs on its last good placement (graceful degradation) and
    /// its wait lands in the degraded SLO split.
    bool degraded = false;
    evsim::EventId completion = 0;
  };

  Job& job_by_id(int id) {
    return jobs_[static_cast<std::size_t>(id) - first_live_job_];
  }
  void on_arrival(std::size_t index);
  void on_fault_day(std::size_t cursor);
  void on_drain();
  void try_admit();
  void start_pending_reconfigs(Job& job);
  void begin_running(int job_id);
  void complete(int job_id);
  void preempt(int job_id);
  void release_groups(Job& job, bool park);
  void apply_delta(const orch::PlacementDelta& delta);
  void add_free_group(std::vector<int> nodes);
  bool take_free_group(std::vector<int>& out);
  void remove_free_group(int first_node);
  void arm_drain();
  void enqueue_reconfig(int node, const std::string& session, int waiter_job);

  ControlPlaneConfig cfg_;
  const fault::FaultTrace& trace_;
  const std::vector<JobArrival>& arrivals_;

  dcn::FatTree fat_tree_;
  orch::FatTreeOrchestrator orch_;
  orch::IncrementalPlacement inc_;
  std::vector<ocstrx::NodeFabricManager> fleet_;
  ocstrx::ReconfigQueue queue_;
  evsim::Engine engine_;
  Rng rng_;

  /// Live window of jobs in arrival-id order: every job from the oldest
  /// unfinished one up to the latest arrival (jobs_[id - first_live_job_]).
  /// Only live jobs are ever looked up (pending, starting or running), so
  /// finished ones are retired from the front and the daemon's memory
  /// follows the backlog, not the length of the run.
  std::deque<Job> jobs_;
  std::size_t first_live_job_ = 0;  ///< arrival id of jobs_.front()
  std::deque<int> pending_;        ///< FIFO (arrival order maintained)
  std::size_t running_count_ = 0;

  /// Free groups: FIFO order (placement order at init, release/churn order
  /// after), indexed by first node for O(1) removal on fault churn. A
  /// group's first node identifies it uniquely: placement groups are
  /// disjoint. The node-indexed tables below use free_list_.end() / -1 for
  /// "none".
  std::list<std::vector<int>> free_list_;
  std::vector<std::list<std::vector<int>>::iterator> free_by_first_;

  std::vector<int> owner_of_first_;  ///< group first node -> job
  std::vector<int> waiter_of_node_;  ///< node -> starting job
  std::vector<int> fault_depth_;     ///< active fault intervals per node

  bool drain_armed_ = false;
  ControlPlaneResult result_;
};

/// Convenience: build + run.
ControlPlaneResult run_control_plane(const ControlPlaneConfig& cfg,
                                     const fault::FaultTrace& trace,
                                     std::vector<JobArrival> arrivals);

}  // namespace ihbd::ctrl
