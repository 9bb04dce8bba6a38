// Batched OCS reconfiguration queue (control-plane side of §5.2 / G.1).
//
// The always-on control plane does not steer bundles synchronously: every
// placement change (job start, fault re-orchestration, repair) enqueues a
// per-node reconfiguration request — "apply preloaded session S on node n"
// — and a drain event applies a FIFO batch against the node fabric
// managers. Three properties matter at fleet scale:
//
//   * COALESCING: while a request for node n is still queued (ready or
//     backing off), a newer request for n replaces its target session in
//     place. The node switches once, to the latest target, but the request
//     keeps its original queue position and enqueue time — whoever started
//     waiting first has been waiting since then, and that wait is what the
//     ctrl.reconfig_latency histogram must see. Retargeting a backing-off
//     request resets its attempt budget (it is a new intent) but keeps its
//     backoff slot: the node's hardware is still the one that just failed.
//   * BATCHING: drain_batch() pops at most `max_batch` requests per call,
//     modelling a fabric-manager RPC fan-out budget per drain tick; the
//     control plane re-arms drain events while the queue stays non-empty.
//   * RETRY WITH BACKOFF: a transiently failed attempt (failed bundle
//     hardware, or an injected fault from fault::InjectionPlan) re-queues
//     the request with capped exponential backoff; after
//     RetryPolicy::max_attempts the request moves to a dead-letter list
//     for operator escalation. Unknown sessions and out-of-range nodes are
//     PERMANENT failures: retrying cannot fix a request that was wrong, so
//     they resolve (as failed) on the first attempt.
//
// The queue itself is pure bookkeeping (deterministic, no engine or obs
// dependency); src/ctrl owns the drain cadence and the metrics.
//
// Storage is flat: requests live in a recycled entry pool, a dense
// node-indexed slot table finds a node's queued request, the ready FIFO
// holds entry indices, and the backoff set is a binary heap keyed on
// (deadline, insertion sequence) — the sequence keeps equal deadlines in
// the order they failed. Only node ids in [0, kMaxSlotNodes) index the
// slot table; any other id is queued without a slot (it never coalesces)
// and fails permanently at drain unless the fleet really holds it.
//
// Session names are interned: enqueue() maps each distinct name to a small
// per-queue SessionId, so requests, outcomes and dead letters carry an
// integer (session_name() reads it back). Each drained attempt looks the
// name up once in its node's fabric manager (find_session), and applies
// the session it found.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/fault/injection.h"
#include "src/ocstrx/fabric_manager.h"

namespace ihbd::ocstrx {

/// A session name interned by one ReconfigQueue (see session_name()).
using SessionId = std::uint32_t;

/// One queued "apply session on node" request.
struct ReconfigRequest {
  int node = 0;
  SessionId session = 0;     ///< ReconfigQueue::session_name() reads it
  double enqueued_at = 0.0;  ///< caller's clock (the ctrl plane uses days)
  int attempts = 0;          ///< apply attempts consumed (incl. current)
  double not_before = 0.0;   ///< earliest next attempt (retry backoff)
};

/// Capped exponential backoff for transiently failed reconfigurations.
/// Times are in the caller's clock units; the defaults assume DAYS (the
/// ctrl plane's unit) and spell 2 s .. 64 s.
struct RetryPolicy {
  int max_attempts = 6;  ///< total attempts before dead-lettering
  double base_backoff = 2.0 / 86400.0;   ///< delay after the 1st failure
  double backoff_factor = 2.0;           ///< growth per further failure
  double max_backoff = 64.0 / 86400.0;   ///< backoff cap

  /// Backoff after `failed_attempts` consecutive failures (>= 1):
  /// min(base * factor^(failed_attempts-1), max).
  double backoff_for(int failed_attempts) const;
};

/// Outcome of one drained attempt. Exactly one of these holds per attempt;
/// an attempt is RESOLVED (success, permanent failure, or dead-letter)
/// unless `will_retry` is set, in which case the request is still queued
/// and a later drain produces its next outcome.
struct ReconfigOutcome {
  ReconfigRequest request;  ///< attempts = attempts consumed so far
  double drained_at = 0.0;
  /// Node-level hardware switch latency in seconds (preloaded fast path),
  /// or nullopt when the attempt failed.
  std::optional<double> switch_latency_s;
  bool injected = false;       ///< failure came from the InjectionPlan
  bool permanent = false;      ///< unknown session / node out of range
  bool will_retry = false;     ///< re-queued with backoff; NOT resolved
  bool dead_lettered = false;  ///< gave up after max_attempts

  bool ok() const { return switch_latency_s.has_value(); }
  bool resolved() const { return !will_retry; }
};

/// FIFO reconfiguration queue with per-node coalescing, batched drains and
/// capped-exponential retry of transient failures.
class ReconfigQueue {
 public:
  explicit ReconfigQueue(std::size_t max_batch = 64, RetryPolicy retry = {},
                         fault::InjectionPlan inject = {})
      : max_batch_(max_batch), policy_(retry), inject_(inject) {}

  /// Queue (or coalesce) a request for `node`. Returns true when a new
  /// entry was created, false when an in-queue request was coalesced.
  bool enqueue(int node, const std::string& session, double now);

  /// The name a request's SessionId stands for (ids come from this
  /// queue's enqueue() calls, first name 0, in order of first use).
  const std::string& session_name(SessionId id) const {
    return sessions_.at(id);
  }

  /// Requests not yet resolved: ready to drain plus backing off.
  std::size_t pending() const { return ready_.size() + retry_.size(); }
  bool empty() const { return ready_.empty() && retry_.empty(); }
  std::size_t ready() const { return ready_.size(); }
  std::size_t retrying() const { return retry_.size(); }
  std::size_t max_batch() const { return max_batch_; }
  const RetryPolicy& policy() const { return policy_; }

  /// Earliest backoff deadline among backing-off requests.
  std::optional<double> next_retry_at() const;

  /// Lifetime counters (monotonic). `drained` counts RESOLVED requests
  /// (success, permanent failure, dead-letter); `failed` counts failed
  /// apply attempts (including ones that were later retried to success);
  /// `retried` counts re-queues; `injected` counts InjectionPlan hits.
  std::uint64_t enqueued() const { return enqueued_; }
  std::uint64_t coalesced() const { return coalesced_; }
  std::uint64_t drained() const { return drained_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t retried() const { return retried_; }
  std::uint64_t dead_lettered() const { return dead_lettered_; }
  std::uint64_t injected() const { return injected_; }

  /// Requests that exhausted their attempt budget, in give-up order.
  const std::vector<ReconfigRequest>& dead_letters() const { return dead_; }

  /// Pop up to max_batch() due requests in FIFO order (backed-off requests
  /// whose deadline has passed rejoin the FIFO first, in deadline order)
  /// and apply each to its node's fabric manager (preloaded fast path).
  /// `fleet` is indexed by node id. One outcome per attempt, in drain
  /// order. The returned storage is reused: it stays valid until the next
  /// drain_batch() call.
  const std::vector<ReconfigOutcome>& drain_batch(
      std::vector<NodeFabricManager>& fleet, double now, Rng& rng);

 private:
  /// Node ids the slot table may index. Far above any fleet this model
  /// builds, and small enough that a table covering it stays a few MiB.
  static constexpr int kMaxSlotNodes = 1 << 20;
  static constexpr std::uint32_t kNoEntry = UINT32_MAX;

  /// One queued request (a node has at most one).
  struct Entry {
    ReconfigRequest request;
    bool in_retry = false;
  };
  /// Backoff-heap key: earliest deadline first, then failure order.
  struct RetryKey {
    double not_before;
    std::uint64_t seq;
    std::uint32_t entry;
    bool operator>(const RetryKey& o) const {
      return not_before != o.not_before ? not_before > o.not_before
                                        : seq > o.seq;
    }
  };

  /// The node's slot, or nullptr for ids outside [0, kMaxSlotNodes).
  /// Grows the table on demand (enqueue only).
  std::uint32_t* slot_for(int node);
  void release(std::uint32_t entry);
  SessionId intern(const std::string& session);

  std::size_t max_batch_;
  RetryPolicy policy_;
  fault::InjectionPlan inject_;
  std::vector<Entry> entries_;           ///< request pool
  std::vector<std::uint32_t> free_;      ///< recycled pool indices
  std::vector<std::uint32_t> slot_;      ///< node -> entry (kNoEntry: none)
  std::deque<std::uint32_t> ready_;      ///< FIFO, due now
  std::priority_queue<RetryKey, std::vector<RetryKey>, std::greater<>>
      retry_;                            ///< backing off
  std::uint64_t retry_seq_ = 0;
  std::vector<ReconfigOutcome> out_;     ///< drain_batch() result storage
  std::vector<ReconfigRequest> dead_;
  std::vector<std::string> sessions_;    ///< SessionId -> name
  std::uint64_t inject_seq_ = 0;  ///< per-attempt injection sequence
  std::uint64_t enqueued_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t drained_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t retried_ = 0;
  std::uint64_t dead_lettered_ = 0;
  std::uint64_t injected_ = 0;
};

}  // namespace ihbd::ocstrx
