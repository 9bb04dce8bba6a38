#include "src/ocstrx/reconfig_queue.h"

#include <algorithm>
#include <cmath>

namespace ihbd::ocstrx {

double RetryPolicy::backoff_for(int failed_attempts) const {
  double b = base_backoff;
  for (int i = 1; i < failed_attempts && b < max_backoff; ++i)
    b *= backoff_factor;
  return std::min(b, max_backoff);
}

std::uint32_t* ReconfigQueue::slot_for(int node) {
  if (node < 0 || node >= kMaxSlotNodes) return nullptr;
  const auto n = static_cast<std::size_t>(node);
  if (n >= slot_.size()) slot_.resize(n + 1, kNoEntry);
  return &slot_[n];
}

void ReconfigQueue::release(std::uint32_t entry) {
  // An addressable node's only entry is this one; enqueue sized its slot.
  const int node = entries_[entry].request.node;
  if (node >= 0 && node < kMaxSlotNodes)
    slot_[static_cast<std::size_t>(node)] = kNoEntry;
  free_.push_back(entry);
}

SessionId ReconfigQueue::intern(const std::string& session) {
  // A queue sees a handful of names: scan them.
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (sessions_[i] == session) return static_cast<SessionId>(i);
  }
  sessions_.push_back(session);
  return static_cast<SessionId>(sessions_.size() - 1);
}

bool ReconfigQueue::enqueue(int node, const std::string& session, double now) {
  const SessionId id = intern(session);
  std::uint32_t* slot = slot_for(node);
  if (slot != nullptr && *slot != kNoEntry) {
    // Coalesce: retarget the queued request, keep its position and its
    // original enqueue time (the oldest waiter defines the wait). A
    // backing-off request also gets a fresh attempt budget — the intent is
    // new even though the node's backoff slot is not.
    Entry& e = entries_[*slot];
    e.request.session = id;
    if (e.in_retry) e.request.attempts = 0;
    ++coalesced_;
    return false;
  }
  std::uint32_t entry;
  if (free_.empty()) {
    entry = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  } else {
    entry = free_.back();
    free_.pop_back();
  }
  Entry& e = entries_[entry];
  e.request.node = node;
  e.request.session = id;
  e.request.enqueued_at = now;
  e.request.attempts = 0;
  e.request.not_before = now;
  e.in_retry = false;
  ready_.push_back(entry);
  if (slot != nullptr) *slot = entry;
  ++enqueued_;
  return true;
}

std::optional<double> ReconfigQueue::next_retry_at() const {
  if (retry_.empty()) return std::nullopt;
  return retry_.top().not_before;
}

const std::vector<ReconfigOutcome>& ReconfigQueue::drain_batch(
    std::vector<NodeFabricManager>& fleet, double now, Rng& rng) {
  // Due retries rejoin the FIFO tail in deadline order before the batch is
  // cut, so a recovered request competes fairly with fresh arrivals.
  while (!retry_.empty() && retry_.top().not_before <= now) {
    const std::uint32_t entry = retry_.top().entry;
    retry_.pop();
    entries_[entry].in_retry = false;
    ready_.push_back(entry);
  }

  out_.clear();
  while (!ready_.empty() && out_.size() < max_batch_) {
    const std::uint32_t entry = ready_.front();
    ready_.pop_front();
    ReconfigRequest& req = entries_[entry].request;
    ++req.attempts;
    ReconfigOutcome& oc = out_.emplace_back();
    oc.request = req;
    oc.drained_at = now;

    const bool in_range =
        req.node >= 0 && req.node < static_cast<int>(fleet.size());
    auto* fm = in_range ? &fleet[static_cast<std::size_t>(req.node)] : nullptr;
    const int session =
        fm == nullptr ? -1 : fm->find_session(sessions_[req.session]);
    if (session < 0) {
      // A malformed request stays malformed: fail it permanently instead
      // of burning the retry budget.
      oc.permanent = true;
      ++failed_;
      ++drained_;
      release(entry);
      continue;
    }
    if (inject_.should_fail(req.node, inject_seq_++)) {
      oc.injected = true;
      ++injected_;
    } else {
      oc.switch_latency_s = fm->apply_preloaded(session, rng);
    }
    if (oc.ok()) {
      ++drained_;
      release(entry);
      continue;
    }
    ++failed_;
    if (req.attempts >= policy_.max_attempts) {
      oc.dead_lettered = true;
      dead_.push_back(req);
      ++dead_lettered_;
      ++drained_;
      release(entry);
      continue;
    }
    // Back off in place: the entry (and the node's slot) stays live.
    oc.will_retry = true;
    req.not_before = now + policy_.backoff_for(req.attempts);
    entries_[entry].in_retry = true;
    retry_.push(RetryKey{req.not_before, retry_seq_++, entry});
    ++retried_;
  }
  return out_;
}

}  // namespace ihbd::ocstrx
