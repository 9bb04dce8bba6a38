#include "src/evsim/engine.h"

#include <limits>

#include "src/common/contracts.h"

namespace ihbd::evsim {

namespace {

// An id is (generation << 32) | (slot + 1): the low half is never 0, so
// neither is an id, and the first id handed out is 1.
constexpr std::uint32_t kMaxGen = std::numeric_limits<std::uint32_t>::max();

EventId make_id(std::uint32_t gen, std::uint32_t slot) {
  return (static_cast<EventId>(gen) << 32) | (static_cast<EventId>(slot) + 1);
}

}  // namespace

EventId Engine::arm(SimTime at, SimTime period, EventFn fn) {
  std::uint32_t slot;
  if (free_.empty()) {
    IHBD_EXPECTS(slots_.size() < kMaxGen);
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.period = period;
  s.state = SlotState::kQueued;
  heap_.push(Key{at, seq_++, slot});
  ++pending_;
  return make_id(s.gen, slot);
}

EventId Engine::schedule_at(SimTime at, EventFn fn) {
  IHBD_EXPECTS(at >= now_);
  return arm(at, 0.0, std::move(fn));
}

EventId Engine::schedule_in(SimTime delay, EventFn fn) {
  IHBD_EXPECTS(delay >= 0.0);
  return schedule_at(now_ + delay, std::move(fn));
}

EventId Engine::schedule_every(SimTime first_delay, SimTime period,
                               EventFn fn) {
  IHBD_EXPECTS(first_delay >= 0.0);
  IHBD_EXPECTS(period > 0.0);
  return arm(now_ + first_delay, period, std::move(fn));
}

void Engine::kill(std::uint32_t slot) { ++slots_[slot].gen; }

void Engine::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  s.state = SlotState::kFree;
  if (s.gen != kMaxGen) free_.push_back(slot);  // else retired: ids stay unique
}

bool Engine::cancel(EventId id) {
  const auto low = static_cast<std::uint32_t>(id);
  if (low == 0 || low > slots_.size()) return false;
  const std::uint32_t slot = low - 1;
  Slot& s = slots_[slot];
  if (s.gen != static_cast<std::uint32_t>(id >> 32)) return false;
  if (s.state == SlotState::kQueued) {
    // Its heap key frees the slot when it surfaces.
    s.state = SlotState::kCancelled;
    s.fn = nullptr;
    --pending_;
  } else if (s.state == SlotState::kFiring) {
    // A periodic timer cancelling itself: run_until frees the slot once
    // the callback returns instead of re-arming it.
    s.state = SlotState::kCancelled;
  } else {
    return false;
  }
  kill(slot);
  ++cancelled_;
  return true;
}

SimTime Engine::run() {
  return run_until(std::numeric_limits<double>::infinity());
}

SimTime Engine::run_until(SimTime until) {
  while (!heap_.empty() && heap_.top().at <= until) {
    const Key key = heap_.top();
    heap_.pop();
    Slot& s = slots_[key.slot];
    if (s.state == SlotState::kCancelled) {
      release(key.slot);  // cancelled while queued: drop un-executed
      continue;
    }
    --pending_;
    now_ = key.at;
    ++executed_;
    // The callback runs from a local: it may schedule events, which can
    // grow the slot table and move every Slot.
    EventFn fn = std::move(s.fn);
    if (s.period == 0.0) {
      kill(key.slot);
      release(key.slot);
      fn(*this);
      continue;
    }
    s.state = SlotState::kFiring;
    fn(*this);
    Slot& t = slots_[key.slot];
    if (t.state == SlotState::kFiring) {
      // Re-arm under the same id.
      t.fn = std::move(fn);
      t.state = SlotState::kQueued;
      heap_.push(Key{now_ + t.period, seq_++, key.slot});
      ++pending_;
    } else {
      release(key.slot);  // cancelled from inside its own callback
    }
  }
  if (now_ < until && until < std::numeric_limits<double>::infinity())
    now_ = until;
  return now_;
}

}  // namespace ihbd::evsim
