// Discrete-event simulation engine.
//
// A minimal priority-queue scheduler over simulated seconds. Used by the
// collective-communication simulator (§5.2 reproduction), by the OCSTrx
// reconfiguration state machine to model the 60-80 us switching latency,
// and by the src/ctrl control-plane daemon as its event loop (job
// arrivals/departures, fault transitions, reconfig batch drains).
//
// Storage is two flat parts. The binary heap holds plain (time, sequence,
// slot) keys, so sifting moves 24-byte values and never a callback. The
// slot table holds each scheduled event's callback, its period and a
// generation; an EventId names (generation, slot). cancel() bumps the
// generation, which kills the id in O(1); the dead slot is freed, and may
// be reused under the new generation, when its heap key surfaces. A slot
// whose generation would wrap is retired instead, so ids are never reused.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace ihbd::evsim {

using SimTime = double;  ///< simulated seconds

/// Handle to a scheduled event or periodic timer, usable with cancel().
/// Ids are never reused within one Engine, and 0 is never an id.
using EventId = std::uint64_t;

/// Event callback; runs at its scheduled time with the engine available for
/// scheduling follow-up events.
class Engine;
using EventFn = std::function<void(Engine&)>;

/// Priority-queue discrete-event engine. Events at equal times run in
/// scheduling (FIFO) order, which keeps simulations deterministic.
class Engine {
 public:
  Engine() = default;

  /// Current simulated time (seconds). 0 before the first event runs.
  SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (>= now()). The returned id
  /// stays valid until the event fires or is cancelled.
  EventId schedule_at(SimTime at, EventFn fn);

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  EventId schedule_in(SimTime delay, EventFn fn);

  /// Schedule `fn` to run every `period` seconds (period > 0), first at
  /// now() + first_delay (first_delay >= 0), then at fixed period
  /// increments. The id stays valid across firings; the timer runs until
  /// cancelled (including from inside its own callback).
  EventId schedule_every(SimTime first_delay, SimTime period, EventFn fn);

  /// Cancel a pending event or an active periodic timer. Returns true if
  /// the id was live (the event will not fire again); false if it already
  /// fired, was already cancelled, or never existed. Safe to call from
  /// inside event callbacks, including the event's own.
  bool cancel(EventId id);

  /// Run until the event queue drains (or, for run_until, events at times
  /// <= `until` are exhausted). Returns the final now().
  ///
  /// run_until semantics, precisely:
  ///   * events scheduled exactly AT `until` do run (inclusive bound);
  ///   * when events remain pending beyond `until`, the engine's clock is
  ///     still advanced to exactly `until` (final now() == until), so a
  ///     subsequent schedule_in() is relative to the horizon, not to the
  ///     last executed event;
  ///   * when the queue drains before `until`, now() is likewise left at
  ///     `until`, never beyond it;
  ///   * run_until never runs backwards: a horizon below now() leaves the
  ///     clock untouched and executes nothing.
  SimTime run();
  SimTime run_until(SimTime until);

  /// Number of events executed so far. Cancelled events never count;
  /// each firing of a periodic timer counts once.
  std::uint64_t executed() const { return executed_; }
  /// Number of events still pending: cancelled events are excluded at
  /// once, an active periodic timer counts exactly once (its next
  /// occurrence), and the event whose callback is running does not count.
  std::size_t pending() const { return pending_; }
  /// Number of events cancelled so far (periodic timers count once).
  std::uint64_t cancelled() const { return cancelled_; }

 private:
  /// Heap key: earliest time first, then scheduling order (`seq` is fresh
  /// per push, so a re-armed periodic timer queues behind earlier ones).
  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  enum class SlotState : std::uint8_t {
    kFree,       ///< on the free list, no heap key
    kQueued,     ///< live, exactly one heap key
    kFiring,     ///< periodic timer inside its callback, no heap key
    kCancelled,  ///< dead, its heap key has not surfaced yet
  };
  struct Slot {
    EventFn fn;
    SimTime period = 0.0;     ///< 0: one-shot
    std::uint32_t gen = 0;    ///< generation of the id this slot answers to
    SlotState state = SlotState::kFree;
  };

  EventId arm(SimTime at, SimTime period, EventFn fn);
  /// Kill the slot's current id: no later id of this slot equals it.
  void kill(std::uint32_t slot);
  /// Return a dead slot to the free list (or retire it for good).
  void release(std::uint32_t slot);

  std::priority_queue<Key, std::vector<Key>, Later> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< reusable slots, most recent last
  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t pending_ = 0;
};

}  // namespace ihbd::evsim
