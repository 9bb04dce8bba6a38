#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/evsim/engine.h"

namespace ihbd::evsim {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&](Engine&) { order.push_back(3); });
  e.schedule_at(1.0, [&](Engine&) { order.push_back(1); });
  e.schedule_at(2.0, [&](Engine&) { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.executed(), 3u);
}

TEST(Engine, EqualTimesRunFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    e.schedule_at(1.0, [&order, i](Engine&) { order.push_back(i); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, NowAdvancesWithEvents) {
  Engine e;
  double seen = -1.0;
  e.schedule_at(2.5, [&](Engine& eng) { seen = eng.now(); });
  e.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(e.now(), 2.5);
}

TEST(Engine, ScheduleInIsRelative) {
  Engine e;
  double t2 = 0.0;
  e.schedule_at(1.0, [&](Engine& eng) {
    eng.schedule_in(0.5, [&](Engine& inner) { t2 = inner.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(t2, 1.5);
}

TEST(Engine, CascadedEvents) {
  Engine e;
  int count = 0;
  std::function<void(Engine&)> tick = [&](Engine& eng) {
    if (++count < 10) eng.schedule_in(1.0, tick);
  };
  e.schedule_at(0.0, tick);
  e.run();
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(e.now(), 9.0);
}

TEST(Engine, RunUntilStopsEarly) {
  Engine e;
  int ran = 0;
  e.schedule_at(1.0, [&](Engine&) { ++ran; });
  e.schedule_at(5.0, [&](Engine&) { ++ran; });
  e.run_until(2.0);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  e.run();
  EXPECT_EQ(ran, 2);
}

TEST(Engine, RunOnEmptyQueueIsNoop) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.run(), 0.0);
  EXPECT_EQ(e.executed(), 0u);
}

// --- run_until semantics (documented contract) ------------------------------

TEST(RunUntil, EventExactlyAtHorizonRuns) {
  Engine e;
  int ran = 0;
  e.schedule_at(2.0, [&](Engine&) { ++ran; });
  e.run_until(2.0);  // inclusive bound
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.executed(), 1u);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(RunUntil, ClockAdvancesToHorizonWithEventsStillPending) {
  Engine e;
  e.schedule_at(10.0, [](Engine&) {});
  e.run_until(4.0);
  // The pending event did not run, but now() is exactly the horizon so a
  // follow-up schedule_in is relative to it.
  EXPECT_EQ(e.executed(), 0u);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_DOUBLE_EQ(e.now(), 4.0);
  double seen = -1.0;
  e.schedule_in(1.0, [&](Engine& eng) { seen = eng.now(); });
  e.run_until(5.0);
  EXPECT_DOUBLE_EQ(seen, 5.0);
  EXPECT_EQ(e.pending(), 1u);  // the 10.0 event still waits
}

TEST(RunUntil, DrainedQueueStillLandsOnHorizon) {
  Engine e;
  e.schedule_at(1.0, [](Engine&) {});
  e.run_until(7.0);
  EXPECT_DOUBLE_EQ(e.now(), 7.0);  // not 1.0, and never beyond 7.0
}

TEST(RunUntil, HorizonBelowNowIsNoop) {
  Engine e;
  e.schedule_at(5.0, [](Engine&) {});
  e.run_until(5.0);
  e.schedule_at(8.0, [](Engine&) {});
  e.run_until(3.0);  // backwards horizon: nothing runs, clock untouched
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
  EXPECT_EQ(e.executed(), 1u);
  EXPECT_EQ(e.pending(), 1u);
}

// --- cancellable events -----------------------------------------------------

TEST(Cancel, PendingEventNeverRuns) {
  Engine e;
  int ran = 0;
  const EventId id = e.schedule_at(1.0, [&](Engine&) { ++ran; });
  e.schedule_at(2.0, [&](Engine&) { ++ran; });
  EXPECT_EQ(e.pending(), 2u);
  EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(e.pending(), 1u);  // drops immediately, before the pop
  EXPECT_EQ(e.cancelled(), 1u);
  e.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.executed(), 1u);  // cancelled events never count as executed
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Cancel, ReturnsFalseForDeadOrUnknownIds) {
  Engine e;
  const EventId id = e.schedule_at(1.0, [](Engine&) {});
  EXPECT_FALSE(e.cancel(id + 100));  // never existed
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));  // already cancelled
  const EventId fired = e.schedule_at(2.0, [](Engine&) {});
  e.run();
  EXPECT_FALSE(e.cancel(fired));  // already fired
}

TEST(Cancel, FromInsideAnotherCallback) {
  Engine e;
  int ran = 0;
  const EventId victim = e.schedule_at(2.0, [&](Engine&) { ++ran; });
  e.schedule_at(1.0, [&](Engine& eng) { EXPECT_TRUE(eng.cancel(victim)); });
  e.run();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(e.executed(), 1u);
  EXPECT_EQ(e.pending(), 0u);
}

// --- periodic timers --------------------------------------------------------

TEST(Periodic, FiresAtFixedCadenceUntilCancelled) {
  Engine e;
  std::vector<double> at;
  const EventId id =
      e.schedule_every(1.0, 2.0, [&](Engine& eng) { at.push_back(eng.now()); });
  e.run_until(7.0);
  EXPECT_EQ(at, (std::vector<double>{1.0, 3.0, 5.0, 7.0}));
  EXPECT_EQ(e.executed(), 4u);
  EXPECT_EQ(e.pending(), 1u);  // the next occurrence counts exactly once
  EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(e.pending(), 0u);
  e.run();
  EXPECT_EQ(e.executed(), 4u);
}

TEST(Periodic, SelfCancelStopsTheTimer) {
  Engine e;
  int fired = 0;
  EventId id = 0;
  id = e.schedule_every(1.0, 1.0, [&](Engine& eng) {
    if (++fired == 3) EXPECT_TRUE(eng.cancel(id));
  });
  e.run();  // would never drain if the timer kept re-arming
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(e.executed(), 3u);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.cancelled(), 1u);
}

TEST(Periodic, InterleavesFifoWithOneShots) {
  Engine e;
  std::vector<int> order;
  e.schedule_every(1.0, 1.0, [&](Engine& eng) {
    order.push_back(100 + static_cast<int>(eng.now()));
    if (eng.now() >= 3.0) eng.cancel(1);  // first id handed out
  });
  e.schedule_at(2.0, [&](Engine&) { order.push_back(2); });
  // Same-time tie: the periodic's occurrence at 2.0 was re-armed at 1.0,
  // AFTER the one-shot was scheduled, so the one-shot runs first.
  e.run();
  EXPECT_EQ(order, (std::vector<int>{101, 2, 102, 103}));
}

// --- slot reuse ---------------------------------------------------------------

TEST(SlotReuse, StaleIdCannotCancelTheEventReusingItsSlot) {
  Engine e;
  int ran = 0;
  const EventId old = e.schedule_at(1.0, [&](Engine&) { ++ran; });
  ASSERT_TRUE(e.cancel(old));
  e.run_until(1.0);  // the cancelled key surfaces: its slot is free again
  const EventId fresh = e.schedule_at(2.0, [&](Engine&) { ++ran; });
  EXPECT_NE(fresh, old);
  EXPECT_FALSE(e.cancel(old));  // same slot, older generation
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(ran, 1);

  // Same for a slot freed by firing: a fired id stays dead.
  const EventId fired = e.schedule_at(3.0, [](Engine&) {});
  e.run_until(3.0);
  const EventId next = e.schedule_at(4.0, [&](Engine&) { ++ran; });
  EXPECT_NE(next, fired);
  EXPECT_FALSE(e.cancel(fired));
  e.run();
  EXPECT_EQ(ran, 2);
}

TEST(SlotReuse, IdsAreNeverReused) {
  Engine e;
  std::vector<EventId> seen;
  for (int i = 0; i < 200; ++i) {
    const EventId a = e.schedule_in(0.0, [](Engine&) {});
    const EventId b = e.schedule_in(1.0, [](Engine&) {});
    seen.push_back(a);
    seen.push_back(b);
    if (i % 2 == 0) EXPECT_TRUE(e.cancel(b));
    e.run_until(e.now() + 1.0);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
  EXPECT_EQ(std::count(seen.begin(), seen.end(), EventId{0}), 0);
}

TEST(SlotReuse, OneShotCancellingItselfFromItsCallbackIsANoop) {
  // A one-shot is dead once it fires: cancelling its own id from inside
  // the callback returns false, even after the callback scheduled an event
  // that may have reused the slot.
  Engine e;
  int child_ran = 0;
  EventId self = 0;
  EventId child = 0;
  self = e.schedule_at(1.0, [&](Engine& eng) {
    child = eng.schedule_in(1.0, [&](Engine&) { ++child_ran; });
    EXPECT_FALSE(eng.cancel(self));
    EXPECT_EQ(eng.pending(), 1u);
  });
  e.run();
  EXPECT_NE(child, self);
  EXPECT_EQ(child_ran, 1);
  EXPECT_EQ(e.executed(), 2u);
  EXPECT_EQ(e.cancelled(), 0u);
}

TEST(SlotReuse, PeriodicCancellingItselfKeepsCountsExact) {
  Engine e;
  int fired = 0;
  EventId self = 0;
  self = e.schedule_every(1.0, 1.0, [&](Engine& eng) {
    ++fired;
    const std::size_t before = eng.pending();
    if (fired == 2) {
      EXPECT_TRUE(eng.cancel(self));
      EXPECT_FALSE(eng.cancel(self));
      // The running occurrence was not pending, so neither count moves
      // twice: pending() is unchanged, cancelled() counts the timer once.
      EXPECT_EQ(eng.pending(), before);
      EXPECT_EQ(eng.cancelled(), 1u);
      // The slot is reused only after the callback returns.
      eng.schedule_in(0.5, [](Engine&) {});
    }
  });
  e.schedule_at(10.0, [](Engine&) {});
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.executed(), 4u);  // two firings, the 0.5 child, the 10.0 event
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.cancelled(), 1u);
  EXPECT_FALSE(e.cancel(self));
}

TEST(SlotReuse, PendingAndCancelledStayExactUnderReuse) {
  Engine e;
  std::vector<EventId> live;
  std::uint64_t cancels = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 8; ++i)
      live.push_back(e.schedule_in(0.5 + i, [](Engine&) {}));
    // Cancel every other one; the survivors stay pending.
    for (std::size_t i = 0; i < live.size(); i += 2) {
      if (e.cancel(live[i])) ++cancels;
    }
    std::vector<EventId> kept;
    for (std::size_t i = 1; i < live.size(); i += 2) kept.push_back(live[i]);
    live = kept;
    EXPECT_EQ(e.pending(), live.size());
    EXPECT_EQ(e.cancelled(), cancels);
    // Fire what is due; fired ids leave the live set.
    e.run_until(e.now() + 2.0);
    live.clear();
    EXPECT_EQ(e.cancelled(), cancels);
    for (int i = 0; i < 4; ++i) live.push_back(e.schedule_in(0.0, [](Engine&) {}));
    e.run_until(e.now());
    live.clear();
    e.run();
    EXPECT_EQ(e.pending(), 0u);
  }
}

// --- differential test against a reference model -----------------------------

/// A deliberately simple engine: live events sit in a map, and the next one
/// is found by a linear scan over (time, sequence).
class ReferenceEngine {
 public:
  double now() const { return now_; }
  std::uint64_t executed() const { return executed_; }
  std::uint64_t cancelled() const { return cancelled_; }
  std::size_t pending() const {
    std::size_t n = 0;
    for (const auto& [label, ev] : events_) n += ev.live && !ev.firing;
    return n;
  }

  void schedule(int label, double delay, double period,
                std::function<void()> fn) {
    events_[label] =
        Event{now_ + delay, seq_++, period, true, false, std::move(fn)};
  }
  bool cancel(int label) {
    const auto it = events_.find(label);
    if (it == events_.end() || !it->second.live) return false;
    it->second.live = false;
    if (!it->second.firing) events_.erase(it);
    ++cancelled_;
    return true;
  }
  void run_until(double until) {
    for (;;) {
      auto next = events_.end();
      for (auto it = events_.begin(); it != events_.end(); ++it) {
        const Event& ev = it->second;
        if (ev.at > until) continue;
        if (next == events_.end() || ev.at < next->second.at ||
            (ev.at == next->second.at && ev.seq < next->second.seq))
          next = it;
      }
      if (next == events_.end()) break;
      const int label = next->first;
      now_ = next->second.at;
      ++executed_;
      const std::function<void()> fn = next->second.fn;
      if (next->second.period == 0.0) {
        events_.erase(next);  // dead before its callback runs
        fn();
        continue;
      }
      next->second.firing = true;
      fn();
      Event& ev = events_.at(label);
      ev.firing = false;
      if (!ev.live) {
        events_.erase(label);
        continue;
      }
      ev.at = now_ + ev.period;
      ev.seq = seq_++;
    }
    if (now_ < until && until < std::numeric_limits<double>::infinity())
      now_ = until;
  }

 private:
  struct Event {
    double at;
    std::uint64_t seq;
    double period;
    bool live;
    bool firing;
    std::function<void()> fn;
  };
  std::map<int, Event> events_;  ///< live events and the one firing
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
};

/// Engine behind the reference model's label-based interface.
struct EngineSide {
  Engine engine;
  std::vector<EventId> ids;  ///< label -> id

  double now() const { return engine.now(); }
  std::uint64_t executed() const { return engine.executed(); }
  std::uint64_t cancelled() const { return engine.cancelled(); }
  std::size_t pending() const { return engine.pending(); }
  void schedule(int label, double delay, double period,
                std::function<void()> fn) {
    ASSERT_EQ(static_cast<std::size_t>(label), ids.size());
    EventFn cb = [fn = std::move(fn)](Engine&) { fn(); };
    ids.push_back(period > 0.0 ? engine.schedule_every(delay, period, cb)
                               : engine.schedule_in(delay, cb));
  }
  bool cancel(int label) {
    return engine.cancel(ids[static_cast<std::size_t>(label)]);
  }
  void run_until(double until) { engine.run_until(until); }
};

/// Runs one op stream against a side and logs what it observes. A firing
/// event follows a script that is a pure function of its label and how
/// often it has fired, so both sides run the same script.
template <class Side>
struct Driver {
  Side side;
  std::vector<std::pair<int, double>> fired;  ///< (label, time)
  std::vector<bool> cancel_results;
  std::vector<int> fire_count;
  std::vector<bool> periodic;

  int schedule(double delay, double period) {
    const int label = static_cast<int>(fire_count.size());
    fire_count.push_back(0);
    periodic.push_back(period > 0.0);
    side.schedule(label, delay, period, [this, label] { fire(label); });
    return label;
  }
  void cancel(int label) { cancel_results.push_back(side.cancel(label)); }
  void fire(int label) {
    const auto l = static_cast<std::size_t>(label);
    fired.emplace_back(label, side.now());
    const int nth = ++fire_count[l];
    if (label % 6 == 1 && label >= 5) cancel(label - 5);  // maybe stale
    const bool self = periodic[l] ? nth >= 2 + label % 5 : label % 9 == 2;
    if (self) cancel(label);  // one-shots: already dead, returns false
    if (label % 4 == 0 && nth == 1)
      schedule(0.25 * ((label * 37) % 5), 0.0);  // delay 0: a same-time tie
  }
};

TEST(Differential, MatchesReferenceOverSeededScheduleCancelRunSteps) {
  constexpr int kSteps = 12000;
  Rng rng(20250611);
  Driver<EngineSide> eng;
  Driver<ReferenceEngine> ref;
  const auto agree = [&](int step) {
    ASSERT_EQ(eng.side.now(), ref.side.now()) << "step " << step;
    ASSERT_EQ(eng.side.executed(), ref.side.executed()) << "step " << step;
    ASSERT_EQ(eng.side.pending(), ref.side.pending()) << "step " << step;
    ASSERT_EQ(eng.side.cancelled(), ref.side.cancelled()) << "step " << step;
    ASSERT_EQ(eng.fired, ref.fired) << "step " << step;
    ASSERT_EQ(eng.cancel_results, ref.cancel_results) << "step " << step;
  };
  std::uint64_t runs = 0, cancels = 0, bogus = 0;
  for (int step = 0; step < kSteps; ++step) {
    const double u = rng.uniform();
    const auto labels = static_cast<std::uint64_t>(eng.fire_count.size());
    if (u < 0.42 || labels == 0) {
      const double delay = 0.25 * static_cast<double>(rng.uniform_index(40));
      eng.schedule(delay, 0.0);
      ref.schedule(delay, 0.0);
    } else if (u < 0.47) {
      const double first = 0.25 * static_cast<double>(rng.uniform_index(20));
      const double period =
          0.25 * static_cast<double>(1 + rng.uniform_index(12));
      eng.schedule(first, period);
      ref.schedule(first, period);
    } else if (u < 0.72) {
      const int label = static_cast<int>(rng.uniform_index(labels));
      eng.cancel(label);
      ref.cancel(label);
      ++cancels;
    } else if (u < 0.77) {
      // Ids never handed out: a far generation of a used slot, a slot
      // beyond the table, and 0.
      const EventId id = eng.side.ids[rng.uniform_index(labels)];
      EXPECT_FALSE(eng.side.engine.cancel(id ^ (EventId{1} << 62)));
      EXPECT_FALSE(eng.side.engine.cancel((id & ~EventId{0xffffffff}) |
                                          EventId{0xfffffff0}));
      EXPECT_FALSE(eng.side.engine.cancel(0));
      ++bogus;
    } else {
      const double now = eng.side.now();
      const double until =
          rng.uniform() < 0.1
              ? now - 1.0  // backwards: a no-op
              : now + 0.25 * static_cast<double>(rng.uniform_index(16));
      eng.side.run_until(until);
      ref.side.run_until(until);
      ++runs;
    }
    agree(step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Cancel everything still live, then drain both.
  for (int label = 0; label < static_cast<int>(eng.fire_count.size());
       ++label) {
    eng.cancel(label);
    ref.cancel(label);
  }
  eng.side.run_until(std::numeric_limits<double>::infinity());
  ref.side.run_until(std::numeric_limits<double>::infinity());
  agree(kSteps);
  EXPECT_EQ(eng.side.pending(), 0u);
  // The stream exercised what it is meant to.
  EXPECT_GT(runs, 2000u);
  EXPECT_GT(cancels, 2000u);
  EXPECT_GT(bogus, 300u);
  EXPECT_GT(eng.side.executed(), 5000u);
  EXPECT_GT(eng.side.cancelled(), 500u);
}

}  // namespace
}  // namespace ihbd::evsim
