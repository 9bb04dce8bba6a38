#include "src/fault/trace.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <tuple>

#include "src/common/contracts.h"
#include "src/common/error.h"

namespace ihbd::fault {

struct FaultTrace::TimelineCache {
  std::once_flag once;
  std::shared_ptr<const std::vector<FaultTransition>> edges;
  std::once_flag words_once;
  std::shared_ptr<const WordDeltaTimeline> words;
  // Grid-folded timelines, one per distinct sample step. Replays use a
  // handful of steps at most, so a flat list beats a map.
  std::mutex grids_mutex;
  std::vector<std::pair<double, std::shared_ptr<const WordDeltaTimeline>>>
      grids;
};

FaultTrace::FaultTrace(int node_count, double duration_days,
                       std::vector<FaultEvent> events)
    : node_count_(node_count), duration_days_(duration_days),
      events_(std::move(events)),
      timeline_cache_(std::make_shared<TimelineCache>()) {
  if (node_count <= 0) throw ConfigError("node_count must be positive");
  if (duration_days <= 0.0) throw ConfigError("duration must be positive");
  for (const auto& e : events_) {
    if (e.node < 0 || e.node >= node_count)
      throw ConfigError("fault event node out of range");
    if (e.end_day < e.start_day) throw ConfigError("fault event ends early");
  }
  // Deterministic total order (ties broken by node, then end): keeps
  // save/load round-trips and repeated runs bit-stable.
  std::sort(events_.begin(), events_.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return std::tie(a.start_day, a.node, a.end_day) <
                     std::tie(b.start_day, b.node, b.end_day);
            });
}

std::vector<bool> FaultTrace::faulty_at(double day) const {
  std::vector<bool> mask(static_cast<std::size_t>(node_count_), false);
  // events_ sorted by start_day: stop scanning once start > day.
  for (const auto& e : events_) {
    if (e.start_day > day) break;
    if (day < e.end_day) mask[static_cast<std::size_t>(e.node)] = true;
  }
  return mask;
}

PackedMask FaultTrace::packed_faulty_at(double day) const {
  PackedMask mask(node_count_);
  for (const auto& e : events_) {
    if (e.start_day > day) break;
    if (day < e.end_day) mask.set(e.node, true);
  }
  return mask;
}

int FaultTrace::faulty_count_at(double day) const {
  const auto mask = faulty_at(day);
  return static_cast<int>(std::count(mask.begin(), mask.end(), true));
}

std::vector<double> FaultTrace::sample_days(double step_days) const {
  IHBD_EXPECTS(step_days > 0.0);
  std::vector<double> days;
  // Repeated addition (not i * step) on purpose: this must reproduce the
  // serial replay loop's floating-point day sequence bit-for-bit.
  for (double day = 0.0; day < duration_days_; day += step_days)
    days.push_back(day);
  return days;
}

std::vector<FaultTransition> FaultTrace::transitions() const {
  std::vector<FaultTransition> edges;
  edges.reserve(events_.size() * 2);
  for (const auto& e : events_) {
    edges.push_back({e.start_day, e.node, /*down=*/true});
    edges.push_back({e.end_day, e.node, /*down=*/false});
  }
  // Deterministic total order. Ties within one day may be applied in any
  // order (active-interval counts are order-independent); the sort only
  // keeps repeated runs bit-stable.
  std::sort(edges.begin(), edges.end(),
            [](const FaultTransition& a, const FaultTransition& b) {
              return std::tie(a.day, a.node, a.down) <
                     std::tie(b.day, b.node, b.down);
            });
  return edges;
}

std::shared_ptr<const std::vector<FaultTransition>>
FaultTrace::transition_timeline() const {
  std::call_once(timeline_cache_->once, [&] {
    timeline_cache_->edges =
        std::make_shared<const std::vector<FaultTransition>>(transitions());
  });
  return timeline_cache_->edges;
}

std::shared_ptr<const WordDeltaTimeline> FaultTrace::word_delta_timeline()
    const {
  std::call_once(timeline_cache_->words_once, [&] {
    const auto edges = transition_timeline();
    auto out = std::make_shared<WordDeltaTimeline>();
    // One active-interval walk over the whole timeline (the same counting
    // faulty_at() implies), folding each exact-day batch
    // into the net per-word XOR of its genuine bit changes.
    std::vector<int> active(static_cast<std::size_t>(node_count_), 0);
    PackedMask current(node_count_);
    std::vector<std::uint64_t> word_xor(
        static_cast<std::size_t>(current.word_count()), 0);
    std::vector<char> word_stamp(
        static_cast<std::size_t>(current.word_count()), 0);
    std::vector<int> dirty_words;
    std::vector<int> touched;
    std::vector<char> touch_stamp(static_cast<std::size_t>(node_count_), 0);
    out->offsets.push_back(0);
    std::size_t i = 0;
    while (i < edges->size()) {
      const double day = (*edges)[i].day;
      do {
        const FaultTransition& edge = (*edges)[i++];
        const auto node = static_cast<std::size_t>(edge.node);
        active[node] += edge.down ? 1 : -1;
        if (!touch_stamp[node]) {
          touch_stamp[node] = 1;
          touched.push_back(edge.node);
        }
      } while (i < edges->size() && (*edges)[i].day == day);
      for (const int node : touched) {
        const auto n = static_cast<std::size_t>(node);
        touch_stamp[n] = 0;
        if (current.test(node) == (active[n] > 0)) continue;
        const int w = node / PackedMask::kWordBits;
        if (!word_stamp[static_cast<std::size_t>(w)]) {
          word_stamp[static_cast<std::size_t>(w)] = 1;
          word_xor[static_cast<std::size_t>(w)] = 0;
          dirty_words.push_back(w);
        }
        word_xor[static_cast<std::size_t>(w)] ^=
            std::uint64_t{1} << (node % PackedMask::kWordBits);
      }
      touched.clear();
      if (dirty_words.empty()) continue;  // all edges cancelled: omit the day
      std::sort(dirty_words.begin(), dirty_words.end());
      for (const int w : dirty_words) {
        word_stamp[static_cast<std::size_t>(w)] = 0;
        // Nonzero by construction: each node contributes its net flip at
        // most once, and distinct nodes occupy distinct bits.
        const std::uint64_t bits = word_xor[static_cast<std::size_t>(w)];
        current.apply_xor(w, bits);
        out->deltas.push_back({w, bits});
      }
      dirty_words.clear();
      out->days.push_back(day);
      out->offsets.push_back(static_cast<int>(out->deltas.size()));
    }
    timeline_cache_->words = std::move(out);
  });
  return timeline_cache_->words;
}

std::shared_ptr<const WordDeltaTimeline> FaultTrace::word_delta_timeline(
    double step_days) const {
  IHBD_EXPECTS(step_days > 0.0);
  {
    std::lock_guard<std::mutex> lock(timeline_cache_->grids_mutex);
    for (const auto& [step, grid] : timeline_cache_->grids)
      if (step == step_days) return grid;
  }
  const auto exact = word_delta_timeline();
  const std::vector<double> grid_days = sample_days(step_days);
  auto out = std::make_shared<WordDeltaTimeline>();
  out->offsets.push_back(0);
  const int words = (node_count_ + PackedMask::kWordBits - 1) /
                    PackedMask::kWordBits;
  std::vector<std::uint64_t> word_xor(static_cast<std::size_t>(words), 0);
  std::vector<char> word_stamp(static_cast<std::size_t>(words), 0);
  std::vector<int> dirty_words;
  std::size_t g = 0;
  for (const double day : grid_days) {
    // Fold every exact-day group that became visible by this sample day
    // (exact groups are net and compose by XOR, so the fold is exact).
    for (; g < exact->days.size() && exact->days[g] <= day; ++g) {
      for (int i = exact->offsets[g]; i < exact->offsets[g + 1]; ++i) {
        const WordDelta& d = exact->deltas[static_cast<std::size_t>(i)];
        const auto w = static_cast<std::size_t>(d.word);
        if (!word_stamp[w]) {
          word_stamp[w] = 1;
          word_xor[w] = 0;
          dirty_words.push_back(d.word);
        }
        word_xor[w] ^= d.xor_bits;
      }
    }
    if (dirty_words.empty()) continue;
    std::sort(dirty_words.begin(), dirty_words.end());
    bool any = false;
    for (const int w : dirty_words) {
      word_stamp[static_cast<std::size_t>(w)] = 0;
      const std::uint64_t bits = word_xor[static_cast<std::size_t>(w)];
      if (bits == 0) continue;  // down+up within one sample step cancels
      out->deltas.push_back({w, bits});
      any = true;
    }
    dirty_words.clear();
    if (!any) continue;
    out->days.push_back(day);
    out->offsets.push_back(static_cast<int>(out->deltas.size()));
  }
  // Exact groups past the last sample day keep their own days: a cursor
  // advanced beyond the grid still applies them at the exact moment.
  for (; g < exact->days.size(); ++g) {
    for (int i = exact->offsets[g]; i < exact->offsets[g + 1]; ++i)
      out->deltas.push_back(exact->deltas[static_cast<std::size_t>(i)]);
    out->days.push_back(exact->days[g]);
    out->offsets.push_back(static_cast<int>(out->deltas.size()));
  }
  std::lock_guard<std::mutex> lock(timeline_cache_->grids_mutex);
  for (const auto& [step, grid] : timeline_cache_->grids)
    if (step == step_days) return grid;  // lost a benign build race
  timeline_cache_->grids.emplace_back(step_days, out);
  return out;
}

TimeSeries FaultTrace::ratio_series(double step_days) const {
  TimeSeries ts;
  for (double day : sample_days(step_days)) {
    ts.push(day, static_cast<double>(faulty_count_at(day)) /
                     static_cast<double>(node_count_));
  }
  return ts;
}

Summary FaultTrace::ratio_summary(double step_days) const {
  return ratio_series(step_days).summarize_values();
}

double FaultTrace::mean_repair_days() const {
  if (events_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& e : events_) total += e.duration();
  return total / static_cast<double>(events_.size());
}

FaultTrace FaultTrace::split_to_half_nodes(Rng& rng,
                                           double inherit_prob) const {
  IHBD_EXPECTS(inherit_prob >= 0.0 && inherit_prob <= 1.0);
  std::vector<FaultEvent> out;
  out.reserve(events_.size());
  for (const auto& e : events_) {
    for (int half = 0; half < 2; ++half) {
      if (rng.bernoulli(inherit_prob)) {
        out.push_back(FaultEvent{e.node * 2 + half, e.start_day, e.end_day});
      }
    }
  }
  return FaultTrace(node_count_ * 2, duration_days_, std::move(out));
}

FaultTrace FaultTrace::remap_nodes(int new_node_count) const {
  if (new_node_count <= 0 || new_node_count > node_count_)
    throw ConfigError("remap_nodes: target must be in (0, node_count]");
  std::vector<FaultEvent> out;
  out.reserve(events_.size());
  for (const auto& e : events_) {
    // Linear map; events landing beyond the smaller cluster are dropped
    // proportionally (keeps the per-node fault statistics unchanged).
    if (e.node < new_node_count)
      out.push_back(e);
  }
  return FaultTrace(new_node_count, duration_days_, std::move(out));
}

std::vector<bool> sample_fault_mask(int node_count, double ratio, Rng& rng) {
  IHBD_EXPECTS(node_count > 0);
  IHBD_EXPECTS(ratio >= 0.0 && ratio <= 1.0);
  const int want = static_cast<int>(
      std::lround(ratio * static_cast<double>(node_count)));
  std::vector<int> ids(static_cast<std::size_t>(node_count));
  for (int i = 0; i < node_count; ++i) ids[static_cast<std::size_t>(i)] = i;
  rng.shuffle(ids);
  std::vector<bool> mask(static_cast<std::size_t>(node_count), false);
  for (int i = 0; i < want; ++i)
    mask[static_cast<std::size_t>(ids[static_cast<std::size_t>(i)])] = true;
  return mask;
}

std::vector<bool> sample_fault_mask_iid(int node_count, double ratio,
                                        Rng& rng) {
  IHBD_EXPECTS(node_count > 0);
  IHBD_EXPECTS(ratio >= 0.0 && ratio <= 1.0);
  std::vector<bool> mask(static_cast<std::size_t>(node_count), false);
  for (auto&& m : mask) m = rng.bernoulli(ratio);
  return mask;
}

}  // namespace ihbd::fault
