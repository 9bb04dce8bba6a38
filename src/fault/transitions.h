// Event-driven fault-mask replay cursor (see src/topo/waste.h).
//
// FaultTrace::faulty_at(day) rebuilds the whole mask by scanning events at
// every sample; between two consecutive sample days, though, only the
// handful of nodes with a transition in that interval actually change. The
// FaultMaskCursor consumes the trace's grid-folded WordDeltaTimeline
// (per-sample-day net word-XOR groups, cached once per trace x step), so
// advancing a sample step is a few word XORs — no per-node work at all —
// and it emits {word_index, xor_bits} spans. The packed mask it exposes is
// bit-identical to faulty_at() at every grid day.
#pragma once

#include <cstddef>
#include <vector>

#include "src/fault/packed_mask.h"
#include "src/fault/trace.h"

namespace ihbd::fault {

/// Forward-only cursor over a trace's transitions, aligned to the sample
/// grid of one step.
///
/// advance_to_words() applies every transition with `transition.day <= day`
/// and reports the net effect since the previous position — deduplicated
/// and net of cancelling transitions, so a zero-length event or a same-day
/// down+up pair reports nothing. Because a node is faulty while its count
/// of active fault intervals is positive, packed_mask() equals
/// trace.packed_faulty_at(day) bit-for-bit on every grid day, including on
/// overlapping events.
///
/// Contract: the cursor is forward-only. `day` must be monotonically
/// non-decreasing across advance calls (NaN is rejected too); a smaller day
/// would skip already-applied transitions and silently misapply the
/// timeline, so it aborts via IHBD_EXPECTS instead. Rewinding means
/// constructing a fresh cursor.
class FaultMaskCursor {
 public:
  /// Binds to trace.word_delta_timeline(grid_step_days), whose groups are
  /// pre-folded per sample day — each replay sample then applies at most
  /// one group (the per-step fold is paid once per trace x step and shared
  /// by every cursor over the same trace, e.g. all cells of a grid).
  /// Contract: every advance must land on a day of
  /// trace.sample_days(grid_step_days), or past the last one; between grid
  /// points the mask would lag transitions already visible to faulty_at().
  FaultMaskCursor(const FaultTrace& trace, double grid_step_days);

  /// Advance to `day` (must be >= the previous call's day). Returns the
  /// net flips folded into per-word XOR spans: word indices strictly
  /// ascending, every xor_bits nonzero. Valid until the next advance call.
  const std::vector<WordDelta>& advance_to_words(double day);

  /// Current fault mask; equals trace.packed_faulty_at(day()) after an
  /// advance.
  const PackedMask& packed_mask() const { return packed_; }

  /// The day of the last advance (-inf before the first call).
  double day() const { return day_; }

  /// Transitions with day > day(): not yet applied. O(log E) on the
  /// sorted timeline.
  std::size_t remaining() const;

 private:
  std::shared_ptr<const std::vector<FaultTransition>> timeline_;
  std::shared_ptr<const WordDeltaTimeline> words_;
  std::size_t gnext_ = 0;            // first unapplied delta group
  PackedMask packed_;                // current mask
  std::vector<WordDelta> deltas_;    // result buffer for advance_to_words
  std::vector<std::uint64_t> word_xor_;  // scratch: per-word XOR accumulator
  std::vector<int> dirty_words_;     // scratch: words hit in current batch
  std::vector<char> word_stamp_;     // scratch: membership for dirty_words_
  double day_;
};

}  // namespace ihbd::fault
