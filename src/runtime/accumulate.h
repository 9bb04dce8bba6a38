// Mergeable running statistics, the reduction primitive shared by the sweep
// engine (src/runtime/sweep.h) and the trace replay (src/topo/waste.h):
// count/mean/M2 (Welford) plus min/max, optionally retaining the raw
// samples so Summary percentiles are available. merge() is associative up
// to floating-point rounding in the moments and exact in count/min/max/
// samples, enabling tree reductions over partial results.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "src/common/stats.h"

namespace ihbd::serde {
class Writer;
class Reader;
}  // namespace ihbd::serde

namespace ihbd::runtime {

// Sample-retention semantics: `samples_` is always either empty or a
// complete record of every add (the complete-or-empty invariant), so
// summary() percentiles are never computed over a partial subset while
// count() says otherwise. merge() keeps samples only when BOTH sides hold a
// complete set and this side retains; any mismatch (e.g. a keep_samples
// accumulator merged with a moments-only one) drops retention entirely
// rather than concatenating a partial sample array. set_keep_samples
// preserves the invariant at the only place it could break: disabling
// retention discards the samples already held, and re-enabling it on an
// accumulator that has dropped values is refused (the set can never be
// completed retroactively).
class Accumulator {
 public:
  void add(double x);
  void merge(const Accumulator& other);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Sample variance (n-1 denominator); 0 for n < 2.
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  const std::vector<double>& samples() const { return samples_; }

  /// Full Summary. Percentiles require retained samples; without them the
  /// percentile fields are left at the mean (documented approximation).
  Summary summary() const;

  /// Enable/disable sample retention (see the class comment): disabling
  /// discards retained samples; enabling after values were dropped is a
  /// no-op (retention stays off). Returns the retention state in effect.
  bool set_keep_samples(bool keep);

  /// Binary codec (serde): bit-exact round trip of the full state —
  /// moments, min/max, retention flag and retained samples — so a shard
  /// checkpoint restores an Accumulator indistinguishable from the one
  /// that was saved. load() re-validates the complete-or-empty invariant.
  void save(serde::Writer& w) const;
  static Accumulator load(serde::Reader& r);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  bool keep_samples_ = true;
  std::vector<double> samples_;
};

}  // namespace ihbd::runtime
