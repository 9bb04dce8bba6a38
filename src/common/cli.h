// Strict parsing of numeric command-line values. The whole text must be
// the number: "2x", "", " 3" and out-of-range values are rejected rather
// than read as their numeric prefix (std::atoi reads "2x" as 2). The
// benches, ihbd-sweepd and the examples share these rules, so a value the
// driver accepts is one the bench accepts.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <optional>

namespace ihbd::cli {

/// `text` as an integer in [1, max], or nullopt.
inline std::optional<int> parse_count(
    const char* text, int max = std::numeric_limits<int>::max()) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < 1 || v > max)
    return std::nullopt;
  return static_cast<int>(v);
}

/// `text` as a duration in seconds: >= 0, and > 0 unless `allow_zero`.
/// NaN is rejected.
inline std::optional<double> parse_seconds(const char* text, bool allow_zero) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !(v >= 0.0) ||
      (!allow_zero && v == 0.0))
    return std::nullopt;
  return v;
}

}  // namespace ihbd::cli
