// Benchmark-side span recorder for the traced run.
//
// Every call the benchmark makes into a layer is wrapped in a Span. A span
// carries its name, the trial/trace id it works for, and the span that
// caused it; IHBD_TRACE_SPAN records only a name, so the benchmark keeps
// its own record and exports it together with the library's obs spans.
//
// Per name the recorder accumulates total time and SELF time
// (duration minus the part covered by child spans). Self time is exact
// because children close before their parent on the same thread; a span
// parented across threads (a sweep trial on a worker) is a root on its own
// thread and never subtracts from the parent it names.
//
// Spans are kept in memory (capped; aggregates keep counting past the cap)
// and written as one Chrome trace-event / Perfetto JSON file at exit.
// Disabled (the untraced run), a Span costs one relaxed load.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Turn span recording on (the traced run) or off. Also toggles the
/// library's obs tracing, so library-internal spans land in the same file.
void set_tracing(bool on);

/// Totals recorded under `name` over every thread (zeros when it never
/// ran).
SpanTotals span_total(const std::string& name);

/// Write the recorded spans plus the library's obs spans as one Perfetto
/// JSON file. Returns false (with a note on stderr) when unwritable.
bool write_perfetto(const std::string& path);

/// Spans dropped from the export because the in-memory cap was reached
/// (their time still counts in the aggregates).
std::uint64_t spans_dropped();

class Span {
 public:
  /// `id`: the trial or trace this span works for (0 inherits the
  /// enclosing span's id). `parent`: explicit parent span sequence number
  /// for work handed to another thread (0 = the enclosing span on this
  /// thread).
  explicit Span(const char* name, std::uint64_t id = 0,
                std::uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's sequence number (0 when tracing is off), for handing to
  /// spans opened on other threads.
  std::uint64_t seq() const { return seq_; }

 private:
  const char* name_ = nullptr;
  std::uint64_t seq_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t child_ns_ = 0;
  Span* up_ = nullptr;  ///< enclosing span on this thread
};

}  // namespace perfbench
