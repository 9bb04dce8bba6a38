#include "perfbench/spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/serde.h"
#include "src/obs/trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// ~40 MB of span records; aggregates keep counting past it.
constexpr std::size_t kMaxRecords = std::size_t{1} << 20;

struct Record {
  const char* name;
  std::uint64_t seq, id, parent;
  std::uint32_t tid;
  std::uint64_t start_ns, end_ns;
};

struct State {
  std::atomic<bool> on{false};
  std::atomic<std::uint64_t> next_seq{1};
  std::atomic<std::uint32_t> next_tid{0};
  Clock::time_point epoch;
  std::mutex mu;  // guards everything below
  std::map<std::string, SpanTotals> totals;
  std::vector<Record> records;
  std::uint64_t dropped = 0;

  State() {
    // The obs trace registry fixes its epoch on first use; touching it
    // right before taking ours puts both clocks on one timeline (to within
    // a microsecond) in the merged Perfetto file.
    ihbd::obs::clear_trace();
    epoch = Clock::now();
  }
};

State& state() {
  static State s;
  return s;
}

thread_local Span* t_top = nullptr;

std::uint32_t thread_tid() {
  thread_local const std::uint32_t tid = state().next_tid.fetch_add(1);
  return tid;
}

bool tracing() { return state().on.load(std::memory_order_relaxed); }

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           state().epoch)
          .count());
}

}  // namespace

void set_tracing(bool on) {
  state().on.store(on, std::memory_order_relaxed);
  ihbd::obs::set_trace_enabled(on);
}

SpanTotals span_total(const std::string& name) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.totals.find(name);
  return it == s.totals.end() ? SpanTotals{} : it->second;
}

std::uint64_t spans_dropped() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.dropped;
}

Span::Span(const char* name, std::uint64_t id, std::uint64_t parent) {
  if (!tracing()) return;
  State& s = state();
  name_ = name;
  seq_ = s.next_seq.fetch_add(1, std::memory_order_relaxed);
  up_ = t_top;
  id_ = id != 0 ? id : (up_ != nullptr ? up_->id_ : 0);
  parent_ = parent != 0 ? parent : (up_ != nullptr ? up_->seq_ : 0);
  t_top = this;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (name_ == nullptr) return;
  const std::uint64_t end_ns = now_ns();
  const std::uint64_t dur = end_ns - start_ns_;
  t_top = up_;
  if (up_ != nullptr) up_->child_ns_ += dur;
  State& s = state();
  const Record rec{name_, seq_, id_, parent_, thread_tid(), start_ns_, end_ns};
  std::lock_guard<std::mutex> lock(s.mu);
  SpanTotals& t = s.totals[name_];
  t.total_s += static_cast<double>(dur) * 1e-9;
  t.self_s += static_cast<double>(dur - child_ns_) * 1e-9;
  if (s.records.size() < kMaxRecords) {
    s.records.push_back(rec);
  } else {
    ++s.dropped;
  }
}

bool write_perfetto(const std::string& path) {
  using ihbd::serde::json_append_number;
  using ihbd::serde::json_append_string;
  std::string out = "{\"traceEvents\":[";
  {
    State& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    bool first = true;
    for (const Record& r : s.records) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":";
      json_append_string(out, r.name);
      out += ",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":";
      json_append_number(out, static_cast<double>(r.start_ns) / 1000.0);
      out += ",\"dur\":";
      json_append_number(out, static_cast<double>(r.end_ns - r.start_ns) /
                                  1000.0);
      out += ",\"pid\":1,\"tid\":";
      json_append_number(out, static_cast<std::uint64_t>(r.tid));
      out += ",\"args\":{\"seq\":";
      json_append_number(out, r.seq);
      // Input seeds use all 64 bits; a string keeps them exact in viewers.
      out += ",\"id\":\"" + std::to_string(r.id) + "\"";
      out += ",\"parent\":";
      json_append_number(out, r.parent);
      out += "}}";
    }
    // Splice in the library's own spans (pid 0): the events between the
    // first '[' and the last ']' of obs::trace_json().
    const std::string lib = ihbd::obs::trace_json();
    const std::size_t lo = lib.find('[');
    const std::size_t hi = lib.rfind(']');
    if (lo != std::string::npos && hi != std::string::npos && hi > lo + 1) {
      if (!first) out += ',';
      out.append(lib, lo + 1, hi - lo - 1);
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "perfbench: cannot write trace to '%s'\n",
                 path.c_str());
    return false;
  }
  file.write(out.data(), static_cast<std::streamsize>(out.size()));
  return file.good();
}

}  // namespace perfbench
