// replay-grid: make_sim_trace-shaped Poisson fault traces (375 8-GPU nodes
// split and remapped onto the 720-node simulation cluster, 348 days), each
// replayed over TP {8,16,32,64} x the 8 paper architectures through
// bench::replay_trace_grid on 1 worker. This path runs the replay cursor,
// the incremental allocators and the fragment merge, and none of
// ctrl/evsim/orch/ocstrx.
//
// An operation is one replayed cell. Each grid runs on a FaultTrace rebuilt
// from the input's event list, so every grid pays the lazily cached
// transition and word-delta timelines, as a fresh bench process does.
//
// The traced run re-drives the same cells layer by layer on its own fresh
// trace: the cursor walk over the sample grid (fault.cursor), the
// allocator over the recorded word deltas (topo.alloc), and the fragment
// build plus summary assembly (topo.merge). The re-assembled cell must be
// bit-identical to the grid's.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/fault_bench_common.h"
#include "perfbench/harness.h"
#include "perfbench/spans.h"
#include "src/common/serde.h"
#include "src/fault/generator.h"
#include "src/fault/packed_mask.h"
#include "src/fault/transitions.h"
#include "src/topo/incremental.h"
#include "src/topo/waste.h"

namespace perfbench {
namespace {

using namespace ihbd;

constexpr std::size_t kPool = 64;  ///< distinct traces generated up front
const std::vector<double> kTps = {8, 16, 32, 64};

using Archs = std::vector<std::unique_ptr<topo::HbdArchitecture>>;

struct ReplayInput {
  std::uint64_t id = 0;
  int nodes = 0;
  double days = 0.0;
  std::vector<fault::FaultEvent> events;
};

ReplayInput make_input(std::uint64_t id) {
  fault::TraceGenConfig cfg;  // 375 x 8-GPU nodes, 348 days
  cfg.seed = id;
  Rng split(id ^ 0x5bd1e995u);
  const fault::FaultTrace trace = fault::generate_trace(cfg)
                                      .split_to_half_nodes(split)
                                      .remap_nodes(bench::kNodes4);
  return ReplayInput{id, trace.node_count(), trace.duration_days(),
                     trace.events()};
}

fault::FaultTrace load_trace(const ReplayInput& in) {
  return fault::FaultTrace(in.nodes, in.days, in.events);
}

/// One supported (TP, architecture) cell, in grid order.
struct Cell {
  std::size_t grid_index;
  int tp;
  const topo::HbdArchitecture* arch;
};

std::vector<Cell> supported_cells(const Archs& archs) {
  std::vector<Cell> cells;
  for (std::size_t t = 0; t < kTps.size(); ++t)
    for (std::size_t a = 0; a < archs.size(); ++a) {
      const int tp = static_cast<int>(kTps[t]);
      if (bench::arch_supports_tp(*archs[a], tp))
        cells.push_back(Cell{t * archs.size() + a, tp, archs[a].get()});
    }
  return cells;
}

std::string cell_bytes(const topo::TraceWasteResult& r) {
  serde::Writer w;
  topo::trace_waste_codec().save(w, r);
  return w.take();
}

/// One grid replay; returns each supported cell's serialized result.
std::vector<std::string> replay_grid(const ReplayInput& in, const Archs& archs,
                                     const std::vector<Cell>& cells) {
  Span grid("replay.grid", in.id);
  const fault::FaultTrace trace = load_trace(in);
  const auto result =
      bench::replay_trace_grid(archs, trace, kTps, /*threads=*/1);
  std::vector<std::string> bytes;
  bytes.reserve(cells.size());
  for (const Cell& c : cells)
    bytes.push_back(cell_bytes(result.cells[c.grid_index]));
  return bytes;
}

/// Everything generated before the measured phase: the architectures,
/// their supported cells, and the pool of traces.
struct ReplayInputs {
  Archs archs;
  std::vector<Cell> cells;
  std::vector<ReplayInput> traces;
};

ReplayInputs make_inputs(std::uint64_t seed) {
  ReplayInputs in;
  in.archs = bench::make_archs();
  in.cells = supported_cells(in.archs);
  for (std::size_t slot = 0; slot < kPool; ++slot) {
    Span s("fault.trace_gen", input_seed(seed, slot));
    in.traces.push_back(make_input(input_seed(seed, slot)));
  }
  return in;
}

/// Whether two builds generated the same traces and cells.
bool same_inputs(const ReplayInputs& a, const ReplayInputs& b) {
  const auto same_trace = [&](const ReplayInput& x, const ReplayInput& y) {
    return x.id == y.id && x.nodes == y.nodes && x.days == y.days &&
           same_events(x.events, y.events);
  };
  const auto same_cell = [](const Cell& x, const Cell& y) {
    return x.grid_index == y.grid_index && x.tp == y.tp;
  };
  return std::equal(a.cells.begin(), a.cells.end(), b.cells.begin(),
                    b.cells.end(), same_cell) &&
         std::equal(a.traces.begin(), a.traces.end(), b.traces.begin(),
                    b.traces.end(), same_trace);
}

struct LayerCounts {
  std::uint64_t word_deltas = 0;
  std::uint64_t alloc_calls = 0;
};

/// The single-window incremental packed replay of one cell, one layer at a
/// time, each under its own span. Mirrors replay_trace_window_incremental.
topo::TraceWasteResult drive_cell(const fault::FaultTrace& trace,
                                  const Cell& c, LayerCounts& counts) {
  Span cell("replay.cell");
  const std::vector<double> days = trace.sample_days(1.0);
  {
    Span s("fault.cursor");
    fault::FaultMaskCursor cursor(trace, 1.0);
    for (const double day : days)
      counts.word_deltas += cursor.advance_to_words(day).size();
  }
  // Record the cursor's output (outside the layer spans) for the allocator.
  std::vector<std::vector<fault::WordDelta>> deltas;
  std::vector<fault::PackedMask> masks;
  deltas.reserve(days.size());
  masks.reserve(days.size());
  {
    fault::FaultMaskCursor cursor(trace, 1.0);
    for (const double day : days) {
      deltas.push_back(cursor.advance_to_words(day));
      masks.push_back(cursor.packed_mask());
    }
  }
  std::vector<double> waste(days.size()), usable(days.size());
  {
    Span s("topo.alloc");
    const auto allocator = topo::make_incremental_allocator(*c.arch, c.tp);
    for (std::size_t i = 0; i < days.size(); ++i) {
      if (i == 0 || !deltas[i].empty()) {
        const topo::Allocation& a = allocator->apply_words(masks[i], deltas[i]);
        waste[i] = a.waste_ratio();
        usable[i] = static_cast<double>(a.usable_gpus);
        ++counts.alloc_calls;
      } else {
        waste[i] = waste[i - 1];
        usable[i] = usable[i - 1];
      }
    }
  }
  Span s("topo.merge");
  topo::TraceWindowFragment frag;
  frag.waste_acc.set_keep_samples(true);
  for (std::size_t i = 0; i < days.size(); ++i) {
    frag.waste_ratio.push(days[i], waste[i]);
    frag.usable_gpus.push(days[i], usable[i]);
    frag.waste_acc.add(waste[i]);
  }
  topo::TraceWasteResult out;
  out.waste_ratio = std::move(frag.waste_ratio);
  out.usable_gpus = std::move(frag.usable_gpus);
  out.waste_summary = frag.waste_acc.summary();
  return out;
}

}  // namespace

Outcome run_replay_grid(const Args& args) {
  Outcome out;
  set_tracing(args.trace);
  const ReplayInputs in = build_inputs(
      args, out, [&] { return make_inputs(args.seed); }, same_inputs);
  const std::vector<ReplayInput>& pool = in.traces;
  const std::vector<Cell>& cells = in.cells;
  const double grid_node_days = pool.front().nodes * pool.front().days *
                                static_cast<double>(cells.size());

  // An operation is one trace's grid; its outputs are the grid's cells,
  // keyed slot * cells + cell.
  const std::vector<std::string> first = run_ops(
      args, pool.size(), pool.size() * cells.size(), out,
      [&](std::size_t slot, bool) {
        const auto t0 = Clock::now();
        std::vector<std::string> bytes = replay_grid(pool[slot], in.archs, cells);
        OpRun run{grid_node_days, seconds_since(t0), {}};
        for (std::size_t i = 0; i < cells.size(); ++i)
          run.outputs.push_back(OpOutput{
              slot * cells.size() + i,
              "trace " + std::to_string(pool[slot].id) + " cell " +
                  std::to_string(cells[i].grid_index),
              std::move(bytes[i]),
              {}});
        return run;
      });
  const auto cell_first = [&](std::size_t slot, std::size_t i) {
    return first[slot * cells.size() + i];
  };

  // Oracle: one sampled cell per trace, bit-exact against the serial
  // from-scratch reference replay.
  set_tracing(false);
  for (std::size_t slot = 0; slot < pool.size(); ++slot) {
    Rng pick(pool[slot].id);
    const std::size_t i = pick.uniform_index(cells.size());
    const fault::FaultTrace trace = load_trace(pool[slot]);
    const std::string oracle = cell_bytes(topo::evaluate_waste_over_trace(
        *cells[i].arch, trace, cells[i].tp, 1.0));
    if (oracle != cell_first(slot, i))
      out.fail("trace " + std::to_string(pool[slot].id) + " cell " +
               std::to_string(cells[i].grid_index) +
               ": differs from the serial oracle replay");
  }
  if (!args.trace) return out;

  // The traced per-layer drive of every cell of every trace.
  set_tracing(true);
  LayerCounts counts;
  for (std::size_t slot = 0; slot < pool.size(); ++slot) {
    const fault::FaultTrace trace = load_trace(pool[slot]);
    Span drive("replay.layer_drive", pool[slot].id);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cell_bytes(drive_cell(trace, cells[i], counts)) !=
          cell_first(slot, i))
        out.fail("trace " + std::to_string(pool[slot].id) + " cell " +
                     std::to_string(cells[i].grid_index) +
                     ": layer drive differs from the grid replay",
                 0);
    }
  }
  set_tracing(false);

  out.layers["fault.trace_gen_s"] = span_total("fault.trace_gen").total_s;
  out.layers["fault.cursor_s"] = span_total("fault.cursor").self_s;
  out.layers["fault.word_deltas"] = static_cast<double>(counts.word_deltas);
  out.layers["topo.alloc_s"] = span_total("topo.alloc").self_s;
  out.layers["topo.alloc_calls"] = static_cast<double>(counts.alloc_calls);
  out.layers["topo.merge_s"] = span_total("topo.merge").self_s;
  out.layers["replay.grid_s"] = span_total("replay.grid").total_s;
  return out;
}

}  // namespace perfbench
