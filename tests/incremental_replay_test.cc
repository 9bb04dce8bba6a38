// Incremental replay (src/fault/transitions.h + src/topo/incremental.h):
// grid-cursor semantics (zero-length events, same-day up/down, overlapping
// intervals, the monotonicity contract, word-delta equivalence), the KHop
// and per-island allocators' apply_words against allocate() (single-bit,
// multi-bit and spurious deltas), the allocator dispatch, and the property
// that the incremental replay — alone and as the benches' replay grid — is
// bit-identical to the serial evaluate_waste_over_trace oracle across
// architectures, TP sizes, steps and Poisson/physics/storm traces.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/fault_bench_common.h"
#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/fault/generator.h"
#include "src/fault/packed_mask.h"
#include "src/fault/physics_generator.h"
#include "src/fault/trace.h"
#include "src/fault/transitions.h"
#include "src/topo/baselines.h"
#include "src/topo/incremental.h"
#include "src/topo/khop_ring.h"
#include "src/topo/waste.h"

namespace ihbd::topo {
namespace {

fault::FaultTrace gen_trace(int nodes, double days, std::uint64_t seed) {
  fault::TraceGenConfig cfg;
  cfg.node_count = nodes;
  cfg.duration_days = days;
  cfg.seed = seed;
  return fault::generate_trace(cfg);
}

void expect_same_result(const TraceWasteResult& a, const TraceWasteResult& b) {
  EXPECT_EQ(a.waste_ratio.t, b.waste_ratio.t);
  EXPECT_EQ(a.waste_ratio.v, b.waste_ratio.v);
  EXPECT_EQ(a.usable_gpus.t, b.usable_gpus.t);
  EXPECT_EQ(a.usable_gpus.v, b.usable_gpus.v);
  EXPECT_EQ(a.waste_summary.count, b.waste_summary.count);
  EXPECT_EQ(a.waste_summary.mean, b.waste_summary.mean);
  EXPECT_EQ(a.waste_summary.stddev, b.waste_summary.stddev);
  EXPECT_EQ(a.waste_summary.min, b.waste_summary.min);
  EXPECT_EQ(a.waste_summary.max, b.waste_summary.max);
  EXPECT_EQ(a.waste_summary.p50, b.waste_summary.p50);
  EXPECT_EQ(a.waste_summary.p90, b.waste_summary.p90);
  EXPECT_EQ(a.waste_summary.p99, b.waste_summary.p99);
}

// --- transition timeline --------------------------------------------------

TEST(TransitionTimeline, SortedAndComplete) {
  const auto trace = gen_trace(64, 30.0, 7);
  const auto edges = trace.transitions();
  ASSERT_EQ(edges.size(), trace.events().size() * 2);
  for (std::size_t i = 1; i < edges.size(); ++i)
    EXPECT_LE(edges[i - 1].day, edges[i].day);
  std::size_t downs = 0;
  for (const auto& e : edges) downs += e.down ? 1 : 0;
  EXPECT_EQ(downs, trace.events().size());
}

// --- cursor semantics -----------------------------------------------------

/// The nodes a batch of word deltas flips, ascending.
std::vector<int> expand(const std::vector<fault::WordDelta>& deltas) {
  std::vector<int> nodes;
  for (const auto& d : deltas)
    fault::for_each_set_bit(d.xor_bits, d.word,
                            [&](int i) { nodes.push_back(i); });
  return nodes;
}

TEST(FaultMaskCursor, ZeroLengthAndSameDayAndOverlappingEvents) {
  // node 0: zero-length event (never faulty: start <= d < end is empty)
  // node 1: overlapping intervals [1,3) and [2,5) (faulty through day 4)
  // node 2: back-to-back [1,2) + [2,4): repair and re-fault on day 2 — the
  //         bit never clears, so day 2 must report no flip for node 2
  // node 3: plain [0,2)
  const fault::FaultTrace trace(
      5, 6.0,
      {{0, 2.0, 2.0}, {1, 1.0, 3.0}, {1, 2.0, 5.0}, {2, 1.0, 2.0},
       {2, 2.0, 4.0}, {3, 0.0, 2.0}});
  fault::FaultMaskCursor cursor(trace, 1.0);

  EXPECT_EQ(expand(cursor.advance_to_words(0.0)), (std::vector<int>{3}));
  EXPECT_EQ(expand(cursor.advance_to_words(1.0)), (std::vector<int>{1, 2}));
  // Day 2: node 0's zero-length event cancels itself, node 1 stays down
  // (second interval active), node 2's up+down cancel, node 3 comes up.
  EXPECT_EQ(expand(cursor.advance_to_words(2.0)), (std::vector<int>{3}));
  EXPECT_EQ(cursor.packed_mask().to_bools(),
            (std::vector<bool>{false, true, true, false, false}));
  EXPECT_EQ(cursor.packed_mask().to_bools(), trace.faulty_at(2.0));
  // 1 still overlapped
  EXPECT_EQ(expand(cursor.advance_to_words(3.0)), (std::vector<int>{}));
  EXPECT_EQ(expand(cursor.advance_to_words(4.0)), (std::vector<int>{2}));
  EXPECT_EQ(expand(cursor.advance_to_words(5.0)), (std::vector<int>{1}));
  EXPECT_EQ(cursor.packed_mask().popcount(), 0);
  // Repeated advance to the same day is a no-op.
  EXPECT_TRUE(cursor.advance_to_words(5.0).empty());
}

TEST(FaultMaskCursor, GridAlignedCursorMatchesFaultyAt) {
  // The cursor binds to the per-sample-day folded timeline
  // (FaultTrace::word_delta_timeline(step)); on the grid it must match
  // faulty_at() — including a fresh cursor fast-forwarded to a mid-grid
  // day, where the whole prefix folds in one multi-group advance.
  const auto trace = gen_trace(96, 45.0, 11);
  for (const double step : {1.0, 0.25, 0.7}) {
    SCOPED_TRACE(step);
    const auto days = trace.sample_days(step);
    fault::FaultMaskCursor cursor(trace, step);
    fault::PackedMask replayed(trace.node_count());
    for (const double day : days) {
      const auto& deltas = cursor.advance_to_words(day);
      int prev_word = -1;
      for (const auto& d : deltas) {
        // Contract: ascending word index, nonzero XOR bits.
        EXPECT_GT(d.word, prev_word) << "day " << day;
        EXPECT_NE(d.xor_bits, 0u) << "day " << day;
        prev_word = d.word;
        // The reported deltas alone must transform the previous mask into
        // the current one (no silent changes, no spurious reports).
        replayed.apply_xor(d.word, d.xor_bits);
      }
      EXPECT_EQ(cursor.packed_mask().to_bools(), trace.faulty_at(day))
          << "day " << day;
      EXPECT_EQ(replayed, cursor.packed_mask()) << "day " << day;
    }
    // Edges past the last sample day (repairs completing after the trace
    // window) may remain; advancing past every event drains the timeline
    // and clears the mask.
    cursor.advance_to_words(std::numeric_limits<double>::max());
    EXPECT_EQ(cursor.remaining(), 0u);
    EXPECT_EQ(cursor.packed_mask().popcount(), 0);
    // Jump a fresh grid cursor straight to the middle.
    const double mid = days[days.size() / 2];
    fault::FaultMaskCursor jumped(trace, step);
    jumped.advance_to_words(mid);
    EXPECT_EQ(jumped.packed_mask(), trace.packed_faulty_at(mid));
  }
}

// The documented forward-only contract (transitions.h): a cursor cannot
// rewind, and the violation must trip the IHBD_EXPECTS guard rather than
// silently corrupt the mask.
using FaultMaskCursorDeathTest = ::testing::Test;

TEST(FaultMaskCursorDeathTest, RejectsNonMonotonicAdvance) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto trace = gen_trace(32, 20.0, 23);
  fault::FaultMaskCursor cursor(trace, 0.5);
  cursor.advance_to_words(10.0);
  EXPECT_DEATH(cursor.advance_to_words(9.5), "day >= day_");
  EXPECT_DEATH(cursor.advance_to_words(0.0), "day >= day_");
  // NaN never satisfies day >= day_, so it is rejected too.
  EXPECT_DEATH(
      cursor.advance_to_words(std::numeric_limits<double>::quiet_NaN()),
      "day >= day_");
  // Equal day remains a legal no-op.
  EXPECT_TRUE(cursor.advance_to_words(10.0).empty());
}

// --- KHopRing incremental allocator vs allocate() -------------------------

void expect_same_aggregates(const Allocation& a, const Allocation& b,
                            const std::string& what) {
  EXPECT_EQ(a.total_gpus, b.total_gpus) << what;
  EXPECT_EQ(a.faulty_gpus, b.faulty_gpus) << what;
  EXPECT_EQ(a.usable_gpus, b.usable_gpus) << what;
  EXPECT_EQ(a.wasted_healthy_gpus, b.wasted_healthy_gpus) << what;
}

/// The single-bit delta flipping node `x`.
std::vector<fault::WordDelta> single_bit(int x) {
  return {{x / fault::PackedMask::kWordBits,
           std::uint64_t{1} << (x % fault::PackedMask::kWordBits)}};
}

/// Flip each of `nodes` in `mask` and return deltas claiming every listed
/// node changed: one word-ascending entry per touched word, its bits the OR
/// of the listed nodes' bits (multi-bit when several land in one word). A
/// node listed twice nets out of the mask yet stays claimed — a spurious
/// flip the allocators must tolerate.
std::vector<fault::WordDelta> flip_nodes(fault::PackedMask& mask,
                                         const std::vector<int>& nodes) {
  std::map<int, std::uint64_t> claimed;
  for (const int x : nodes) {
    mask.flip(x);
    claimed[x / fault::PackedMask::kWordBits] |=
        std::uint64_t{1} << (x % fault::PackedMask::kWordBits);
  }
  std::vector<fault::WordDelta> deltas;
  for (const auto& [word, bits] : claimed) deltas.push_back({word, bits});
  return deltas;
}

TEST(KHopRingIncremental, RandomFlipSequencesMatchAllocate) {
  Rng rng(1234);
  for (const bool ring_variant : {true, false}) {
    for (const int k : {1, 2, 3}) {
      for (const int m : {2, 4, 8}) {
        const int n = 48;
        const int g = 4;
        const KHopRing ring(n, g, k, ring_variant);
        KHopRingIncrementalAllocator inc(ring, m * g);
        // Start from a random mask, then walk 400 random flip batches.
        fault::PackedMask mask(n);
        for (int i = 0; i < n; ++i) mask.set(i, rng.bernoulli(0.2));
        inc.apply_words(mask, {});
        for (int step = 0; step < 400; ++step) {
          std::vector<int> flipped;
          const int batch = 1 + static_cast<int>(rng.uniform_index(3));
          for (int b = 0; b < batch; ++b)
            flipped.push_back(static_cast<int>(rng.uniform_index(n)));
          // A node flipped twice in one batch nets out but stays claimed:
          // the allocator must skip it.
          const auto& got = inc.apply_words(mask, flip_nodes(mask, flipped));
          const auto want = ring.allocate(mask, m * g);
          expect_same_aggregates(
              got, want,
              (ring_variant ? "ring" : "line") + std::string(" k=") +
                  std::to_string(k) + " m=" + std::to_string(m) + " step " +
                  std::to_string(step));
        }
      }
    }
  }
}

TEST(KHopRingIncremental, ExtremeMasksMatchAllocate) {
  const int n = 24, g = 4, tp = 16;
  for (const bool ring_variant : {true, false}) {
    const KHopRing ring(n, g, 2, ring_variant);
    KHopRingIncrementalAllocator inc(ring, tp);
    fault::PackedMask mask(n);
    inc.apply_words(mask, {});  // all healthy
    // Take every node down one by one, then bring them all back.
    for (int x = 0; x < n; ++x) {
      mask.set(x, true);
      const auto& got = inc.apply_words(mask, single_bit(x));
      expect_same_aggregates(got, ring.allocate(mask, tp),
                             "down x=" + std::to_string(x));
    }
    for (int x = n - 1; x >= 0; --x) {
      mask.set(x, false);
      const auto& got = inc.apply_words(mask, single_bit(x));
      expect_same_aggregates(got, ring.allocate(mask, tp),
                             "up x=" + std::to_string(x));
    }
  }
}

// --- per-island baseline allocators vs allocate() -------------------------

/// The island-decomposable baselines on a 144 x 4 cluster (the smallest
/// every §6.1 baseline accepts, incl. NVL-576), with direct constructors
/// for the concrete allocator classes so the test exercises each
/// implementation rather than whatever the dispatch picks.
struct BaselineCase {
  std::unique_ptr<HbdArchitecture> arch;
  std::unique_ptr<IncrementalAllocator> allocator;
  int tp = 0;
};

std::vector<BaselineCase> baseline_cases(int nodes, int gpus, int tp) {
  std::vector<BaselineCase> cases;
  const auto add = [&](std::unique_ptr<HbdArchitecture> arch,
                       std::unique_ptr<IncrementalAllocator> alloc) {
    cases.push_back({std::move(arch), std::move(alloc), tp});
  };
  {
    auto bs = std::make_unique<BigSwitch>(nodes, gpus);
    auto alloc = std::make_unique<IslandModuloAllocator>(
        *bs, bs->island_partition(), tp);
    add(std::move(bs), std::move(alloc));
  }
  for (const int hbd : {36, 72, 576}) {
    auto nvl = std::make_unique<NvlSwitch>(nodes, gpus, hbd);
    auto alloc = std::make_unique<IslandModuloAllocator>(
        *nvl, nvl->island_partition(), tp);
    add(std::move(nvl), std::move(alloc));
  }
  {
    auto tpu = std::make_unique<TpuV4>(nodes, gpus);
    auto alloc =
        tp > tpu->cube_gpus()
            ? std::unique_ptr<IncrementalAllocator>(
                  std::make_unique<TpuCubePoolAllocator>(*tpu, tp))
            : std::make_unique<IslandModuloAllocator>(
                  *tpu, tpu->island_partition(), tp);
    add(std::move(tpu), std::move(alloc));
  }
  {
    auto sip = std::make_unique<SipRing>(nodes, gpus);
    auto alloc = std::make_unique<SipRingIncrementalAllocator>(*sip, tp);
    add(std::move(sip), std::move(alloc));
  }
  return cases;
}

TEST(BaselineIncremental, RandomFlipSequencesMatchAllocate) {
  Rng rng(4321);
  const int n = 144, g = 4;
  // TP sweep covers every regime: in-island fragmentation (8, 64),
  // TPUv4's pooled clean-cube regime and NVL-36/72 whole-island waste
  // (128), and m larger than the whole cluster (640).
  for (const int tp : {8, 64, 128, 640}) {
    for (auto& c : baseline_cases(n, g, tp)) {
      fault::PackedMask mask(n);
      for (int i = 0; i < n; ++i) mask.set(i, rng.bernoulli(0.15));
      c.allocator->apply_words(mask, {});
      for (int step = 0; step < 400; ++step) {
        std::vector<int> flipped;
        const int batch = 1 + static_cast<int>(rng.uniform_index(3));
        for (int b = 0; b < batch; ++b)
          flipped.push_back(static_cast<int>(rng.uniform_index(n)));
        // Double flips of one node stay claimed: the allocator must
        // tolerate spurious (net-zero) bits.
        const auto& got =
            c.allocator->apply_words(mask, flip_nodes(mask, flipped));
        const auto want = c.arch->allocate(mask, tp);
        expect_same_aggregates(got, want,
                               c.arch->name() + " tp=" + std::to_string(tp) +
                                   " step " + std::to_string(step));
      }
    }
  }
}

TEST(BaselineIncremental, DegenerateMasksMatchAllocate) {
  const int n = 144, g = 4;
  for (const int tp : {32, 128}) {
    for (auto& c : baseline_cases(n, g, tp)) {
      fault::PackedMask mask(n);
      // All healthy, then take one island (the first 18 nodes — one NVL-72
      // island, more than one TPUv4 cube span) fully down node by node,
      // then the whole cluster down, then everything back up.
      expect_same_aggregates(c.allocator->apply_words(mask, {}),
                             c.arch->allocate(mask, tp),
                             c.arch->name() + " all-healthy");
      for (int x = 0; x < n; ++x) {
        mask.set(x, true);
        expect_same_aggregates(
            c.allocator->apply_words(mask, single_bit(x)),
            c.arch->allocate(mask, tp),
            c.arch->name() + " tp=" + std::to_string(tp) + " down x=" +
                std::to_string(x));
      }
      for (int x = n - 1; x >= 0; --x) {
        mask.set(x, false);
        expect_same_aggregates(
            c.allocator->apply_words(mask, single_bit(x)),
            c.arch->allocate(mask, tp),
            c.arch->name() + " tp=" + std::to_string(tp) + " up x=" +
                std::to_string(x));
      }
    }
  }
}

TEST(BaselineIncremental, InitializesFromDegenerateFirstMask) {
  // The first apply_words() seeds wholesale from the mask: start from
  // all-faulty and from one-island-down instead of from all-healthy.
  const int n = 144, g = 4, tp = 32;
  for (const bool all_faulty : {true, false}) {
    for (auto& c : baseline_cases(n, g, tp)) {
      fault::PackedMask mask(n);
      for (int x = 0; x < (all_faulty ? n : 9); ++x)  // 9 = one NVL-36 island
        mask.set(x, true);
      expect_same_aggregates(
          c.allocator->apply_words(mask, {}), c.arch->allocate(mask, tp),
          c.arch->name() + (all_faulty ? " all-faulty" : " island-down"));
      // One repair out of the degenerate state.
      mask.set(0, false);
      expect_same_aggregates(c.allocator->apply_words(mask, single_bit(0)),
                             c.arch->allocate(mask, tp),
                             c.arch->name() + " first repair");
    }
  }
}

TEST(BaselineIncremental, DispatchCoversEveryPaperArchitecture) {
  // make_incremental_allocator must hand every §6.1 architecture a true
  // incremental allocator whose aggregates match allocate() — including
  // TPUv4 on both sides of the cube-size regime boundary.
  const int nodes = 144;
  Rng rng(77);
  auto archs = make_paper_architectures(nodes, 4);
  for (const auto& arch : archs) {
    for (const int tp : {8, 64, 128}) {
      const auto allocator = make_incremental_allocator(*arch, tp);
      fault::PackedMask mask(nodes);
      for (int i = 0; i < nodes; ++i) mask.set(i, rng.bernoulli(0.1));
      expect_same_aggregates(allocator->apply_words(mask, {}),
                             arch->allocate(mask, tp),
                             arch->name() + " tp=" + std::to_string(tp));
      for (int step = 0; step < 32; ++step) {
        const int x = static_cast<int>(rng.uniform_index(nodes));
        mask.flip(x);
        expect_same_aggregates(
            allocator->apply_words(mask, single_bit(x)),
            arch->allocate(mask, tp),
            arch->name() + " tp=" + std::to_string(tp) + " step " +
                std::to_string(step));
      }
    }
  }
}

/// A test-local architecture the allocator dispatch does not know.
class UnknownArchitecture : public HbdArchitecture {
 public:
  using HbdArchitecture::allocate;
  std::string name() const override { return "Unknown-HBD"; }
  int node_count() const override { return 64; }
  int gpus_per_node() const override { return 4; }
  Allocation allocate(const fault::PackedMask& faulty,
                      int tp_size_gpus) const override {
    check_args(faulty, tp_size_gpus);
    return {};
  }
};

TEST(BaselineIncremental, DispatchRejectsArchitectureWithoutAllocator) {
  const UnknownArchitecture arch;
  try {
    make_incremental_allocator(arch, 8);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("Unknown-HBD"), std::string::npos)
        << e.what();
  }
}

// --- word-parallel apply_words vs allocate() ------------------------------

/// Flip `batch` random nodes of `mask` and return the net word deltas (a
/// node flipped twice in one batch nets out of its word's XOR bits; a word
/// whose bits all net out is dropped), exactly what a cursor would emit.
std::vector<fault::WordDelta> random_word_batch(fault::PackedMask& mask,
                                                int batch, Rng& rng) {
  std::vector<std::uint64_t> xor_by_word(
      static_cast<std::size_t>(mask.word_count()), 0);
  for (int b = 0; b < batch; ++b) {
    const int x = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(mask.size())));
    xor_by_word[static_cast<std::size_t>(x / fault::PackedMask::kWordBits)] ^=
        std::uint64_t{1} << (x % fault::PackedMask::kWordBits);
  }
  std::vector<fault::WordDelta> deltas;
  for (int w = 0; w < mask.word_count(); ++w) {
    const std::uint64_t bits = xor_by_word[static_cast<std::size_t>(w)];
    if (bits == 0) continue;
    mask.apply_xor(w, bits);
    deltas.push_back({w, bits});
  }
  return deltas;
}

TEST(ApplyWords, RandomWordBatchesMatchAllocate) {
  // Every allocator the dispatch hands out (KHop word-Fenwick, the
  // per-island baselines, TPUv4's pooled regime): word deltas in,
  // aggregates bit-identical to a from-scratch allocate().
  Rng rng(9999);
  const int n = 144, g = 4;
  std::vector<BaselineCase> cases;
  for (const int tp : {8, 64, 128}) {
    for (auto& c : baseline_cases(n, g, tp)) cases.push_back(std::move(c));
    auto ring = std::make_unique<KHopRing>(n, g, 2);
    auto ring_alloc = std::make_unique<KHopRingIncrementalAllocator>(*ring, tp);
    cases.push_back({std::move(ring), std::move(ring_alloc), tp});
  }
  for (auto& c : cases) {
    fault::PackedMask mask(n);
    for (int i = 0; i < n; ++i) mask.set(i, rng.bernoulli(0.15));
    c.allocator->apply_words(mask, {});
    for (int step = 0; step < 200; ++step) {
      const int batch = 1 + static_cast<int>(rng.uniform_index(3));
      const auto deltas = random_word_batch(mask, batch, rng);
      const auto& got = c.allocator->apply_words(mask, deltas);
      const auto want = c.arch->allocate(mask, c.tp);
      expect_same_aggregates(got, want,
                             c.arch->name() + " tp=" + std::to_string(c.tp) +
                                 " step " + std::to_string(step));
    }
  }
}

TEST(ApplyWords, ToleratesSpuriousDeltas) {
  // A delta whose word already matches the mask (net-zero change) must be
  // ignored.
  const int n = 144, g = 4, tp = 32;
  for (auto& c : baseline_cases(n, g, tp)) {
    fault::PackedMask mask(n);
    for (int x = 0; x < 9; ++x) mask.set(x, true);
    c.allocator->apply_words(mask, {});
    // Claim every word changed; none did.
    std::vector<fault::WordDelta> spurious;
    for (int w = 0; w < mask.word_count(); ++w)
      spurious.push_back({w, mask.valid_mask(w)});
    expect_same_aggregates(c.allocator->apply_words(mask, spurious),
                           c.arch->allocate(mask, tp),
                           c.arch->name() + " spurious");
    // And a real change still lands after the spurious round.
    mask.set(100, true);
    expect_same_aggregates(
        c.allocator->apply_words(
            mask, {{100 / fault::PackedMask::kWordBits,
                    std::uint64_t{1} << (100 % fault::PackedMask::kWordBits)}}),
        c.arch->allocate(mask, tp), c.arch->name() + " post-spurious");
  }
}

TEST(ApplyWords, DegenerateMasksMatchAllocate) {
  const int n = 144, g = 4;
  for (const int tp : {32, 128}) {
    for (auto& c : baseline_cases(n, g, tp)) {
      fault::PackedMask mask(n);
      c.allocator->apply_words(mask, {});
      // Whole words down at once (the worst-case delta density), then the
      // whole cluster, then everything back up word by word.
      for (int w = 0; w < mask.word_count(); ++w) {
        const std::uint64_t bits = mask.valid_mask(w);
        mask.apply_xor(w, bits);
        expect_same_aggregates(c.allocator->apply_words(mask, {{w, bits}}),
                               c.arch->allocate(mask, tp),
                               c.arch->name() + " word-down " +
                                   std::to_string(w));
      }
      for (int w = mask.word_count() - 1; w >= 0; --w) {
        const std::uint64_t bits = mask.valid_mask(w);
        mask.apply_xor(w, bits);
        expect_same_aggregates(c.allocator->apply_words(mask, {{w, bits}}),
                               c.arch->allocate(mask, tp),
                               c.arch->name() + " word-up " +
                                   std::to_string(w));
      }
    }
  }
}

// --- end-to-end: incremental replay vs serial oracle ----------------------

/// Poisson (two seeds), physics and storm traces over 60 days on `nodes`
/// nodes. The physics families are generated at their calibrated 375-node
/// size, then normalized to 4-GPU nodes and remapped like the benches' sim
/// trace; storms flip whole racks and power domains on one day, across
/// word boundaries.
std::vector<std::pair<std::string, fault::FaultTrace>> oracle_traces(
    int nodes) {
  std::vector<std::pair<std::string, fault::FaultTrace>> traces;
  for (const std::uint64_t seed : {1ull, 42ull})
    traces.emplace_back("poisson seed=" + std::to_string(seed),
                        gen_trace(nodes, 60.0, seed));
  for (const bool storm : {false, true}) {
    fault::PhysicsTraceConfig cfg = storm ? fault::storm_trace_defaults()
                                          : fault::physics_trace_defaults();
    cfg.duration_days = 60.0;
    Rng split(91);
    traces.emplace_back(storm ? "storm" : "physics",
                        fault::generate_physics_trace(cfg)
                            .split_to_half_nodes(split)
                            .remap_nodes(nodes));
  }
  return traces;
}

std::string codec_bytes(const TraceWasteResult& r) {
  serde::Writer w;
  trace_waste_codec().save(w, r);
  return w.take();
}

TEST(IncrementalReplay, BitIdenticalToSerialOracleAcrossArchitectures) {
  // 144 nodes x 4 GPUs = 576 GPUs: the smallest cluster every paper
  // architecture (incl. NVL-576) accepts.
  const int nodes = 144;
  auto archs = make_paper_architectures(nodes, 4);
  archs.push_back(std::make_unique<KHopRing>(nodes, 4, 2, /*ring=*/false));
  // 128 exercises TPUv4's pooled regime and NVL-36/72 whole-island waste
  // through the full replay stack, not just the allocator units.
  const std::vector<double> tps{8, 32, 64, 128};
  for (const auto& [label, trace] : oracle_traces(nodes)) {
    ASSERT_EQ(trace.node_count(), nodes) << label;
    for (const auto& arch : archs) {
      for (const double tp : tps) {
        for (const double step : {1.0, 0.25}) {
          SCOPED_TRACE(label + " " + arch->name() + " tp=" +
                       std::to_string(static_cast<int>(tp)) +
                       " step=" + std::to_string(step));
          TraceReplayOptions opts;
          opts.step_days = step;
          expect_same_result(
              evaluate_waste_over_trace(*arch, trace, static_cast<int>(tp),
                                        step),
              evaluate_waste_over_trace(*arch, trace, static_cast<int>(tp),
                                        opts));
        }
      }
    }
    // The benches' replay grid, cell by cell against the oracle in the
    // shard codec's bytes (unsupported cells stay empty).
    for (const int threads : {1, 4}) {
      const auto grid = bench::replay_trace_grid(archs, trace, tps, threads);
      for (std::size_t t = 0; t < tps.size(); ++t) {
        for (std::size_t a = 0; a < archs.size(); ++a) {
          const int tp = static_cast<int>(tps[t]);
          const TraceWasteResult want =
              bench::arch_supports_tp(*archs[a], tp)
                  ? evaluate_waste_over_trace(*archs[a], trace, tp, 1.0)
                  : TraceWasteResult{};
          EXPECT_EQ(codec_bytes(grid.cell({t, a})), codec_bytes(want))
              << label << " threads=" << threads << " "
              << archs[a]->name() << " tp=" << tp;
        }
      }
    }
  }
}

TEST(IncrementalReplay, BitIdenticalOnFractionalStep) {
  const auto trace = gen_trace(96, 45.0, 5);
  const KHopRing ring(96, 4, 3);
  const auto serial = evaluate_waste_over_trace(ring, trace, 16, 0.7);
  TraceReplayOptions opts;
  opts.step_days = 0.7;
  expect_same_result(serial, evaluate_waste_over_trace(ring, trace, 16, opts));
}

}  // namespace
}  // namespace ihbd::topo
