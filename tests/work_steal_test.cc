// Nested fan-out on the flat parallel_for pool (src/runtime/thread_pool.h):
// a parallel_for issued from a body of the same pool's fan-out runs inline,
// so nested grids match a serial oracle bit for bit on any pool size, every
// index of every nesting level runs exactly once under randomized body
// durations, an exception from an inner level reaches the outermost caller
// and leaves the pool usable, and ThreadPool::shared() is one process-wide
// pool. This suite (plus runtime_test) is what the CI ThreadSanitizer job
// runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/runtime/substream.h"
#include "src/runtime/thread_pool.h"

namespace ihbd::runtime {
namespace {

// Deterministic per-(cell, window) value with uneven per-index cost: the
// serial oracle for a nested fan-out (an outer grid whose cells each fan
// out an inner range on the SAME pool).
double cell_window_value(std::size_t cell, std::size_t window) {
  Rng rng = substream(1234, cell * 1024 + window);
  double x = static_cast<double>(cell);
  const int draws = 1 + static_cast<int>(rng.uniform_index(16));
  for (int k = 0; k < draws; ++k) x += rng.normal(0.0, 1.0);
  return x;
}

TEST(WorkSteal, NestedParallelForMatchesSerialOracle) {
  constexpr std::size_t kCells = 6, kWindows = 40;
  std::vector<double> oracle(kCells * kWindows);
  for (std::size_t c = 0; c < kCells; ++c)
    for (std::size_t w = 0; w < kWindows; ++w)
      oracle[c * kWindows + w] = cell_window_value(c, w);

  for (int workers : {1, 2, 8}) {
    ThreadPool pool(workers);
    std::vector<double> out(kCells * kWindows, 0.0);
    pool.parallel_for(kCells, [&](std::size_t c) {
      // Inner fan-out on the same pool runs inline; bodies own their
      // (c, w) slot, so the result is bit-identical for any width.
      pool.parallel_for(kWindows, [&](std::size_t w) {
        out[c * kWindows + w] = cell_window_value(c, w);
      });
    });
    EXPECT_EQ(out, oracle) << "workers=" << workers;  // bitwise
  }
}

TEST(WorkSteal, ThreeNestingLevelsCoverEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kA = 3, kB = 4, kC = 5;
  std::vector<std::atomic<int>> hits(kA * kB * kC);
  pool.parallel_for(kA, [&](std::size_t a) {
    pool.parallel_for(kB, [&](std::size_t b) {
      pool.parallel_for(kC, [&](std::size_t c) {
        ++hits[(a * kB + b) * kC + c];
      });
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkSteal, StressRandomizedDurationsAndNesting) {
  // Bodies spin for pseudo-random durations so claim order varies from
  // round to round; every round must still execute every (outer, inner)
  // index exactly once.
  ThreadPool pool(8);
  for (std::uint64_t round = 0; round < 15; ++round) {
    constexpr std::size_t kOuter = 61;
    std::vector<std::atomic<int>> outer_hits(kOuter);
    std::atomic<long long> inner_total{0};
    long long expect_inner = 0;
    for (std::size_t i = 0; i < kOuter; ++i)
      expect_inner += 1 + static_cast<long long>(i % 5);

    pool.parallel_for(kOuter, [&](std::size_t i) {
      Rng rng = substream(round, i);
      volatile double sink = 0.0;
      const int spin = static_cast<int>(rng.uniform_index(3000));
      for (int k = 0; k < spin; ++k) sink = sink + static_cast<double>(k);
      pool.parallel_for(1 + i % 5, [&](std::size_t) {
        inner_total.fetch_add(1, std::memory_order_relaxed);
      });
      ++outer_hits[i];
    });
    for (const auto& h : outer_hits) ASSERT_EQ(h.load(), 1);
    EXPECT_EQ(inner_total.load(), expect_inner) << "round " << round;
  }
}

TEST(WorkSteal, ExceptionFromInnerNestingLevelPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [&](std::size_t c) {
                          pool.parallel_for(16, [&](std::size_t w) {
                            if (c == 3 && w == 11)
                              throw ConfigError("inner nesting failure");
                          });
                        }),
      ConfigError);
  // The pool must survive a failed nested fan-out.
  std::atomic<int> ran{0};
  pool.parallel_for(50, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 50);
}

TEST(SharedPool, IsProcessWideAndUsable) {
  ThreadPool& a = ThreadPool::shared();
  EXPECT_EQ(&a, &ThreadPool::shared());
  EXPECT_GE(a.size(), 1);
  std::atomic<int> ran{0};
  a.parallel_for(100, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 100);
}

}  // namespace
}  // namespace ihbd::runtime
