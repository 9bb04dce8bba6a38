// The plan -> execute -> reduce pipeline and its durability story:
// deterministic planning, in-memory and file-based transports, checkpoint
// rotation/corruption fallback, stale-lease reclaim — and, throughout,
// bit-identity of the sharded result with the plain local engine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/common/error.h"
#include "src/common/serde.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/shard.h"
#include "src/runtime/sweep.h"
#include "src/sweepd/protocol.h"
#include "tests/memory_shard_context.h"

namespace ihbd::runtime {
namespace {

namespace fs = std::filesystem;

SweepSpec make_spec(int trials = 3, std::uint64_t salt = 0) {
  SweepSpec spec;
  spec.seed = 99;
  spec.trials = trials;
  spec.fingerprint_salt = salt;
  spec.axes = {Axis::of_values("x", {0.5, 1.5, 2.5}),
               Axis::of_labels("mode", {"a", "b"})};
  return spec;
}

double trial_value(const Scenario& s, Rng& rng) {
  return rng.uniform() + s.value(0);
}

/// Reference: the plain local engine (no ambient context).
SweepResult local_reference(const SweepSpec& spec) {
  return run_sweep(spec, trial_value, /*threads=*/2);
}

void expect_bit_identical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].count(), b.cells[i].count()) << "cell " << i;
    EXPECT_EQ(a.cells[i].mean(), b.cells[i].mean()) << "cell " << i;
    EXPECT_EQ(a.cells[i].variance(), b.cells[i].variance()) << "cell " << i;
    EXPECT_EQ(a.cells[i].min(), b.cells[i].min()) << "cell " << i;
    EXPECT_EQ(a.cells[i].max(), b.cells[i].max()) << "cell " << i;
    EXPECT_EQ(a.cells[i].samples(), b.cells[i].samples()) << "cell " << i;
  }
}

// --- planner ----------------------------------------------------------------

TEST(ShardPlan, DeterministicBalancedTiling) {
  const SweepSpec spec = make_spec();  // 6 cells
  const shard::ShardPlan plan =
      shard::plan_shards(spec, {.max_shards = 4, .split_trials = false});
  ASSERT_EQ(plan.shards.size(), 4u);
  EXPECT_EQ(plan.cell_count, 6u);
  EXPECT_EQ(plan.trials, 3);

  // Contiguous, in order, balanced to within one cell, covering everything.
  std::size_t next_cell = 0;
  for (std::size_t i = 0; i < plan.shards.size(); ++i) {
    const shard::ShardSpec& sh = plan.shards[i];
    EXPECT_EQ(sh.index, i);
    EXPECT_EQ(sh.cell_begin, next_cell);
    next_cell = sh.cell_end;
    EXPECT_GE(sh.cells(), 1u);
    EXPECT_LE(sh.cells(), 2u);
    EXPECT_EQ(sh.trial_begin, 0);
    EXPECT_EQ(sh.trial_end, 3);
  }
  EXPECT_EQ(next_cell, plan.cell_count);

  // Same spec + policy -> the identical plan, including ids, in any process.
  const shard::ShardPlan again =
      shard::plan_shards(spec, {.max_shards = 4, .split_trials = false});
  EXPECT_EQ(again.plan_hash, plan.plan_hash);
  for (std::size_t i = 0; i < plan.shards.size(); ++i)
    EXPECT_EQ(again.shards[i].id, plan.shards[i].id);
}

TEST(ShardPlan, NeverSplitsFinerThanOneCell) {
  const shard::ShardPlan plan = shard::plan_shards(make_spec(),
                                                   {.max_shards = 100});
  EXPECT_EQ(plan.shards.size(), 6u);  // 6 cells, whole-cell granularity
}

TEST(ShardPlan, TrialSplitCoversTrialRanges) {
  SweepSpec spec = make_spec(/*trials=*/8);
  spec.axes = {Axis::of_values("x", {1.0})};  // one cell
  const shard::ShardPlan plan =
      shard::plan_shards(spec, {.max_shards = 4, .split_trials = true});
  ASSERT_EQ(plan.shards.size(), 4u);
  int next_trial = 0;
  for (const shard::ShardSpec& sh : plan.shards) {
    EXPECT_EQ(sh.cells(), 1u);
    EXPECT_EQ(sh.trial_begin, next_trial);
    next_trial = sh.trial_end;
    EXPECT_EQ(sh.trials(), 2);
  }
  EXPECT_EQ(next_trial, 8);
}

TEST(ShardPlan, IdentityRespondsToSpecAndPolicy) {
  const std::uint64_t base = shard::spec_fingerprint(make_spec());
  EXPECT_EQ(shard::spec_fingerprint(make_spec()), base);
  EXPECT_NE(shard::spec_fingerprint(make_spec(4)), base);  // trials differ
  EXPECT_NE(shard::spec_fingerprint(make_spec(3, 7)), base);  // salt differs
  SweepSpec other_seed = make_spec();
  other_seed.seed = 100;
  EXPECT_NE(shard::spec_fingerprint(other_seed), base);
  SweepSpec other_values = make_spec();
  other_values.axes[0] = Axis::of_values("x", {0.5, 1.5, 2.6});
  EXPECT_NE(shard::spec_fingerprint(other_values), base);

  // The policy folds into the plan hash but not the spec hash.
  const auto p4 = shard::plan_shards(make_spec(), {.max_shards = 4});
  const auto p2 = shard::plan_shards(make_spec(), {.max_shards = 2});
  EXPECT_EQ(p4.spec_hash, p2.spec_hash);
  EXPECT_NE(p4.plan_hash, p2.plan_hash);

  EXPECT_THROW(shard::plan_shards(make_spec(), {.max_shards = 0}),
               ConfigError);
  EXPECT_EQ(shard::shard_id_hex(0xABCDull).size(), 16u);
}

// --- pipeline vs local engine ----------------------------------------------

TEST(ShardPipeline, ShardedScalarSweepIsBitIdenticalToLocal) {
  const SweepSpec spec = make_spec(/*trials=*/5);
  const SweepResult ref = local_reference(spec);

  for (const std::size_t max_shards : {1u, 2u, 5u, 16u}) {
    MemoryShardContext ctx({.max_shards = max_shards});
    AmbientContext ambient(&ctx);
    const SweepResult sharded = run_sweep(spec, trial_value, /*threads=*/2);
    expect_bit_identical(ref, sharded);
  }
}

TEST(ShardPipeline, TrialSplitIsExactInCountMinMaxSamples) {
  SweepSpec spec = make_spec(/*trials=*/8);
  spec.axes = {Axis::of_values("x", {1.0})};
  const SweepResult ref = local_reference(spec);

  MemoryShardContext ctx({.max_shards = 4, .split_trials = true});
  AmbientContext ambient(&ctx);
  const SweepResult sharded = run_sweep(spec, trial_value, /*threads=*/2);

  ASSERT_EQ(sharded.cells.size(), 1u);
  const Accumulator &a = ref.cells[0], &b = sharded.cells[0];
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.samples(), b.samples());  // concatenated in trial order
  // Chan's moment merge is associative only up to FP rounding.
  EXPECT_NEAR(a.mean(), b.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), b.variance(), 1e-12);
}

TEST(ShardPipeline, ReduceRejectsIncompleteCoverage) {
  const SweepSpec spec = make_spec();
  const shard::ShardPlan plan = shard::plan_shards(spec, {.max_shards = 2});

  std::vector<std::string> too_few(1, std::string());
  std::vector<Accumulator> cells(spec.cell_count());
  EXPECT_THROW(detail::reduce_shard_payloads(plan, too_few,
                                             shard::accumulator_codec(),
                                             cells),
               ConfigError);

  // A payload claiming the wrong shard id must be rejected.
  shard::ShardPayload bogus;
  bogus.plan_hash = plan.plan_hash;
  bogus.shard_id = plan.shards[0].id + 1;
  bogus.shard_index = 0;
  std::vector<std::string> wrong_id = {shard::encode_shard_payload(bogus),
                                       std::string()};
  EXPECT_THROW(detail::reduce_shard_payloads(plan, wrong_id,
                                             shard::accumulator_codec(),
                                             cells),
               ConfigError);
}

// --- checkpoint durability --------------------------------------------------

TEST(Checkpoint, WriteRotatesGenerationsAndLoadsFallBack) {
  const std::string dir = ::testing::TempDir() + "/ckpt_rotate";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/s.ckpt";

  ASSERT_TRUE(checkpoint::write(path, "gen-one"));
  ASSERT_TRUE(checkpoint::write(path, "gen-two"));

  EXPECT_EQ(checkpoint::load_file(path).payload, "gen-two");
  EXPECT_EQ(checkpoint::load_file(path + ".1").payload, "gen-one");

  // Corrupt the newest generation: fallback recovers the previous one and
  // reports what it saw.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\xFF');
  }
  EXPECT_EQ(checkpoint::load_file(path).status,
            checkpoint::LoadStatus::bad_checksum);
  const checkpoint::Recovered rec = checkpoint::load_with_fallback(path);
  EXPECT_TRUE(rec.valid);
  EXPECT_EQ(rec.generation, 1);
  EXPECT_EQ(rec.payload, "gen-one");
  EXPECT_EQ(rec.primary, checkpoint::LoadStatus::bad_checksum);

  // Truncation and wrong file kind are typed distinctly.
  fs::resize_file(path, 5);
  EXPECT_EQ(checkpoint::load_file(path).status,
            checkpoint::LoadStatus::truncated);
  ASSERT_TRUE(serde::write_file_atomic(path, std::string(64, 'x')));
  EXPECT_EQ(checkpoint::load_file(path).status,
            checkpoint::LoadStatus::bad_magic);
  fs::remove(path);
  fs::remove(path + ".1");
  EXPECT_EQ(checkpoint::load_file(path).status, checkpoint::LoadStatus::missing);
  EXPECT_FALSE(checkpoint::load_with_fallback(path).valid);
}

TEST(Checkpoint, ResumeSkipsCheckpointedCellsAndStaysBitIdentical) {
  const SweepSpec spec = make_spec(/*trials=*/4);  // 6 cells, 1 shard below
  const SweepResult ref = local_reference(spec);

  const std::string dir = ::testing::TempDir() + "/ckpt_resume";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Craft a mid-shard checkpoint holding the first 2 cells, exactly as a
  // killed worker would have left it.
  const shard::ShardPlan plan = shard::plan_shards(spec, {.max_shards = 1});
  shard::ShardPayload partial;
  partial.plan_hash = plan.plan_hash;
  partial.shard_id = plan.shards[0].id;
  partial.shard_index = 0;
  for (std::size_t cell = 0; cell < 2; ++cell) {
    shard::ShardPayloadEntry e;
    e.cell = cell;
    e.trial_begin = 0;
    e.trial_end = spec.trials;
    serde::Writer w;
    shard::accumulator_codec().save(w, ref.cells[cell]);
    e.acc_bytes = w.take();
    partial.entries.push_back(std::move(e));
  }
  MemoryShardContext ctx({.max_shards = 1}, dir);
  ASSERT_TRUE(checkpoint::write(ctx.checkpoint_path(0),
                                shard::encode_shard_payload(partial)));

  // Count fresh executions: resumed cells must not re-run their trials.
  std::atomic<int> trial_calls{0};
  const auto counting_trial = [&](const Scenario& s, Rng& rng) {
    trial_calls.fetch_add(1);
    return trial_value(s, rng);
  };
  AmbientContext ambient(&ctx);
  const SweepResult resumed = run_sweep(spec, counting_trial, /*threads=*/1);
  expect_bit_identical(ref, resumed);
  EXPECT_EQ(trial_calls.load(), 4 * (6 - 2));  // only the 4 pending cells
}

TEST(Checkpoint, CorruptPrimaryFallsBackToPreviousGenerationBitIdentical) {
  const SweepSpec spec = make_spec(/*trials=*/3);
  const SweepResult ref = local_reference(spec);

  const std::string dir = ::testing::TempDir() + "/ckpt_corrupt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  MemoryShardContext seed_ctx({.max_shards = 1}, dir);
  {
    // A full run with checkpoint_every=1 leaves the two newest generations
    // behind (5 and 6 completed cells).
    AmbientContext ambient(&seed_ctx);
    const SweepResult first = run_sweep(spec, trial_value, /*threads=*/1);
    expect_bit_identical(ref, first);
  }
  const std::string path = seed_ctx.checkpoint_path(0);
  ASSERT_TRUE(fs::exists(path));
  ASSERT_TRUE(fs::exists(path + ".1"));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\xFF');
  }

  std::atomic<int> trial_calls{0};
  const auto counting_trial = [&](const Scenario& s, Rng& rng) {
    trial_calls.fetch_add(1);
    return trial_value(s, rng);
  };
  MemoryShardContext ctx({.max_shards = 1}, dir);
  AmbientContext ambient(&ctx);
  const SweepResult resumed = run_sweep(spec, counting_trial, /*threads=*/1);
  expect_bit_identical(ref, resumed);
  // The fallback generation held all but the last completed cell, so only
  // the one missing cell re-ran.
  EXPECT_EQ(trial_calls.load(), 3 * 1);
}

// --- file-based transport (src/sweepd) --------------------------------------

sweepd::FileShardOptions file_opts(const std::string& dir,
                                   const std::string& owner) {
  sweepd::FileShardOptions o;
  o.dir = dir;
  o.owner = owner;
  o.max_shards = 3;
  o.lease_timeout_s = 5.0;
  o.poll_interval_s = 0.01;
  return o;
}

TEST(FileShard, SweepThroughRunDirIsBitIdenticalAndResultsAreReused) {
  const SweepSpec spec = make_spec(/*trials=*/4);
  const SweepResult ref = local_reference(spec);
  const std::string dir = ::testing::TempDir() + "/fileshard_basic";
  fs::remove_all(dir);

  {
    sweepd::FileShardContext ctx(file_opts(dir, "w1"));
    AmbientContext ambient(&ctx);
    expect_bit_identical(ref, run_sweep(spec, trial_value, /*threads=*/2));
  }

  // A second participant joining the finished run dir must not execute
  // anything — every shard already has a published result to collect.
  std::atomic<int> trial_calls{0};
  const auto counting_trial = [&](const Scenario& s, Rng& rng) {
    trial_calls.fetch_add(1);
    return trial_value(s, rng);
  };
  sweepd::FileShardContext ctx2(file_opts(dir, "w2"));
  AmbientContext ambient(&ctx2);
  expect_bit_identical(ref, run_sweep(spec, counting_trial, /*threads=*/2));
  EXPECT_EQ(trial_calls.load(), 0);
}

TEST(FileShard, ManifestPinsShardCountForLateJoiners) {
  const std::string dir = ::testing::TempDir() + "/fileshard_manifest";
  fs::remove_all(dir);
  sweepd::FileShardContext first(file_opts(dir, "w1"));  // max_shards=3
  auto other = file_opts(dir, "w2");
  other.max_shards = 7;  // CLI mismatch: manifest must win
  sweepd::FileShardContext second(other);
  EXPECT_EQ(second.policy().max_shards, 3u);
  EXPECT_EQ(second.options().max_shards, 3u);
}

TEST(FileShard, StaleLeaseIsReclaimedFreshLeaseIsNot) {
  const SweepSpec spec = make_spec();
  const std::string dir = ::testing::TempDir() + "/fileshard_lease";
  fs::remove_all(dir);

  sweepd::FileShardContext ctx(file_opts(dir, "rescuer"));
  const shard::ShardPlan plan = shard::plan_shards(spec, ctx.policy());
  ctx.begin_sweep(plan);

  // Manufacture a dead owner's lease for shard 0: correct file name, mtime
  // far in the past.
  const fs::path sweep_dir =
      fs::path(dir) / ("sweep-000-" + shard::shard_id_hex(plan.plan_hash));
  const fs::path lease0 =
      sweep_dir /
      ("s0000-" + shard::shard_id_hex(plan.shards[0].id) + ".lease");
  {
    std::ofstream out(lease0);
    out << "deadworker\n";
  }
  fs::last_write_time(lease0,
                      fs::file_time_type::clock::now() - std::chrono::hours(1));

  // ...and a live owner's lease for shard 1 (fresh mtime): must be skipped.
  const fs::path lease1 =
      sweep_dir /
      ("s0001-" + shard::shard_id_hex(plan.shards[1].id) + ".lease");
  {
    std::ofstream out(lease1);
    out << "liveworker\n";
  }

  const auto first = ctx.claim();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 0u);  // reclaimed the stale lease
  // Without releasing shard 0 (its lease is now fresh — ours), the next
  // claim must skip both held leases and take shard 2.
  const auto second = ctx.claim();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, 2u);  // shard 1's fresh lease was respected
  ctx.release(*first);
  ctx.release(*second);
  ctx.end_sweep();
}

TEST(FileShard, InvalidResultFileIsDiscardedAndBecomesClaimable) {
  const SweepSpec spec = make_spec();
  const std::string dir = ::testing::TempDir() + "/fileshard_badresult";
  fs::remove_all(dir);

  sweepd::FileShardContext ctx(file_opts(dir, "w1"));
  const shard::ShardPlan plan = shard::plan_shards(spec, ctx.policy());
  ctx.begin_sweep(plan);

  const fs::path sweep_dir =
      fs::path(dir) / ("sweep-000-" + shard::shard_id_hex(plan.plan_hash));
  const fs::path result0 =
      sweep_dir /
      ("s0000-" + shard::shard_id_hex(plan.shards[0].id) + ".result");
  {
    std::ofstream out(result0, std::ios::binary);
    out << "garbage, not a frame";
  }
  EXPECT_FALSE(ctx.try_collect().has_value());
  EXPECT_FALSE(fs::exists(result0));  // deleted -> claimable again
  const auto claimed = ctx.claim();
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(*claimed, 0u);
  ctx.release(*claimed);
  ctx.end_sweep();
}

}  // namespace
}  // namespace ihbd::runtime
