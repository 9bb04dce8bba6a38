// In-process shard transport for tests: one participant claims every
// shard itself and keeps results in memory (optionally checkpointing under
// a directory), plus a scoped installer for the ambient context.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/error.h"
#include "src/runtime/shard.h"

namespace ihbd::runtime {

/// Installs an ambient context for one scope, always restoring on exit so a
/// failing test cannot leak sharding into later tests.
struct AmbientContext {
  explicit AmbientContext(shard::ShardContext* ctx) { shard::set_context(ctx); }
  ~AmbientContext() { shard::set_context(nullptr); }
};

/// Minimal single-process transport: claims every shard itself, keeps
/// results in memory, optionally checkpoints under a directory.
class MemoryShardContext final : public shard::ShardContext {
 public:
  explicit MemoryShardContext(shard::PlanPolicy policy,
                              std::string ckpt_dir = "")
      : policy_(policy), ckpt_dir_(std::move(ckpt_dir)) {}

  shard::PlanPolicy policy() const override { return policy_; }
  void begin_sweep(const shard::ShardPlan& plan) override {
    claimed_.assign(plan.shards.size(), false);
    results_.assign(plan.shards.size(), std::nullopt);
  }
  bool executes() const override { return true; }
  std::optional<std::size_t> claim() override {
    for (std::size_t i = 0; i < claimed_.size(); ++i) {
      if (!claimed_[i]) {
        claimed_[i] = true;
        return i;
      }
    }
    return std::nullopt;
  }
  std::string checkpoint_path(std::size_t shard) const override {
    if (ckpt_dir_.empty()) return "";
    return ckpt_dir_ + "/s" + std::to_string(shard) + ".ckpt";
  }
  void publish_result(std::size_t shard, std::string payload) override {
    results_[shard] = std::move(payload);
  }
  std::optional<std::vector<std::string>> try_collect() override {
    std::vector<std::string> all;
    for (const auto& r : results_) {
      if (!r.has_value()) return std::nullopt;
      all.push_back(*r);
    }
    return all;
  }
  void poll_wait() override {
    // Single participant: if execution didn't fill every result, waiting
    // can never help.
    throw ConfigError("MemoryShardContext: wait would deadlock");
  }
  void end_sweep() override {}

 private:
  shard::PlanPolicy policy_;
  std::string ckpt_dir_;
  std::vector<bool> claimed_;
  std::vector<std::optional<std::string>> results_;
};

}  // namespace ihbd::runtime
