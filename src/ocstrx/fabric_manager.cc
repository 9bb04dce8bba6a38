#include "src/ocstrx/fabric_manager.h"

#include <algorithm>

#include "src/common/error.h"

namespace ihbd::ocstrx {

NodeFabricManager::NodeFabricManager(int gpus, int bundles,
                                     int trx_per_bundle,
                                     const TrxConfig& trx_config)
    : trx_per_bundle_(trx_per_bundle), gpus_(gpus) {
  if (gpus < 2) throw ConfigError("node needs at least 2 GPUs");
  if (bundles < 1 || bundles > gpus)
    throw ConfigError("bundle count must be in [1, gpus]");
  if (trx_per_bundle < 1) throw ConfigError("trx_per_bundle must be >= 1");
  // Bundle b serves GPUs (b, (b+1) mod gpus): distinct since gpus >= 2.
  trxs_.reserve(static_cast<std::size_t>(bundles) *
                static_cast<std::size_t>(trx_per_bundle));
  for (int b = 0; b < bundles; ++b) {
    for (int i = 0; i < trx_per_bundle; ++i)
      trxs_.emplace_back(static_cast<std::uint32_t>(b * 64 + i), trx_config);
  }
  bundles_.reserve(static_cast<std::size_t>(bundles));
  for (int b = 0; b < bundles; ++b) {
    bundles_.push_back(Bundle(static_cast<std::uint32_t>(b),
                              trxs_.data() + b * trx_per_bundle,
                              trx_per_bundle));
  }
}

NodeFabricManager::NodeFabricManager(const NodeFabricManager& other)
    : preloaded_(other.preloaded_),
      steps_(other.steps_),
      trxs_(other.trxs_),
      trx_per_bundle_(other.trx_per_bundle_),
      gpus_(other.gpus_) {
  // Re-point the bundle views at this node's members.
  bundles_.reserve(other.bundles_.size());
  for (const Bundle& b : other.bundles_) {
    Bundle& view = bundles_.emplace_back(
        Bundle(b.id_, trxs_.data() + (b.trxs_ - other.trxs_.data()), b.count_));
    view.failed_members_ = b.failed_members_;
  }
}

NodeFabricManager& NodeFabricManager::operator=(
    const NodeFabricManager& other) {
  if (this != &other) *this = NodeFabricManager(other);
  return *this;
}

void NodeFabricManager::preload_session(const std::string& name,
                                        const Session& session) {
  const int index = find_session(name);
  if (index >= 0) {
    // Overwrite: drop the old steps and close the gap.
    const Preloaded old = preloaded_[static_cast<std::size_t>(index)];
    steps_.erase(steps_.begin() + old.first,
                 steps_.begin() + old.first + old.count);
    for (Preloaded& p : preloaded_) {
      if (p.first >= old.first + old.count) p.first -= old.count;
    }
  }
  const auto first = static_cast<std::uint32_t>(steps_.size());
  for (const auto& [bundle, path] : session) steps_.push_back(Step{bundle, path});
  const auto count = static_cast<std::uint32_t>(session.size());
  if (index >= 0) {
    preloaded_[static_cast<std::size_t>(index)].first = first;
    preloaded_[static_cast<std::size_t>(index)].count = count;
  } else {
    preloaded_.push_back(Preloaded{name, first, count});
  }
}

int NodeFabricManager::find_session(const std::string& name) const {
  for (std::size_t i = 0; i < preloaded_.size(); ++i) {
    if (preloaded_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::optional<double> NodeFabricManager::apply_session(const std::string& name,
                                                       Rng& rng) {
  const int index = find_session(name);
  if (index < 0) return std::nullopt;
  return apply_preloaded(index, rng);
}

std::optional<double> NodeFabricManager::apply_preloaded(int session,
                                                         Rng& rng) {
  const Preloaded& p = preloaded_.at(static_cast<std::size_t>(session));
  return apply(steps_.data() + p.first, p.count, rng, /*preloaded=*/true);
}

std::optional<double> NodeFabricManager::apply_adhoc(const Session& session,
                                                     Rng& rng) {
  std::vector<Step> steps;
  steps.reserve(session.size());
  for (const auto& [bundle, path] : session) steps.push_back(Step{bundle, path});
  return apply(steps.data(), steps.size(), rng, /*preloaded=*/false);
}

std::optional<double> NodeFabricManager::apply(const Step* steps,
                                               std::size_t count, Rng& rng,
                                               bool preloaded) {
  // Bundle::steer on the node's own member array: the bundles themselves
  // are not read.
  const std::size_t bundles = bundles_.size();
  double worst = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    if (steps[i].bundle >= bundles) return std::nullopt;
    const auto latency = Bundle::steer_members(
        trxs_.data() + std::size_t{steps[i].bundle} * trx_per_bundle_,
        trx_per_bundle_, steps[i].path, rng, preloaded);
    if (!latency) return std::nullopt;
    worst = std::max(worst, *latency);
  }
  return worst;
}

void NodeFabricManager::park_all_loopback(Rng& rng) {
  for (auto& b : bundles_) {
    if (b.healthy()) b.steer(OcsPath::kLoopback, rng, /*preloaded=*/true);
  }
}

double NodeFabricManager::external_bandwidth_gbps() const {
  double total = 0.0;
  for (const auto& b : bundles_) {
    total += b.bandwidth_gbps(OcsPath::kExternal1) +
             b.bandwidth_gbps(OcsPath::kExternal2);
  }
  return total;
}

bool NodeFabricManager::healthy() const {
  return std::all_of(bundles_.begin(), bundles_.end(),
                     [](const Bundle& b) { return b.healthy(); });
}

}  // namespace ihbd::ocstrx
