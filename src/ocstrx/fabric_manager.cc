#include "src/ocstrx/fabric_manager.h"

#include <algorithm>

#include "src/common/contracts.h"
#include "src/common/error.h"

namespace ihbd::ocstrx {

NodeFabricManager::NodeFabricManager(int gpus, int bundles,
                                     int trx_per_bundle,
                                     const TrxConfig& trx_config)
    : gpus_(gpus) {
  if (gpus < 2) throw ConfigError("node needs at least 2 GPUs");
  if (bundles < 1 || bundles > gpus)
    throw ConfigError("bundle count must be in [1, gpus]");
  if (trx_per_bundle < 1) throw ConfigError("trx_per_bundle must be >= 1");
  bundles_.reserve(static_cast<std::size_t>(bundles));
  for (int b = 0; b < bundles; ++b) {
    bundles_.emplace_back(static_cast<std::uint32_t>(b), b, (b + 1) % gpus,
                          trx_per_bundle, trx_config);
  }
}

void NodeFabricManager::preload_session(const std::string& name,
                                        const Session& session) {
  Steps steps(session.begin(), session.end());
  for (Preloaded& p : preloaded_) {
    if (p.name == name) {
      p.steps = std::move(steps);
      return;
    }
  }
  preloaded_.push_back(Preloaded{name, std::move(steps)});
}

const NodeFabricManager::Preloaded* NodeFabricManager::find_session(
    const std::string& name) const {
  for (const Preloaded& p : preloaded_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

bool NodeFabricManager::has_session(const std::string& name) const {
  return find_session(name) != nullptr;
}

std::optional<double> NodeFabricManager::apply_session(const std::string& name,
                                                       Rng& rng) {
  const Preloaded* p = find_session(name);
  if (p == nullptr) return std::nullopt;
  return apply(p->steps, rng, /*preloaded=*/true);
}

std::optional<double> NodeFabricManager::apply_adhoc(const Session& session,
                                                     Rng& rng) {
  return apply(Steps(session.begin(), session.end()), rng,
               /*preloaded=*/false);
}

std::optional<double> NodeFabricManager::apply(const Steps& steps, Rng& rng,
                                               bool preloaded) {
  double worst = 0.0;
  for (const auto& [bundle_id, path] : steps) {
    if (bundle_id >= bundles_.size()) return std::nullopt;
    auto latency = bundles_[bundle_id].steer(path, rng, preloaded);
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
