#include "src/ocstrx/bundle.h"

#include <algorithm>
#include <memory>

#include "src/common/contracts.h"

namespace ihbd::ocstrx {

Bundle::Bundle(std::uint32_t id, int gpu_upper, int gpu_lower, int trx_count,
               const TrxConfig& trx_config)
    : id_(id), gpu_upper_(gpu_upper), gpu_lower_(gpu_lower) {
  IHBD_EXPECTS(trx_count > 0);
  IHBD_EXPECTS(gpu_upper >= 0 && gpu_lower >= 0 && gpu_upper != gpu_lower);
  trxs_.reserve(static_cast<std::size_t>(trx_count));
  for (int i = 0; i < trx_count; ++i) {
    trxs_.emplace_back(static_cast<std::uint32_t>(id * 64 + i), trx_config);
  }
}

double Bundle::total_line_rate_gbps() const {
  double total = 0.0;
  for (const auto& t : trxs_) total += t.config().line_rate_gbps;
  return total;
}

double Bundle::bandwidth_gbps(OcsPath path) const {
  double total = 0.0;
  for (const auto& t : trxs_) total += t.bandwidth_gbps(path);
  return total;
}

std::optional<double> Bundle::steer(OcsPath path, Rng& rng, bool preloaded) {
  if (!healthy()) return std::nullopt;
  double worst = 0.0;
  for (auto& t : trxs_) {
    auto latency = t.reconfigure_now(path, rng, preloaded);
    if (!latency) return std::nullopt;
    worst = std::max(worst, *latency);
  }
  return worst;
}

bool Bundle::steer_async(evsim::Engine& engine, OcsPath path, Rng& rng,
                         bool preloaded, std::function<void()> done) {
  if (!healthy()) return false;
  // Completion barrier across members.
  auto remaining = std::make_shared<int>(static_cast<int>(trxs_.size()));
  auto shared_done = std::make_shared<std::function<void()>>(std::move(done));
  for (auto& t : trxs_) {
    const bool ok =
        t.reconfigure(engine, path, rng, preloaded, [remaining, shared_done] {
          if (--*remaining == 0 && *shared_done) (*shared_done)();
        });
    if (!ok) return false;
  }
  return true;
}

void Bundle::fail() {
  for (auto& t : trxs_) {
    if (t.healthy()) ++failed_members_;
    t.fail();
  }
}

void Bundle::repair() {
  for (auto& t : trxs_) {
    if (!t.healthy()) --failed_members_;
    t.repair();
  }
}

void Bundle::fail_one(int index) {
  Transceiver& t = trxs_.at(index);
  if (t.healthy()) ++failed_members_;
  t.fail();
}

}  // namespace ihbd::ocstrx
