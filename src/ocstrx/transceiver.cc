#include "src/ocstrx/transceiver.h"

#include "src/common/contracts.h"

namespace ihbd::ocstrx {

// A node packs its modules contiguously (NodeFabricManager): keep them lean.
static_assert(sizeof(Transceiver) <= 32);

Transceiver::Transceiver(std::uint32_t id, const TrxConfig& config)
    : line_rate_gbps_(config.line_rate_gbps),
      control_plane_latency_s_(config.control_plane_latency_s),
      id_(id) {
  IHBD_EXPECTS(config.line_rate_gbps > 0.0);
  IHBD_EXPECTS(config.serdes_pairs > 0);
}

bool Transceiver::reconfigure(evsim::Engine& engine, OcsPath p, Rng& rng,
                              bool preloaded, std::function<void()> done) {
  if (state_ == TrxState::kFailed || state_ == TrxState::kReconfiguring)
    return false;
  if (state_ == TrxState::kActive && path() == p) {
    if (done) engine.schedule_in(0.0, [d = std::move(done)](evsim::Engine&) {
      d();
    });
    return true;
  }
  state_ = TrxState::kReconfiguring;
  const double latency = switch_latency_s(rng, preloaded);
  const std::uint64_t epoch = epoch_;
  engine.schedule_in(latency, [this, p, epoch,
                               d = std::move(done)](evsim::Engine&) {
    if (epoch != epoch_) return;  // failed mid-flight; drop the completion
    activate(p);
    if (d) d();
  });
  return true;
}

void Transceiver::fail() {
  state_ = TrxState::kFailed;
  ++epoch_;
}

void Transceiver::repair() {
  if (state_ == TrxState::kFailed) {
    state_ = TrxState::kIdle;
    ++epoch_;
  }
}

}  // namespace ihbd::ocstrx
