// OCSTrx: the Silicon-Photonics OCS transceiver (paper §4.1, Design 1).
//
// An OCSTrx embeds the OCS switch matrix inside a QSFP-DD 800G transceiver.
// It exposes three Tx/Rx paths - two external (primary/backup neighbor) and
// one cross-lane internal loopback - with time-division bandwidth
// allocation: exactly one path carries the full GPU bandwidth at any time,
// and switching between paths costs the 60-80 us hardware reconfiguration
// latency (plus control-plane latency unless the target session was
// preloaded; see FastSwitchController).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "src/common/rng.h"
#include "src/evsim/engine.h"
#include "src/phy/switch_matrix.h"

namespace ihbd::ocstrx {

using phy::OcsPath;

/// Lifecycle state of one OCSTrx module.
enum class TrxState : std::uint8_t {
  kIdle,           ///< powered, no path activated (dark)
  kActive,         ///< one path carrying traffic
  kReconfiguring,  ///< switch matrix mid-flight; no path carries traffic
  kFailed,         ///< module failure (manifests as a regular transceiver
                   ///< failure - no new failure patterns, per the paper)
};

/// Static description of one OCSTrx module. The switch latency itself is
/// the OCS matrix's 60-80 us (phy::OcsSwitchMatrix::sample_reconfig_latency_s).
struct TrxConfig {
  double line_rate_gbps = 800.0;   ///< QSFP-DD 800G
  int serdes_pairs = 8;            ///< 8x112G electrical lanes
  /// Control-plane latency added when the target configuration was NOT
  /// preloaded (software/session setup; the paper's fast-switch mechanism
  /// removes this). ASSUMPTION: 500 us, consistent with "software-level
  /// delays such as reconnection at the network protocol layer" being
  /// excluded from the 60-80 us figure.
  double control_plane_latency_s = 500e-6;
};

/// One OCS transceiver. Reconfiguration is modelled on the discrete-event
/// engine; a synchronous helper is provided for analytic callers. It keeps
/// only the two config values it reads, so a node's modules pack densely.
class Transceiver {
 public:
  Transceiver(std::uint32_t id, const TrxConfig& config = {});

  std::uint32_t id() const { return id_; }
  TrxState state() const { return state_; }
  double line_rate_gbps() const { return line_rate_gbps_; }

  /// Currently active path (empty unless state()==kActive).
  std::optional<OcsPath> active_path() const {
    if (state_ != TrxState::kActive) return std::nullopt;
    return path();
  }

  /// Bandwidth currently deliverable on `path` in Gbit/s: the full line rate
  /// if that path is active, 0 otherwise (time-division allocation - no
  /// splitting across paths, per §4.1 Design 1).
  double bandwidth_gbps(OcsPath p) const {
    return state_ == TrxState::kActive && path() == p ? line_rate_gbps_ : 0.0;
  }

  /// True if the module can carry traffic (not failed).
  bool healthy() const { return state_ != TrxState::kFailed; }

  /// --- Event-driven reconfiguration -------------------------------------
  /// Begin switching to `path`. Completion fires `done` on the engine after
  /// the hardware latency (plus control-plane latency unless `preloaded`).
  /// During the switch no path carries traffic. No-op (immediate `done`)
  /// if `path` is already active. Returns false if the module has failed or
  /// a reconfiguration is already in flight.
  bool reconfigure(evsim::Engine& engine, OcsPath path, Rng& rng,
                   bool preloaded, std::function<void()> done = {});

  /// --- Synchronous helper ------------------------------------------------
  /// Switch immediately and return the latency the switch would have taken
  /// (seconds). Returns std::nullopt if failed. One rng draw iff the module
  /// actually switches.
  std::optional<double> reconfigure_now(OcsPath p, Rng& rng,
                                        bool preloaded = true) {
    if (state_ == TrxState::kFailed) return std::nullopt;
    if (state_ == TrxState::kActive && path() == p) return 0.0;
    const double latency = switch_latency_s(rng, preloaded);
    activate(p);
    return latency;
  }

  /// Inject / clear a module failure.
  void fail();
  void repair();

 private:
  OcsPath path() const { return static_cast<OcsPath>(path_); }
  void activate(OcsPath p) {
    state_ = TrxState::kActive;
    path_ = static_cast<std::uint8_t>(p);
  }
  double switch_latency_s(Rng& rng, bool preloaded) const {
    double latency = phy::OcsSwitchMatrix::sample_reconfig_latency_s(rng);
    if (!preloaded) latency += control_plane_latency_s_;
    return latency;
  }

  double line_rate_gbps_;
  double control_plane_latency_s_;
  std::uint64_t epoch_ = 0;  ///< invalidates in-flight completions on fail()
  std::uint32_t id_;
  TrxState state_ = TrxState::kIdle;
  std::uint8_t path_ = 0;  ///< the active OcsPath; meaningful when kActive
};

}  // namespace ihbd::ocstrx
