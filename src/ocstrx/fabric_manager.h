// Node-level control plane (paper §5.2): the *node fabric manager*
// configures individual OCSTrx modules and handles topology switching.
//
// The fast-switch mechanism (Appendix G.1) preloads "Top-Session"
// configurations into the OCSTrx controller so that a later switch pays
// only the 60-80 us hardware latency, not the control-plane latency.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/ocstrx/bundle.h"

namespace ihbd::ocstrx {

/// A session: the desired path for each bundle of the node.
/// Bundles absent from the map are left untouched.
using Session = std::map<std::uint32_t, OcsPath>;

/// Per-node fabric manager owning the node's OCSTrx bundles.
class NodeFabricManager {
 public:
  /// Build a manager for a node with `gpus` GPUs and `bundles` OCSTrx
  /// bundles wired per the UBB 2.0 pairing of Fig. 4: bundle b serves the
  /// GPU pair (b, (b+1) mod gpus) with upper/lower half lanes.
  NodeFabricManager(int gpus, int bundles, int trx_per_bundle,
                    const TrxConfig& trx_config = {});

  int gpu_count() const { return gpus_; }
  int bundle_count() const { return static_cast<int>(bundles_.size()); }
  Bundle& bundle(int index) { return bundles_.at(index); }
  const Bundle& bundle(int index) const { return bundles_.at(index); }

  /// Preload a named session into the controller (fast-switch candidate).
  /// Overwrites any session with the same name. A controller holds a few
  /// short-named sessions, so lookups scan them linearly.
  void preload_session(const std::string& name, const Session& session);
  bool has_session(const std::string& name) const;

  /// Apply a named preloaded session. Returns the node-level switch latency
  /// (max across touched bundles; hardware-only, since it was preloaded),
  /// or nullopt if the session is unknown or a touched bundle has failed.
  std::optional<double> apply_session(const std::string& name, Rng& rng);

  /// Apply an ad-hoc session (not preloaded: pays control-plane latency).
  std::optional<double> apply_adhoc(const Session& session, Rng& rng);

  /// Steer every healthy bundle to loopback (the idle default: idle OCSTrx
  /// operate in loopback mode, per §4.2).
  void park_all_loopback(Rng& rng);

  /// Aggregate bandwidth the node currently presents on external paths
  /// (Gbit/s), i.e. deliverable HBD bandwidth.
  double external_bandwidth_gbps() const;

  /// True iff all bundles are healthy.
  bool healthy() const;

 private:
  /// A session flattened to its (bundle, path) steps in bundle-id order.
  using Steps = std::vector<std::pair<std::uint32_t, OcsPath>>;
  struct Preloaded {
    std::string name;
    Steps steps;
  };

  const Preloaded* find_session(const std::string& name) const;
  std::optional<double> apply(const Steps& steps, Rng& rng, bool preloaded);

  int gpus_;
  std::vector<Bundle> bundles_;
  std::vector<Preloaded> preloaded_;
};

}  // namespace ihbd::ocstrx
