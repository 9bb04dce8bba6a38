// Node-level control plane (paper §5.2): the *node fabric manager*
// configures individual OCSTrx modules and handles topology switching.
//
// The fast-switch mechanism (Appendix G.1) preloads "Top-Session"
// configurations into the OCSTrx controller so that a later switch pays
// only the 60-80 us hardware latency, not the control-plane latency.
//
// Storage is contiguous per node: every bundle's transceivers live in one
// array (bundle b's members follow bundle b-1's), and every preloaded
// session's (bundle, path) steps live in another, so applying a session
// walks two short arrays instead of per-bundle and per-session heap
// objects. Applying draws one rng.uniform per transceiver that actually
// switches, in bundle-id then member order; a session that reaches a
// failed bundle returns nullopt, and the bundles before it stay switched.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
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
  NodeFabricManager(const NodeFabricManager& other);
  NodeFabricManager& operator=(const NodeFabricManager& other);
  NodeFabricManager(NodeFabricManager&&) noexcept = default;
  NodeFabricManager& operator=(NodeFabricManager&&) noexcept = default;

  int gpu_count() const { return gpus_; }
  int bundle_count() const { return static_cast<int>(bundles_.size()); }
  /// A view into this node's members (Bundle is not assignable, so it
  /// cannot be detached from them).
  Bundle& bundle(int index) { return bundles_.at(index); }
  const Bundle& bundle(int index) const { return bundles_.at(index); }

  /// Preload a named session into the controller (fast-switch candidate).
  /// Overwrites any session with the same name. A controller holds a few
  /// short-named sessions, so lookups scan them linearly.
  void preload_session(const std::string& name, const Session& session);
  bool has_session(const std::string& name) const {
    return find_session(name) >= 0;
  }

  /// Index of the preloaded session `name`, or -1 if none. Indices are
  /// stable: preloading appends new names and overwrites in place.
  int find_session(const std::string& name) const;

  /// Apply a named preloaded session. Returns the node-level switch latency
  /// (max across touched bundles; hardware-only, since it was preloaded),
  /// or nullopt if the session is unknown or a touched bundle has failed.
  std::optional<double> apply_session(const std::string& name, Rng& rng);

  /// apply_session() for the session find_session() returned (>= 0).
  std::optional<double> apply_preloaded(int session, Rng& rng);

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
  struct Step {
    std::uint32_t bundle;
    OcsPath path;
  };
  /// A preloaded session: its steps are steps_[first, first + count), in
  /// bundle-id order.
  struct Preloaded {
    std::string name;
    std::uint32_t first;
    std::uint32_t count;
  };

  std::optional<double> apply(const Step* steps, std::size_t count, Rng& rng,
                              bool preloaded);

  // Read by every apply: kept together at the front.
  std::vector<Preloaded> preloaded_;
  std::vector<Step> steps_;        ///< every preloaded session's steps
  std::vector<Transceiver> trxs_;  ///< every bundle's members, bundle-major
  int trx_per_bundle_;
  int gpus_;
  std::vector<Bundle> bundles_;    ///< views into trxs_
};

}  // namespace ihbd::ocstrx
