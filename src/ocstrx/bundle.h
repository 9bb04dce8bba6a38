// OCSTrx bundles and the intra-node wiring of paper §4.2 / Fig. 4.
//
// A node with R GPUs carries up to R bundles of OCSTrx. Each bundle is a
// group of transceivers (e.g. 8 x 800G for a 6.4 Tbps GPU) wired to a PAIR
// of GPUs: one GPU on the upper-half SerDes lanes, the other on the lower
// half. Activating the bundle's loopback path stitches the two GPUs
// together inside the node (ring construction); activating an external path
// extends the ring to a neighbor node.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/ocstrx/transceiver.h"

namespace ihbd::ocstrx {

class NodeFabricManager;

/// A bundle of OCSTrx modules serving one GPU pair. A standalone bundle
/// owns its members; a node's bundle (NodeFabricManager::bundle) addresses
/// a range of the node's contiguous member array. A copy always owns its
/// members. Bundles are not assignable: assigning over a node's bundle
/// would detach it from the node's members.
class Bundle {
 public:
  /// `id` is unique within the node; `gpu_upper`/`gpu_lower` are the node-
  /// local GPU indices wired to the upper/lower half lanes (distinct, >= 0).
  Bundle(std::uint32_t id, int gpu_upper, int gpu_lower, int trx_count,
         const TrxConfig& trx_config = {});
  Bundle(const Bundle& other);
  Bundle(Bundle&&) noexcept = default;
  Bundle& operator=(const Bundle&) = delete;
  Bundle& operator=(Bundle&&) = delete;

  std::uint32_t id() const { return id_; }
  int trx_count() const { return count_; }

  /// Aggregate line rate across member transceivers (Gbit/s).
  double total_line_rate_gbps() const;

  /// Aggregate bandwidth currently deliverable on `path` (Gbit/s): sums
  /// member transceivers whose active path is `path`.
  double bandwidth_gbps(OcsPath path) const;

  /// Synchronously steer every member transceiver to `path`, in member
  /// order (one rng draw per member that actually switches). Returns the
  /// bundle switch latency = max member latency (members switch in
  /// parallel), or nullopt if any member has failed.
  std::optional<double> steer(OcsPath path, Rng& rng, bool preloaded = true) {
    return steer_members(trxs_, count_, path, rng, preloaded);
  }

  /// Event-driven steer: fires `done` when the slowest member completes.
  /// Returns false if any member is failed/busy (no state changed... members
  /// already switched are left pointing at `path`; callers treat a false
  /// return as a fault needing topology-level bypass).
  bool steer_async(evsim::Engine& engine, OcsPath path, Rng& rng,
                   bool preloaded, std::function<void()> done = {});

  /// True iff every member transceiver is healthy. O(1): a member fails or
  /// recovers only through fail()/repair()/fail_one(), which keep the
  /// failed-member count.
  bool healthy() const { return failed_members_ == 0; }
  /// Fail / repair the whole bundle (transceiver-level failures manifest
  /// as regular module failures).
  void fail();
  void repair();
  /// Fail exactly one member (partial-bandwidth degradation). Throws
  /// std::out_of_range for an index outside [0, trx_count()).
  void fail_one(int index);

  /// Read-only: member health changes only through the bundle. Throws
  /// std::out_of_range for an index outside [0, trx_count()).
  const Transceiver& trx(int index) const { return member(index); }

 private:
  friend class NodeFabricManager;
  /// A node's bundle over `count` members at `members`.
  Bundle(std::uint32_t id, Transceiver* members, int count)
      : trxs_(members), count_(count), id_(id) {}

  /// steer() over `count` members at `members`: nullopt, with no draw, if
  /// any member has failed. A node applies sessions through this directly
  /// on its contiguous member array (a bundle is healthy iff all of its
  /// members are).
  static std::optional<double> steer_members(Transceiver* members, int count,
                                             OcsPath path, Rng& rng,
                                             bool preloaded) {
    for (int i = 0; i < count; ++i) {
      if (!members[i].healthy()) return std::nullopt;
    }
    double worst = 0.0;
    for (int i = 0; i < count; ++i) {
      // Cannot fail: every member is healthy.
      worst =
          std::max(worst, *members[i].reconfigure_now(path, rng, preloaded));
    }
    return worst;
  }

  Transceiver& member(int index) const;

  std::vector<Transceiver> own_;  ///< members of a standalone bundle
  Transceiver* trxs_ = nullptr;   ///< own_.data() or the node's range
  int count_ = 0;
  int failed_members_ = 0;
  std::uint32_t id_ = 0;
};

}  // namespace ihbd::ocstrx
