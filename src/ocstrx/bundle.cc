#include "src/ocstrx/bundle.h"

#include <memory>
#include <stdexcept>
#include <type_traits>

#include "src/common/contracts.h"

namespace ihbd::ocstrx {

// A node's bundles are views into its members: assigning one would detach it.
static_assert(!std::is_copy_assignable_v<Bundle> &&
              !std::is_move_assignable_v<Bundle>);

Bundle::Bundle(std::uint32_t id, int gpu_upper, int gpu_lower, int trx_count,
               const TrxConfig& trx_config)
    : count_(trx_count), id_(id) {
  IHBD_EXPECTS(trx_count > 0);
  IHBD_EXPECTS(gpu_upper >= 0 && gpu_lower >= 0 && gpu_upper != gpu_lower);
  own_.reserve(static_cast<std::size_t>(trx_count));
  for (int i = 0; i < trx_count; ++i) {
    own_.emplace_back(static_cast<std::uint32_t>(id * 64 + i), trx_config);
  }
  trxs_ = own_.data();
}

Bundle::Bundle(const Bundle& other)
    : own_(other.trxs_, other.trxs_ + other.count_),
      trxs_(own_.data()),
      count_(other.count_),
      failed_members_(other.failed_members_),
      id_(other.id_) {}

Transceiver& Bundle::member(int index) const {
  if (index < 0 || index >= count_)
    throw std::out_of_range("Bundle: member index out of range");
  return trxs_[index];
}

double Bundle::total_line_rate_gbps() const {
  double total = 0.0;
  for (int i = 0; i < count_; ++i) total += trxs_[i].line_rate_gbps();
  return total;
}

double Bundle::bandwidth_gbps(OcsPath path) const {
  double total = 0.0;
  for (int i = 0; i < count_; ++i) total += trxs_[i].bandwidth_gbps(path);
  return total;
}

bool Bundle::steer_async(evsim::Engine& engine, OcsPath path, Rng& rng,
                         bool preloaded, std::function<void()> done) {
  if (!healthy()) return false;
  // Completion barrier across members.
  auto remaining = std::make_shared<int>(count_);
  auto shared_done = std::make_shared<std::function<void()>>(std::move(done));
  for (int i = 0; i < count_; ++i) {
    const bool ok = trxs_[i].reconfigure(
        engine, path, rng, preloaded, [remaining, shared_done] {
          if (--*remaining == 0 && *shared_done) (*shared_done)();
        });
    if (!ok) return false;
  }
  return true;
}

void Bundle::fail() {
  for (int i = 0; i < count_; ++i) {
    Transceiver& t = trxs_[i];
    if (t.healthy()) ++failed_members_;
    t.fail();
  }
}

void Bundle::repair() {
  for (int i = 0; i < count_; ++i) {
    Transceiver& t = trxs_[i];
    if (!t.healthy()) --failed_members_;
    t.repair();
  }
}

void Bundle::fail_one(int index) {
  Transceiver& t = member(index);
  if (t.healthy()) ++failed_members_;
  t.fail();
}

}  // namespace ihbd::ocstrx
