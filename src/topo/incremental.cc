#include "src/topo/incremental.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "src/common/contracts.h"
#include "src/common/error.h"
#include "src/obs/metrics.h"

namespace ihbd::topo {

namespace {

/// Incremental-allocator metrics (src/obs): how often each KHop flip tier
/// fires, per-island flip volume, and the dirty-word traffic. All recording
/// sits behind obs::enabled() so the allocators' O(1)/O(log N) hot paths
/// are unperturbed by default.
struct AllocObs {
  obs::Counter& khop_residue_step;   ///< tier 1: unbroken-ring residue step
  obs::Counter& khop_arc_patch;      ///< tier 2: arc-interior length patch
  obs::Counter& khop_general;        ///< tier 3: window subtract/re-add
  obs::Counter& island_flips;        ///< per-island O(1) flips applied
  obs::Counter& dirty_words;         ///< word deltas consumed by apply_words
};

AllocObs& alloc_obs() {
  static AllocObs o{obs::counter("alloc.khop.residue_step"),
                    obs::counter("alloc.khop.arc_patch"),
                    obs::counter("alloc.khop.general_window"),
                    obs::counter("alloc.island.flips"),
                    obs::counter("alloc.dirty_words")};
  return o;
}

}  // namespace

// ---------------------------------------------------------------------------
// KHopRingIncrementalAllocator
//
// Invariants (mirroring KHopRing::healthy_arcs exactly):
//   * healthy_ (set bit = healthy node) / fenwick_ / healthy_count_ track
//     the healthy node set, and prev_/next_ link the healthy nodes into a
//     circular list (entries for faulty nodes are stale until they come
//     back up).
//   * fenwick_ is word-granular: leaf w holds popcount(healthy_.word(w)),
//     so healthy_prefix(i) is a tree walk over i/64 words plus one masked
//     popcount of the word containing i — and a flip updates the single
//     leaf of its word.
//   * cuts_ holds every healthy position p whose link to the next healthy
//     node s (clockwise, wrapping) is NOT bypassable: the faulty gap
//     between them exceeds K-1 hops, or it is the wrap link of the line
//     variant. A lone healthy node's self-link is always a cut.
//   * Arcs are the intervals between consecutive cuts: for each c in
//     cuts_, one arc holding the healthy nodes in (c, next_cut(c)]. With
//     no cuts (and any healthy nodes) the ring is one unbroken circular
//     arc of healthy_count_ nodes.
//   * wasted_nodes_ is the sum of len % m over all arcs — exactly what
//     allocate() derives from its arc walk; usable nodes follow as
//     healthy_count_ - wasted_nodes_ (usable + wasted = healthy, always).
//
// A single-node flip only disturbs the links incident to the flipped node
// x and its healthy neighbors p and s: cut membership can change at keys p
// and x only. Every affected arc therefore lies between the nearest
// *persistent* cuts around the neighborhood (cA counterclockwise of p, cB
// clockwise of x); flip() subtracts the arcs in that window, mutates the
// structures, and re-adds the window's arcs — O(log(N/64)) per flip. When
// no persistent cut exists the whole ring holds at most three arcs and is
// re-accumulated globally at the same cost.
// ---------------------------------------------------------------------------

KHopRingIncrementalAllocator::KHopRingIncrementalAllocator(const KHopRing& ring,
                                                           int tp_size_gpus)
    : ring_(ring), n_(ring.node_count()), circular_(ring.is_ring()) {
  if (tp_size_gpus <= 0 || tp_size_gpus % ring.gpus_per_node() != 0)
    throw ConfigError("TP size must be a positive multiple of GPUs/node");
  m_ = tp_size_gpus / ring.gpus_per_node();
}

void KHopRingIncrementalAllocator::fenwick_word_add(int w, int delta) {
  const int words = static_cast<int>(fenwick_.size()) - 1;
  for (++w; w <= words; w += w & -w)
    fenwick_[static_cast<std::size_t>(w)] += delta;
}

int KHopRingIncrementalAllocator::healthy_prefix(int i) const {
  const int w = i / fault::PackedMask::kWordBits;
  const int r = i % fault::PackedMask::kWordBits;
  // Low r+1 bits of the word containing i, plus full words before it.
  int s = std::popcount(healthy_.word(w) &
                        (~std::uint64_t{0} >>
                         (fault::PackedMask::kWordBits - 1 - r)));
  for (int j = w; j > 0; j -= j & -j)
    s += fenwick_[static_cast<std::size_t>(j)];
  return s;
}

int KHopRingIncrementalAllocator::next_healthy_of_faulty(int x) const {
  // Word-scan the packed healthy set clockwise, wrapping. Callers
  // guarantee at least one healthy node exists.
  const int s = healthy_.find_first_from(x + 1 == n_ ? 0 : x + 1);
  return s >= 0 ? s : healthy_.find_first_from(0);
}

int KHopRingIncrementalAllocator::arc_len(int a, int b) const {
  if (a == b) return healthy_count_;  // full circle
  const int pa = healthy_prefix(a);
  const int pb = healthy_prefix(b);
  return a < b ? pb - pa : healthy_count_ - pa + pb;
}

int KHopRingIncrementalAllocator::gap(int p, int s) const {
  const int d = s - p - 1;  // p == s (lone node) -> n - 1
  return d < 0 ? d + n_ : d;
}

bool KHopRingIncrementalAllocator::is_cut_link(int p, int s) const {
  if (gap(p, s) > ring_.max_bypassable_run()) return true;
  return !circular_ && s <= p;  // the line variant has no wrap link
}

int KHopRingIncrementalAllocator::next_cut(int c) const {
  const auto it = std::upper_bound(cuts_.begin(), cuts_.end(), c);
  return it == cuts_.end() ? cuts_.front() : *it;
}

int KHopRingIncrementalAllocator::prev_cut_excluding(int from, int e1,
                                                     int e2) const {
  std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(cuts_.begin(), cuts_.end(), from) - cuts_.begin());
  for (std::size_t i = 0; i < cuts_.size(); ++i) {
    idx = (idx == 0 ? cuts_.size() : idx) - 1;  // step backwards, wrapping
    const int v = cuts_[idx];
    if (v != e1 && v != e2) return v;
  }
  return -1;
}

int KHopRingIncrementalAllocator::next_cut_excluding(int from, int e1,
                                                     int e2) const {
  std::size_t idx = static_cast<std::size_t>(
      std::upper_bound(cuts_.begin(), cuts_.end(), from) - cuts_.begin());
  for (std::size_t i = 0; i < cuts_.size(); ++i) {
    if (idx == cuts_.size()) idx = 0;
    const int v = cuts_[idx];
    if (v != e1 && v != e2) return v;
    ++idx;
  }
  return -1;
}

void KHopRingIncrementalAllocator::cut_erase(int key) {
  const auto it = std::lower_bound(cuts_.begin(), cuts_.end(), key);
  if (it != cuts_.end() && *it == key) cuts_.erase(it);
}

void KHopRingIncrementalAllocator::cut_insert(int key) {
  cuts_.insert(std::lower_bound(cuts_.begin(), cuts_.end(), key), key);
}

void KHopRingIncrementalAllocator::add_arc(int len, int sign) {
  wasted_nodes_ += sign * (len % m_);
}

void KHopRingIncrementalAllocator::accumulate_window(int from_cut, int to_cut,
                                                     int sign) {
  // Consecutive arcs share a boundary, so chain the prefix sums: one
  // Fenwick query per cut instead of two per arc.
  int c = from_cut;
  int pc = healthy_prefix(c);
  while (true) {
    const int cn = next_cut(c);
    const int pn = c == cn ? pc : healthy_prefix(cn);
    const int len =
        c == cn ? healthy_count_
                : (c < cn ? pn - pc : healthy_count_ - pc + pn);
    add_arc(len, sign);
    if (cn == to_cut) break;
    c = cn;
    pc = pn;
  }
}

void KHopRingIncrementalAllocator::accumulate_all(int sign) {
  if (healthy_count_ == 0) return;
  if (cuts_.empty()) {  // unbroken circular arc
    add_arc(healthy_count_, sign);
    return;
  }
  const int c0 = *cuts_.begin();
  accumulate_window(c0, c0, sign);
}

void KHopRingIncrementalAllocator::rebuild_from_healthy() {
  prev_.assign(static_cast<std::size_t>(n_), 0);
  next_.assign(static_cast<std::size_t>(n_), 0);
  const int words = healthy_.word_count();
  fenwick_.assign(static_cast<std::size_t>(words) + 1, 0);
  // Linear-time Fenwick build: add each leaf into its parent once.
  for (int j = 1; j <= words; ++j) {
    fenwick_[static_cast<std::size_t>(j)] +=
        std::popcount(healthy_.word(j - 1));
    const int parent = j + (j & -j);
    if (parent <= words)
      fenwick_[static_cast<std::size_t>(parent)] +=
          fenwick_[static_cast<std::size_t>(j)];
  }
  healthy_count_ = healthy_.popcount();
  cuts_.clear();
  wasted_nodes_ = 0;
  // Link the healthy nodes circularly and collect cuts, straight off the
  // packed words. Cut keys come out ascending: stays sorted.
  int first = -1;
  int prev_node = -1;
  fault::for_each_set_bit(healthy_, [&](int i) {
    if (first < 0) {
      first = i;
    } else {
      next_[static_cast<std::size_t>(prev_node)] = i;
      prev_[static_cast<std::size_t>(i)] = prev_node;
      if (is_cut_link(prev_node, i)) cuts_.push_back(prev_node);
    }
    prev_node = i;
  });
  if (prev_node >= 0) {  // close the circle (self-link for a lone node)
    next_[static_cast<std::size_t>(prev_node)] = first;
    prev_[static_cast<std::size_t>(first)] = prev_node;
    if (is_cut_link(prev_node, first)) cuts_.push_back(prev_node);
  }
  accumulate_all(+1);
  initialized_ = true;
}

void KHopRingIncrementalAllocator::flip(int x) {
  const bool to_faulty = healthy_.test(x);
  const int xw = x / fault::PackedMask::kWordBits;

  // Lone-node transitions have no healthy neighbors to define links.
  // (Counted under the general tier: they rewrite cut structure wholesale.)
  if ((to_faulty ? healthy_count_ == 1 : healthy_count_ == 0) &&
      obs::enabled())
    alloc_obs().khop_general.add(1);
  if (to_faulty && healthy_count_ == 1) {
    accumulate_all(-1);
    healthy_.set(x, false);
    fenwick_word_add(xw, -1);
    healthy_count_ = 0;
    cuts_.clear();
    return;
  }
  if (!to_faulty && healthy_count_ == 0) {
    healthy_.set(x, true);
    fenwick_word_add(xw, +1);
    healthy_count_ = 1;
    prev_[static_cast<std::size_t>(x)] = x;
    next_[static_cast<std::size_t>(x)] = x;
    cut_insert(x);  // a lone node's self-link is always a cut
    accumulate_all(+1);
    return;
  }

  // Healthy neighbors of x, excluding x itself (ring order p -> x -> s with
  // only faulty nodes in between; p == s when only one other node exists).
  // Down-flips read them off the linked list in O(1); up-flips word-scan
  // the packed healthy set to the successor.
  const int s = to_faulty ? next_[static_cast<std::size_t>(x)]
                          : next_healthy_of_faulty(x);
  const int p = to_faulty ? prev_[static_cast<std::size_t>(x)]
                          : prev_[static_cast<std::size_t>(s)];

  // Structural mutations shared by all tiers below.
  const auto unlink_x = [&] {
    healthy_.set(x, false);
    fenwick_word_add(xw, -1);
    --healthy_count_;
    next_[static_cast<std::size_t>(p)] = s;
    prev_[static_cast<std::size_t>(s)] = p;
  };
  const auto link_x = [&] {
    healthy_.set(x, true);
    fenwick_word_add(xw, +1);
    ++healthy_count_;
    next_[static_cast<std::size_t>(p)] = x;
    prev_[static_cast<std::size_t>(x)] = p;
    next_[static_cast<std::size_t>(x)] = s;
    prev_[static_cast<std::size_t>(s)] = x;
  };

  // An up-flip can only shrink gaps, so it introduces a cut only via the
  // line variant's wrap link (s <= p); a down-flip only via the new (p, s)
  // link. Everything else leaves cut membership untouched.
  if (to_faulty ? (!is_cut_link(p, x) && !is_cut_link(x, s) &&
                   !is_cut_link(p, s))
                : !is_cut_link(p, s)) {
    if (cuts_.empty()) {
      // Tier 1: unbroken ring stays unbroken. The single circular arc
      // changes length by one, so the wasted residue (== healthy_count_ %
      // m_ here) steps modularly — no division, no search, no Fenwick
      // range query.
      if (obs::enabled()) alloc_obs().khop_residue_step.add(1);
      if (to_faulty) {
        unlink_x();
        wasted_nodes_ = wasted_nodes_ == 0 ? m_ - 1 : wasted_nodes_ - 1;
      } else {
        link_x();
        if (++wasted_nodes_ == m_) wasted_nodes_ = 0;
      }
    } else {
      // Tier 2: arc-interior flip with cuts elsewhere. Only the arc
      // containing x changes length; locate it with two plain binary
      // searches (p and x hold no cuts here, so no exclusions needed).
      if (obs::enabled()) alloc_obs().khop_arc_patch.add(1);
      const auto lb = std::lower_bound(cuts_.begin(), cuts_.end(), x);
      const int ca = lb == cuts_.begin() ? cuts_.back() : *(lb - 1);
      const int cb = next_cut(ca);
      const int len = arc_len(ca, cb);  // before the mutation, so with x
      if (to_faulty) {
        unlink_x();
        wasted_nodes_ += (len - 1) % m_ - len % m_;
      } else {
        link_x();
        wasted_nodes_ += (len + 1) % m_ - len % m_;
      }
    }
    return;
  }

  // Tier 3 (general): cut membership changes at keys p and x only; the
  // affected arcs lie between the nearest persistent cuts around the
  // neighborhood. Subtract those arcs, mutate, re-add them.
  if (obs::enabled()) alloc_obs().khop_general.add(1);
  const int ca = prev_cut_excluding(p, p, x);
  const int cb = ca < 0 ? -1 : next_cut_excluding(x, p, x);

  if (ca < 0) {
    accumulate_all(-1);
  } else {
    accumulate_window(ca, cb, -1);
  }

  if (to_faulty) {
    unlink_x();
    cut_erase(x);  // old link x -> s
    cut_erase(p);  // old link p -> x
    const int s2 = healthy_count_ == 1 ? p : s;
    if (is_cut_link(p, s2)) cut_insert(p);  // new link p -> s
  } else {
    link_x();
    cut_erase(p);  // old link p -> s
    if (is_cut_link(p, x)) cut_insert(p);
    const int s2 = healthy_count_ == 2 ? p : s;
    if (is_cut_link(x, s2)) cut_insert(x);
  }

  if (ca < 0) {
    accumulate_all(+1);
  } else {
    accumulate_window(ca, cb, +1);
  }
}

void KHopRingIncrementalAllocator::fill_alloc() {
  alloc_.total_gpus = ring_.total_gpus();
  alloc_.faulty_gpus = (n_ - healthy_count_) * ring_.gpus_per_node();
  alloc_.usable_gpus =
      (healthy_count_ - wasted_nodes_) * ring_.gpus_per_node();
  alloc_.wasted_healthy_gpus = wasted_nodes_ * ring_.gpus_per_node();
}

const Allocation& KHopRingIncrementalAllocator::apply_words(
    const fault::PackedMask& mask,
    const std::vector<fault::WordDelta>& deltas) {
  IHBD_EXPECTS(mask.size() == n_);
  if (!initialized_) {
    healthy_ = mask.complement();
    rebuild_from_healthy();
  } else {
    for (const fault::WordDelta& d : deltas) {
      IHBD_EXPECTS(d.word >= 0 && d.word < healthy_.word_count());
      // Genuine changes only: our faulty word is the complement of the
      // healthy word over the valid bits.
      const std::uint64_t ours =
          ~healthy_.word(d.word) & healthy_.valid_mask(d.word);
      const std::uint64_t changed = mask.word(d.word) ^ ours;
      if (changed == 0) continue;
      if (obs::enabled()) alloc_obs().dirty_words.add(1);
      // flip() interleaves Fenwick queries with cut/arc bookkeeping, so
      // bits are applied one at a time — but all of a word's flips hit the
      // same Fenwick leaf, and the word compare above already filtered
      // the spurious ones.
      fault::for_each_set_bit(changed, d.word, [&](int x) { flip(x); });
    }
  }
  fill_alloc();
  return alloc_;
}

// ---------------------------------------------------------------------------
// Per-island baseline allocators
//
// Every §6.1 baseline decomposes into islands that fragment independently,
// so the per-island aggregates below are exact restatements of the
// corresponding allocate() arithmetic — integer-only, hence bit-identical:
//   * modulo islands (Big-Switch / NVL / TPUv4 TP <= cube):
//       wasted = sum_i healthy_i % m
//   * TPUv4 pooled (TP > cube), with npc nodes per cube:
//       wasted = (healthy - clean_cubes * npc) + (clean_cubes * npc) % m
//   * SiP-Ring: wasted = sum_{broken rings} (m - faults_r) + trailing_healthy
// A flip touches exactly one island, so each update is O(1); seeding from a
// full mask is one masked popcount per island.
// ---------------------------------------------------------------------------

PerIslandAllocatorBase::PerIslandAllocatorBase(const HbdArchitecture& arch,
                                               int tp_size_gpus)
    : n_(arch.node_count()), gpus_per_node_(arch.gpus_per_node()) {
  if (tp_size_gpus <= 0 || tp_size_gpus % arch.gpus_per_node() != 0)
    throw ConfigError("TP size must be a positive multiple of GPUs/node");
  m_ = tp_size_gpus / arch.gpus_per_node();
  alloc_.total_gpus = arch.total_gpus();
}

void PerIslandAllocatorBase::initialize_from(const fault::PackedMask& mask) {
  faulty_ = mask;
  healthy_count_ = n_ - mask.popcount();
  init_islands(faulty_);
  initialized_ = true;
}

const Allocation& PerIslandAllocatorBase::finish() {
  const int wasted = wasted_nodes();
  alloc_.faulty_gpus = (n_ - healthy_count_) * gpus_per_node_;
  alloc_.usable_gpus = (healthy_count_ - wasted) * gpus_per_node_;
  alloc_.wasted_healthy_gpus = wasted * gpus_per_node_;
  return alloc_;
}

const Allocation& PerIslandAllocatorBase::apply_words(
    const fault::PackedMask& mask,
    const std::vector<fault::WordDelta>& deltas) {
  IHBD_EXPECTS(mask.size() == n_);
  if (!initialized_) {
    initialize_from(mask);
    return finish();
  }
  for (const fault::WordDelta& d : deltas) {
    IHBD_EXPECTS(d.word >= 0 && d.word < faulty_.word_count());
    // Spurious-flip filtering is one word compare; the genuine flips split
    // by direction with two ANDs.
    const std::uint64_t changed = mask.word(d.word) ^ faulty_.word(d.word);
    if (changed == 0) continue;
    const std::uint64_t now_faulty = changed & mask.word(d.word);
    const std::uint64_t now_healthy = changed ^ now_faulty;
    healthy_count_ +=
        std::popcount(now_healthy) - std::popcount(now_faulty);
    faulty_.apply_xor(d.word, changed);
    fault::for_each_set_bit(now_faulty, d.word,
                            [&](int x) { island_flip(x, true); });
    fault::for_each_set_bit(now_healthy, d.word,
                            [&](int x) { island_flip(x, false); });
    if (obs::enabled()) {
      AllocObs& o = alloc_obs();
      o.dirty_words.add(1);
      o.island_flips.add(static_cast<std::uint64_t>(std::popcount(changed)));
    }
  }
  return finish();
}

IslandModuloAllocator::IslandModuloAllocator(const HbdArchitecture& arch,
                                             IslandPartition islands,
                                             int tp_size_gpus)
    : PerIslandAllocatorBase(arch, tp_size_gpus), islands_(islands) {
  IHBD_EXPECTS(islands_.node_count == arch.node_count());
  // Modulo islands partition the cluster exactly; a trailing remainder
  // would need SiP-Ring-style special casing.
  IHBD_EXPECTS(islands_.node_count % islands_.nodes_per_island == 0);
  island_of_.resize(static_cast<std::size_t>(islands_.node_count));
  for (int i = 0; i < islands_.node_count; ++i)
    island_of_[static_cast<std::size_t>(i)] = islands_.island_of(i);
  residue_.resize(static_cast<std::size_t>(islands_.nodes_per_island) + 1);
  for (int h = 0; h <= islands_.nodes_per_island; ++h)
    residue_[static_cast<std::size_t>(h)] = h % m_;
}

void IslandModuloAllocator::init_islands(const fault::PackedMask& faulty) {
  const int count = islands_.full_island_count();
  island_healthy_.assign(static_cast<std::size_t>(count), 0);
  wasted_nodes_ = 0;
  for (int i = 0; i < count; ++i) {
    const int healthy =
        islands_.nodes_per_island -
        faulty.popcount_range(islands_.island_begin(i), islands_.island_end(i));
    island_healthy_[static_cast<std::size_t>(i)] = healthy;
    wasted_nodes_ += healthy % m_;
  }
}

void IslandModuloAllocator::island_flip(int node, bool to_faulty) {
  int& healthy = island_healthy_[static_cast<std::size_t>(
      island_of_[static_cast<std::size_t>(node)])];
  const int next = healthy + (to_faulty ? -1 : 1);
  wasted_nodes_ += residue_[static_cast<std::size_t>(next)] -
                   residue_[static_cast<std::size_t>(healthy)];
  healthy = next;
}

TpuCubePoolAllocator::TpuCubePoolAllocator(const TpuV4& tpu, int tp_size_gpus)
    : PerIslandAllocatorBase(tpu, tp_size_gpus),
      cubes_(tpu.island_partition()) {
  IHBD_EXPECTS(tp_size_gpus > tpu.cube_gpus());
  cube_of_.resize(static_cast<std::size_t>(cubes_.node_count));
  for (int i = 0; i < cubes_.node_count; ++i)
    cube_of_[static_cast<std::size_t>(i)] = cubes_.island_of(i);
}

void TpuCubePoolAllocator::init_islands(const fault::PackedMask& faulty) {
  const int count = cubes_.full_island_count();
  cube_faulty_.assign(static_cast<std::size_t>(count), 0);
  clean_cubes_ = 0;
  for (int c = 0; c < count; ++c) {
    const int faults =
        faulty.popcount_range(cubes_.island_begin(c), cubes_.island_end(c));
    cube_faulty_[static_cast<std::size_t>(c)] = faults;
    if (faults == 0) ++clean_cubes_;
  }
}

void TpuCubePoolAllocator::island_flip(int node, bool to_faulty) {
  int& faults =
      cube_faulty_[static_cast<std::size_t>(
          cube_of_[static_cast<std::size_t>(node)])];
  if (to_faulty) {
    if (faults++ == 0) --clean_cubes_;
  } else {
    if (--faults == 0) ++clean_cubes_;
  }
}

int TpuCubePoolAllocator::wasted_nodes() const {
  const int pool = clean_cubes_ * cubes_.nodes_per_island;
  return (healthy_count() - pool) + pool % m_;
}

SipRingIncrementalAllocator::SipRingIncrementalAllocator(const SipRing& sip,
                                                         int tp_size_gpus)
    : PerIslandAllocatorBase(sip, tp_size_gpus),
      rings_(sip.ring_partition(m_)) {
  ring_of_.resize(static_cast<std::size_t>(rings_.node_count));
  for (int i = 0; i < rings_.node_count; ++i)
    ring_of_[static_cast<std::size_t>(i)] = rings_.island_of(i);
}

void SipRingIncrementalAllocator::init_islands(
    const fault::PackedMask& faulty) {
  const int count = rings_.full_island_count();
  ring_faulty_.assign(static_cast<std::size_t>(count), 0);
  broken_waste_nodes_ = 0;
  for (int r = 0; r < count; ++r) {
    const int begin = rings_.island_begin(r);
    const int faults = faulty.popcount_range(begin, begin + m_);
    ring_faulty_[static_cast<std::size_t>(r)] = faults;
    if (faults > 0) broken_waste_nodes_ += m_ - faults;
  }
  const int trail_begin = rings_.island_begin(count);
  trailing_healthy_ = node_count() - trail_begin -
                      faulty.popcount_range(trail_begin, node_count());
}

void SipRingIncrementalAllocator::island_flip(int node, bool to_faulty) {
  const int ring = ring_of_[static_cast<std::size_t>(node)];
  if (ring >= rings_.full_island_count()) {
    trailing_healthy_ += to_faulty ? -1 : 1;
    return;
  }
  int& faults = ring_faulty_[static_cast<std::size_t>(ring)];
  // A broken ring wastes its m - faults healthy members; an intact ring
  // wastes none.
  broken_waste_nodes_ -= faults > 0 ? m_ - faults : 0;
  faults += to_faulty ? 1 : -1;
  broken_waste_nodes_ += faults > 0 ? m_ - faults : 0;
}

std::unique_ptr<IncrementalAllocator> make_incremental_allocator(
    const HbdArchitecture& arch, int tp_size_gpus) {
  if (const auto* ring = dynamic_cast<const KHopRing*>(&arch))
    return std::make_unique<KHopRingIncrementalAllocator>(*ring, tp_size_gpus);
  if (const auto* bs = dynamic_cast<const BigSwitch*>(&arch))
    return std::make_unique<IslandModuloAllocator>(
        *bs, bs->island_partition(), tp_size_gpus);
  if (const auto* nvl = dynamic_cast<const NvlSwitch*>(&arch))
    return std::make_unique<IslandModuloAllocator>(
        *nvl, nvl->island_partition(), tp_size_gpus);
  if (const auto* tpu = dynamic_cast<const TpuV4*>(&arch)) {
    if (tp_size_gpus > tpu->cube_gpus())
      return std::make_unique<TpuCubePoolAllocator>(*tpu, tp_size_gpus);
    return std::make_unique<IslandModuloAllocator>(
        *tpu, tpu->island_partition(), tp_size_gpus);
  }
  if (const auto* sip = dynamic_cast<const SipRing*>(&arch))
    return std::make_unique<SipRingIncrementalAllocator>(*sip, tp_size_gpus);
  throw ConfigError("no incremental allocator for architecture '" +
                    arch.name() + "'");
}

}  // namespace ihbd::topo
