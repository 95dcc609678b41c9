#include "index/cracking_rtree.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/math_util.h"

namespace vkg::index {

namespace {

// Global metrics for crack contention (DESIGN.md §6e). The per-tree
// IndexStats atomics stay authoritative for per-window ContentionDelta
// reports; these fold the same events into the process-wide registry so
// all serving metrics share one exposition surface.
struct CrackMetrics {
  obs::Counter& publishes;
  obs::Counter& coalesced;
  obs::Counter& abandoned;
  obs::Counter& waits;
  obs::Histogram& wait_us;
  obs::Histogram& crack_us;

  static CrackMetrics& Get() {
    static CrackMetrics* metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return new CrackMetrics{
          reg.GetCounter("vkg_crack_publishes_total"),
          reg.GetCounter("vkg_crack_coalesced_total"),
          reg.GetCounter("vkg_crack_abandoned_total"),
          reg.GetCounter("vkg_crack_waits_total"),
          reg.GetHistogram("vkg_crack_wait_us"),
          reg.GetHistogram("vkg_crack_us")};
    }();
    return *metrics;
  }
};

// Smallest h with n <= N * M^h: the bulk-load tree height.
int TreeHeight(size_t n, size_t leaf_capacity, size_t fanout) {
  int h = 0;
  double capacity = static_cast<double>(leaf_capacity);
  while (capacity < static_cast<double>(n)) {
    capacity *= static_cast<double>(fanout);
    ++h;
  }
  return h;
}

// A private (not yet published) node carrying `source`'s header. Used
// as the replacement shell a copy-on-write split writes its children
// onto.
Node* CloneHeader(const Node& source) {
  Node* node = new Node();
  node->kind = source.kind;
  node->height = source.height;
  node->mbr = source.mbr;
  node->begin = source.begin;
  node->end = source.end;
  return node;
}

// Accounting hint for retiring a node: the struct plus its owned ids
// (children and their blocks are retired separately).
size_t NodeBytes(const Node& node) {
  return sizeof(Node) + node.owned_ids.capacity() * sizeof(uint32_t) +
         node.children.capacity() * sizeof(Node*);
}

}  // namespace

CrackingRTree::CrackingRTree(const PointSet* points,
                             const RTreeConfig& config)
    : points_(points), config_(config) {
  VKG_CHECK(config.leaf_capacity >= 1);
  VKG_CHECK(config.fanout >= 2);
  VKG_CHECK(config.beta >= 1.0);
  VKG_CHECK(config.split_choices >= 1);
  Node* root = new Node();
  root->begin = 0;
  root->end = points->size();
  root->height = TreeHeight(points->size(), config.leaf_capacity,
                            config.fanout);
  root->kind = root->height == 0 ? Node::Kind::kLeaf
                                 : Node::Kind::kPartition;
  if (!points->empty()) {
    root->mbr = Rect::Empty(points->dim());
    for (uint32_t i = 0; i < points->size(); ++i) {
      root->mbr.ExpandToFit(points->at(i));
    }
  } else {
    root->mbr = Rect::Empty(points->dim() == 0 ? 1 : points->dim());
  }
  root_.store(root, std::memory_order_release);
}

CrackingRTree::~CrackingRTree() {
  // Destruction contract: no concurrent readers or cracks. The current
  // version is deleted directly; nodes retired by earlier cracks are
  // self-contained (they own their id blocks and never point back into
  // the tree), so any that stay in epoch limbo past this dtor are freed
  // by a later reclaim without touching freed memory.
  DeleteSubtree(root_.load(std::memory_order_relaxed));
  for (std::atomic<const Rect*>& slot : published_cracks_) {
    delete slot.load(std::memory_order_relaxed);
  }
  util::EpochManager::Global().TryReclaim();
}

SortedOrders* CrackingRTree::EnsureOrders() const {
  // call_once so concurrent const readers (ElementIds/ProbeSmallest via
  // BatchTopK on a bulk-loaded tree) can race to materialize the lazily
  // built sort orders safely. Once built, the base arrays are immutable
  // — copy-on-write cracks chunk detached copies.
  std::call_once(orders_once_, [this] {
    orders_ = std::make_unique<SortedOrders>(*points_);
  });
  return orders_.get();
}

bool CrackingRTree::CoveredByPublishedCrack(const Rect& query) const {
  if (published_gen_.load(std::memory_order_acquire) == 0) return false;
  // Lock-free ring scan: slots hold immutable heap Rects, so a pin plus
  // an acquire load make dereferencing safe against concurrent
  // overwrite-and-retire.
  util::EpochManager::Guard pin = util::EpochManager::Global().Enter();
  for (const std::atomic<const Rect*>& slot : published_cracks_) {
    const Rect* published = slot.load(std::memory_order_acquire);
    if (published != nullptr && published->ContainsRect(query)) return true;
  }
  return false;
}

void CrackingRTree::NotePublishedCrack(const Rect& query) {
  const Rect* fresh = new Rect(query);
  const Rect* old = published_cracks_[published_next_].exchange(
      fresh, std::memory_order_release);
  published_next_ = (published_next_ + 1) % kPublishedRing;
  published_gen_.fetch_add(1, std::memory_order_release);
  if (old != nullptr) {
    util::EpochManager::Global().RetireObject(const_cast<Rect*>(old),
                                              sizeof(Rect));
  }
}

void CrackingRTree::Crack(const Rect& query, util::QueryControl* control,
                          obs::Trace* trace) {
  if (points_->empty()) return;
  if (control != nullptr && control->ShouldStop()) return;
  obs::Span span(trace, "crack");
  auto coalesced = [&] {
    coalesced_cracks_.fetch_add(1, std::memory_order_relaxed);
    CrackMetrics::Get().coalesced.Inc();
    span.SetAttr("outcome", "coalesced");
  };
  // Coalescing fast path: a fully-published crack region covering this
  // query already did every split this call would do (the tree only
  // ever gets more refined). Skipping is always sound — cracking
  // affects cost, never answers.
  if (CoveredByPublishedCrack(query)) {
    coalesced();
    return;
  }
  // Materialize the sort orders before serializing with other writers:
  // the first-query sort is the heaviest single step and call_once
  // already makes it safe against concurrent readers.
  EnsureOrders();
  // Writers serialize on crack_mu_; readers never touch it, so
  // crack_waits counts writer-writer contention only. Waiting blocks in
  // bounded slices that end early when the holder unlocks: between
  // slices the crack re-checks the caller's deadline/cancel (degrading
  // beats stalling — the query's answer never needs this crack) and
  // whether a concurrent crack just published a covering region (then
  // this one is a no-op). The slice ends at a system_clock time point,
  // so libstdc++ waits in pthread_mutex_timedlock, which TSan
  // intercepts; try_lock_for's pthread_mutex_clocklock is invisible to
  // GCC 12's TSan, which then reports every crack as a race.
  if (!crack_mu_.try_lock()) {
    crack_waits_.fetch_add(1, std::memory_order_relaxed);
    CrackMetrics::Get().waits.Inc();
    obs::ScopedLatencyUs wait_timer(CrackMetrics::Get().wait_us);
    while (true) {
      if (control != nullptr && control->ShouldStop()) {
        abandoned_cracks_.fetch_add(1, std::memory_order_relaxed);
        CrackMetrics::Get().abandoned.Inc();
        span.SetAttr("outcome", "abandoned");
        return;
      }
      if (CoveredByPublishedCrack(query)) {
        coalesced();
        return;
      }
      if (crack_mu_.try_lock_until(std::chrono::system_clock::now() +
                                   std::chrono::microseconds(200))) {
        break;
      }
    }
  }
  std::lock_guard<std::timed_mutex> lock(crack_mu_, std::adopt_lock);
  obs::ScopedLatencyUs crack_timer(CrackMetrics::Get().crack_us);
  // Publication failpoint: `fail` abandons the crack before any new
  // version is built (readers keep the pre-crack tree); `delay` stalls
  // here with the crack mutex held — readers are unaffected (lock-free)
  // while crack waiters drive their degraded paths.
  if (VKG_FAILPOINT("cracking.publish")) {
    abandoned_cracks_.fetch_add(1, std::memory_order_relaxed);
    CrackMetrics::Get().abandoned.Inc();
    span.SetAttr("outcome", "abandoned");
    return;
  }
  const size_t splits_before =
      binary_splits_.load(std::memory_order_relaxed);
  const Node* old_root = root_.load(std::memory_order_relaxed);
  bool complete = true;
  std::vector<const Node*> retired;
  const Node* new_root = Refine(old_root, &query, control, /*shared=*/true,
                                &complete, &retired);
  if (Publish(old_root, new_root, retired)) {
    crack_publishes_.fetch_add(1, std::memory_order_relaxed);
    CrackMetrics::Get().publishes.Inc();
    span.SetAttr("outcome", "published");
    span.SetAttr("splits",
                 static_cast<double>(
                     binary_splits_.load(std::memory_order_relaxed) -
                     splits_before));
  } else {
    // Nothing to split: the tree already holds every split this crack
    // would make, which is what a coalesced crack means.
    coalesced();
  }
  // Only a crack that ran to its stopping conditions makes the region
  // coalescable; a throttled one must be retryable by later queries.
  if (complete) NotePublishedCrack(query);
}

bool CrackingRTree::WantsSplit(const Node& node, const Rect& query) const {
  if (node.height == 0) return false;  // already a leaf-sized element
  const size_t q_count = CountInRegion(ElementIds(node), *points_, query);
  // Stopping condition (Section IV-C step 3): irrelevant to Q, or
  // splitting cannot reduce the leaf pages needed for Q.
  if (q_count == 0) return false;
  if (config_.use_stopping_condition &&
      util::CeilDiv(q_count, config_.leaf_capacity) ==
          util::CeilDiv(node.size(), config_.leaf_capacity)) {
    return false;
  }
  return true;
}

const Node* CrackingRTree::Refine(const Node* node, const Rect* query,
                                  util::QueryControl* control, bool shared,
                                  bool* complete,
                                  std::vector<const Node*>* retired) {
  if (query != nullptr && !node->mbr.Intersects(*query)) return node;
  switch (node->kind) {
    case Node::Kind::kLeaf:
      return node;
    case Node::Kind::kInternal: {
      // Path copying: clone this node only when some child was
      // replaced, sharing every untouched subtree with the previous
      // version. Private children are refined in place and never
      // replaced, so a private node is never cloned.
      std::vector<Node*> new_children;
      new_children.reserve(node->children.size());
      bool changed = false;
      for (Node* child : node->children) {
        const Node* replacement =
            Refine(child, query, control, shared, complete, retired);
        changed |= replacement != child;
        new_children.push_back(const_cast<Node*>(replacement));
      }
      if (!changed) return node;
      Node* clone = CloneHeader(*node);
      clone->children = std::move(new_children);
      retired->push_back(node);
      return clone;
    }
    case Node::Kind::kPartition: {
      if (query != nullptr) {
        if (!WantsSplit(*node, *query)) return node;
        // Crack budget / deadline: refining stops here, the partition
        // stays whole and later queries pick up where this one left off.
        if (control != nullptr && !control->AllowCrack()) {
          *complete = false;
          return node;
        }
      }
      // A published partition is split onto a private replacement; one
      // this walk built is still unpublished and splits in place.
      Node* dest = shared ? CloneHeader(*node) : const_cast<Node*>(node);
      if (!SplitPartitionCow(*node, dest, query, control)) {
        if (shared) delete dest;
        *complete = false;
        return node;
      }
      for (Node* child : dest->children) {
        Refine(child, query, control, /*shared=*/false, complete, retired);
      }
      if (shared) retired->push_back(node);
      return dest;
    }
  }
  return node;
}

bool CrackingRTree::Publish(const Node* old_root, const Node* new_root,
                            const std::vector<const Node*>& retired) {
  if (new_root == old_root) return false;
  // Version swap: the release store pairs with readers' acquire load of
  // root_. Replaced nodes are unlinked from the published structure by
  // this store and only then retired — the ordering the epoch scheme's
  // safety argument requires.
  root_.store(const_cast<Node*>(new_root), std::memory_order_release);
  generation_.fetch_add(1, std::memory_order_release);
  util::EpochManager& epoch = util::EpochManager::Global();
  for (const Node* node : retired) {
    epoch.RetireObject(const_cast<Node*>(node), NodeBytes(*node));
  }
  return true;
}

bool CrackingRTree::SplitPartitionCow(const Node& source, Node* dest,
                                      const Rect* query,
                                      util::QueryControl* control) {
  VKG_CHECK(source.kind == Node::Kind::kPartition);
  VKG_CHECK(source.height >= 1);
  if (VKG_FAILPOINT("cracking.split")) return false;
  SortedOrders* base = EnsureOrders();
  const size_t num_orders = base->num_orders();
  const size_t n = source.size();
  // Detached working copy of this element's ids: the chunking machinery
  // (greedy binary splits or the A* search) rearranges it freely
  // without touching the immutable base arrays or any published node.
  // Copied before dest is mutated, so source == dest is fine.
  std::vector<std::vector<uint32_t>> ids(num_orders);
  for (size_t s = 0; s < num_orders; ++s) {
    std::span<const uint32_t> order = ElementIds(source, s);
    ids[s].assign(order.begin(), order.end());
  }
  SortedOrders local(*points_, std::move(ids));
  const size_t m = util::CeilDiv(n, config_.fanout);
  ChunkingStats stats;
  std::vector<size_t> sizes =
      ChunkPartition(&local, 0, n, m, query, config_, source.height,
                     &stats, control);
  binary_splits_.fetch_add(stats.binary_splits,
                           std::memory_order_relaxed);
  astar_expansions_.fetch_add(stats.astar_expansions,
                              std::memory_order_relaxed);
  std::vector<Node*> children;
  children.reserve(sizes.size());
  size_t offset = 0;
  for (size_t size : sizes) {
    Node* child = new Node();
    child->begin = source.begin + offset;
    child->end = source.begin + offset + size;
    child->height = source.height - 1;
    child->kind = child->height == 0 ? Node::Kind::kLeaf
                                     : Node::Kind::kPartition;
    child->owned_ids.reserve(num_orders * size);
    for (size_t s = 0; s < num_orders; ++s) {
      std::span<const uint32_t> chunk =
          local.Range(s, offset, offset + size);
      child->owned_ids.insert(child->owned_ids.end(), chunk.begin(),
                              chunk.end());
    }
    child->mbr = points_->Bound(local.Range(0, offset, offset + size));
    offset += size;
    children.push_back(child);
  }
  VKG_CHECK(offset == n);
  dest->children = std::move(children);
  dest->kind = Node::Kind::kInternal;
  // An internal node's id set is the union of its children's; drop the
  // now-redundant block (dest may be a split-in-place private node).
  dest->owned_ids.clear();
  dest->owned_ids.shrink_to_fit();
  return true;
}

void CrackingRTree::BuildFull() {
  if (points_->empty()) return;
  EnsureOrders();
  std::lock_guard<std::timed_mutex> lock(crack_mu_);
  // The bulk load is a crack of the whole space (no query region, no
  // control) without stopping conditions: every partition splits with
  // the classic cost.
  const Node* old_root = root_.load(std::memory_order_relaxed);
  bool complete = true;
  std::vector<const Node*> retired;
  const Node* new_root =
      Refine(old_root, nullptr, nullptr, /*shared=*/true, &complete, &retired);
  Publish(old_root, new_root, retired);
}

void CrackingRTree::Search(const Rect& region,
                           const std::function<void(uint32_t)>& fn) const {
  ForEachContour(region, [&](const Node& node) {
    for (uint32_t id : ElementIds(node)) {
      if (region.Contains(points_->at(id))) fn(id);
    }
  });
}

void CrackingRTree::VisitContour(
    const Rect& region, const std::function<void(const Node&)>& fn) const {
  ForEachContour(region, fn);
}

const Node* CrackingRTree::ProbeSmallest(std::span<const float> q) const {
  ReadPin pin = PinForRead();
  const Node* node = &root();
  while (node->kind == Node::Kind::kInternal) {
    const Node* best_containing = nullptr;
    const Node* nearest = nullptr;
    double nearest_dist = 0.0;
    for (const Node* child : node->children) {
      if (child->mbr.Contains(q)) {
        if (best_containing == nullptr ||
            child->size() < best_containing->size()) {
          best_containing = child;
        }
      }
      double d = child->mbr.MinDistSquared(q);
      if (nearest == nullptr || d < nearest_dist) {
        nearest = child;
        nearest_dist = d;
      }
    }
    node = best_containing != nullptr ? best_containing : nearest;
  }
  return node;
}

IndexStats CrackingRTree::Stats() const {
  ReadPin pin = PinForRead();
  const Node& root_node = root();
  IndexStats s;
  NodeCounts counts = CountNodes(root_node);
  s.num_nodes = counts.total();
  s.internals = counts.internals;
  s.leaves = counts.leaves;
  s.partitions = counts.partitions;
  s.binary_splits = binary_splits_.load(std::memory_order_relaxed);
  s.astar_expansions = astar_expansions_.load(std::memory_order_relaxed);
  s.node_bytes = SubtreeMemoryBytes(root_node);
  s.base_array_bytes = orders_ == nullptr ? 0 : orders_->MemoryBytes();
  s.height = root_node.height;
  s.crack_publishes = crack_publishes_.load(std::memory_order_relaxed);
  s.coalesced_cracks = coalesced_cracks_.load(std::memory_order_relaxed);
  s.abandoned_cracks = abandoned_cracks_.load(std::memory_order_relaxed);
  s.crack_waits = crack_waits_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace vkg::index
