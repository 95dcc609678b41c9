#ifndef VKG_INDEX_CRACKING_RTREE_H_
#define VKG_INDEX_CRACKING_RTREE_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "index/rtree_node.h"
#include "index/sort_orders.h"
#include "index/topk_splits.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/epoch.h"
#include "util/status.h"

namespace vkg::index {

/// Aggregate statistics of a (possibly partial) R-tree.
struct IndexStats {
  size_t num_nodes = 0;
  size_t internals = 0;
  size_t leaves = 0;
  size_t partitions = 0;  // unsplit contour elements
  size_t binary_splits = 0;
  size_t astar_expansions = 0;
  size_t node_bytes = 0;        // index structure overhead
  size_t base_array_bytes = 0;  // shared sort-order arrays (data)
  int height = 0;

  // Crack-contention counters (concurrent serving; DESIGN.md §6d/§6f).
  size_t crack_publishes = 0;   // cracks that mutated and published
  size_t coalesced_cracks = 0;  // skipped: covered, or nothing to split
  size_t abandoned_cracks = 0;  // gave up: stop-token or failpoint
  size_t crack_waits = 0;       // crack-mutex acquisitions that waited
};

/// The cracking, uneven R-tree of Section IV.
///
/// Thread safety — lock-free reads via epoch-published versions
/// (DESIGN.md §6f): every node reachable from the published root is
/// immutable. A crack builds replacement subtrees aside, swaps the
/// version pointer with a release store, and retires the nodes it
/// replaced through util::EpochManager; they are freed only after every
/// reader that could hold them has unpinned. Concretely:
///
///  * Readers take ZERO locks. Search()/VisitContour()/ProbeSmallest()/
///    Stats()/Save() pin the reclamation epoch internally (a ReadPin —
///    two atomic stores, re-entrant per thread) and traverse whatever
///    version an acquire load of the root returns.
///  * Engines that keep node pointers or ElementIds() spans across
///    calls must hold one PinForRead() pin for the whole read phase:
///    the pin keeps retired versions alive, and immutability keeps them
///    consistent — a reader mid-traversal simply finishes on the
///    version it started with. Holding a pin across Crack() is safe
///    (writers never wait for readers); it only delays reclamation.
///  * Crack() serializes writers on a single crack-side mutex with
///    bounded, QueryControl-aware waits: a contended crack past the
///    caller's deadline/cancel is abandoned (cracking refines
///    performance, never answers), and a crack whose region was already
///    published by another thread, or that splits nothing, is coalesced
///    away. Readers never touch this mutex, so crack_waits counts
///    writer-writer contention only.
///
/// The tree starts as a single partition holding every point and is
/// *cracked* incrementally: each query region triggers top-down splits
/// only of the contour elements it touches (INCREMENTALINDEXBUILD), or —
/// with config.split_choices > 1 — the A* search over the top-k split
/// choices (TOP-KSPLITSINDEXBUILD, Algorithm 2). Calling BuildFull()
/// instead performs the offline bulk load of Algorithm 1, which is the
/// paper's bulk-loaded baseline; both run the same refinement walk.
class CrackingRTree {
 public:
  /// RAII epoch pin for a read phase. Re-entrant per thread (nested
  /// pins reuse the outer one) and never blocks: it guarantees that
  /// every node and id span observed while the pin is held stays
  /// allocated, even after concurrent cracks publish newer versions.
  class ReadPin {
   public:
    ReadPin() = default;
    explicit ReadPin(util::EpochManager* manager) : guard_(manager) {}
    ReadPin(ReadPin&&) noexcept = default;
    ReadPin& operator=(ReadPin&&) noexcept = default;

   private:
    util::EpochManager::Guard guard_;
  };

  /// `points` must outlive the tree.
  CrackingRTree(const PointSet* points, const RTreeConfig& config);
  ~CrackingRTree();

  CrackingRTree(const CrackingRTree&) = delete;
  CrackingRTree& operator=(const CrackingRTree&) = delete;

  /// Pins the reclamation epoch for this thread (see ReadPin).
  ReadPin PinForRead() const {
    return ReadPin(&util::EpochManager::Global());
  }

  /// Incrementally builds the index for `query` (Section IV-C). Safe to
  /// call concurrently from any number of threads — including while
  /// this thread holds a ReadPin: cracks serialize on the crack-side
  /// mutex and publish complete versions, so readers never observe a
  /// partially split node.
  ///
  /// `control` (optional) bounds the work: once the deadline, the
  /// cancellation token, or ResourceBudget::max_cracked_nodes trips, no
  /// further partitions are split — including while *waiting* for the
  /// crack mutex, so a contended crack degrades instead of stalling the
  /// query. Cracking only refines the index — never answers — so an
  /// abandoned crack leaves a valid tree that later queries continue to
  /// refine.
  ///
  /// `trace` (optional) records the crack as a span — with its outcome
  /// (published / coalesced / abandoned) — in the calling query's trace
  /// (DESIGN.md §6e).
  void Crack(const Rect& query, util::QueryControl* control = nullptr,
             obs::Trace* trace = nullptr);

  /// Full offline bulk load (Algorithm 1 with the classic cost model).
  /// Builds the complete tree aside and publishes it as one version
  /// (setup-time call; it serializes with concurrent cracks).
  void BuildFull();

  /// Invokes `fn(point_id)` for every point inside `region`. Does not
  /// modify the index. Lock-free; pins the epoch internally.
  void Search(const Rect& region,
              const std::function<void(uint32_t)>& fn) const;

  /// Visits every contour element (leaf or partition) whose MBR
  /// intersects `region`, without scanning points. Lock-free; the Node
  /// references are valid only while the caller's (re-entrant) pin is
  /// held.
  void VisitContour(const Rect& region,
                    const std::function<void(const Node&)>& fn) const;

  /// Descends to the smallest contour element containing `q` (or the
  /// nearest one when no MBR contains it). Never null. Lock-free; hold
  /// your own ReadPin if you keep the pointer.
  const Node* ProbeSmallest(std::span<const float> q) const;

  /// Point ids of a contour element, in sort order `s` (ascending
  /// coordinate s — the traversal order used by FINDTOP-KENTITIES).
  /// The span aliases immutable storage (the node's owned block or the
  /// base arrays); concurrent callers must hold a ReadPin so the node
  /// is not reclaimed under them.
  std::span<const uint32_t> ElementIds(const Node& node, size_t s = 0) const {
    VKG_DCHECK(node.IsContourElement());
    if (!node.owned_ids.empty()) return node.OwnedIds(s);
    return orders().Range(s, node.begin, node.end);
  }

  /// The current published version. Capture the reference ONCE per read
  /// phase (under a ReadPin) — consecutive calls may return different
  /// versions once a concurrent crack publishes.
  const Node& root() const {
    return *root_.load(std::memory_order_acquire);
  }

  /// Monotone count of version publications (cracks that mutated the
  /// tree, BuildFull): the tree's *crack generation*. A cached artifact
  /// derived from version G is stale once crack_generation() != G — the
  /// server's result cache stamps entries with this value and treats a
  /// mismatch as an invalidating miss (DESIGN.md §6g). Bumped with a
  /// release store immediately after the root swap, so a reader that
  /// observes generation G also observes every publication up to G.
  uint64_t crack_generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  const PointSet& points() const { return *points_; }
  /// The shared base sort-order arrays. Built lazily on first use, so
  /// constructing a cracking tree costs O(1): the sorting work lands in
  /// the first query, matching the paper's "no offline index building".
  /// Immutable once built — cracks work on detached copies.
  const SortedOrders& orders() const { return *EnsureOrders(); }
  const RTreeConfig& config() const { return config_; }

  IndexStats Stats() const;

  /// Persists the cracked structure (sort orders + node tree + config) so
  /// a warmed index survives restarts — the "fire off the first query
  /// offline so all online queries are fast" workflow of Section VI.
  util::Status Save(const std::string& path) const;

  /// Restores a tree previously saved over the *same* point set (size
  /// and dimensionality are validated; a coordinate checksum guards
  /// against mismatched data).
  static util::Result<std::unique_ptr<CrackingRTree>> Load(
      const std::string& path, const PointSet* points);

 private:
  SortedOrders* EnsureOrders() const;
  /// True when a fully-published crack region contains `query`.
  /// Lock-free: pins the epoch and scans the atomic ring.
  bool CoveredByPublishedCrack(const Rect& query) const;
  /// Records a completed, unthrottled crack region for coalescing.
  /// Caller holds crack_mu_.
  void NotePublishedCrack(const Rect& query);

  /// The one refinement walk behind Crack and BuildFull. Splits the
  /// partitions of the subtree at `node` that `query` touches, subject
  /// to the stopping conditions and `control`'s crack budget; `query` ==
  /// nullptr is the bulk load: every partition splits with the classic
  /// cost and no stopping condition. A `shared` node (reachable from the
  /// published root) is never mutated: the walk path-copies it, appends
  /// it to `retired` and returns the replacement (== `node` when the
  /// subtree was untouched). Nodes this walk built are private and split
  /// in place. Sets *complete = false when any split was skipped
  /// (budget, deadline, or failpoint) and re-cracking the same region
  /// could still make progress.
  const Node* Refine(const Node* node, const Rect* query,
                     util::QueryControl* control, bool shared, bool* complete,
                     std::vector<const Node*>* retired);
  /// Swaps the published version to `new_root`, bumps the crack
  /// generation, and only then retires the replaced nodes. Returns false
  /// (a no-op) when `new_root` equals `old_root`. Caller holds crack_mu_.
  bool Publish(const Node* old_root, const Node* new_root,
               const std::vector<const Node*>& retired);
  /// Chunks contour element `source` into children written onto `dest`
  /// (one level of BULKLOADCHUNK) via a detached copy of the element's
  /// ids; children own their id blocks. `dest` must carry source's
  /// header and be private; source == dest is allowed. `query` ==
  /// nullptr uses the classic cost. Returns false when the split was
  /// abandoned (cracking.split failpoint) — `dest` is left unchanged.
  bool SplitPartitionCow(const Node& source, Node* dest, const Rect* query,
                         util::QueryControl* control);
  /// True when the stopping conditions of Section IV-C step 3 say
  /// contour element `node` should be split for `query`.
  bool WantsSplit(const Node& node, const Rect& query) const;
  /// Invokes `fn(node)` for every contour element whose MBR intersects
  /// `region`, over one pinned version. Shared by Search and
  /// VisitContour; a template so Search's per-element body inlines.
  template <typename Fn>
  void ForEachContour(const Rect& region, Fn&& fn) const {
    if (points_->empty()) return;
    ReadPin pin = PinForRead();
    std::vector<const Node*> stack{&root()};
    while (!stack.empty()) {
      const Node* node = stack.back();
      stack.pop_back();
      if (!node->mbr.Intersects(region)) continue;
      if (node->kind == Node::Kind::kInternal) {
        for (const Node* child : node->children) stack.push_back(child);
        continue;
      }
      fn(*node);
    }
  }

  const PointSet* points_;
  RTreeConfig config_;
  mutable std::once_flag orders_once_;
  mutable std::unique_ptr<SortedOrders> orders_;

  /// The published version pointer. Readers load it with acquire and
  /// traverse immutable nodes; cracks store it with release under
  /// crack_mu_. Ownership: nodes are freed either by epoch reclamation
  /// (retired on replacement) or by DeleteSubtree of the final version
  /// in the destructor.
  std::atomic<Node*> root_{nullptr};

  /// Version-publication count behind crack_generation(). Written under
  /// crack_mu_, read lock-free.
  std::atomic<uint64_t> generation_{0};

  /// Serializes writers (cracks, BuildFull, Load-into). Readers never
  /// touch it.
  mutable std::timed_mutex crack_mu_;

  /// Ring of recently published (complete) crack regions, used to
  /// coalesce duplicate cracks. Lock-free on the read side: slots hold
  /// heap-allocated immutable Rects published with release stores and
  /// retired through the epoch scheme on overwrite. Regions only ever
  /// get *more* cracked, so an entry stays valid forever; eviction
  /// merely loses a coalescing opportunity. published_gen_ counts
  /// publications so an empty ring is skipped without pinning.
  static constexpr size_t kPublishedRing = 8;
  std::array<std::atomic<const Rect*>, kPublishedRing> published_cracks_{};
  std::atomic<uint64_t> published_gen_{0};
  size_t published_next_ = 0;  // writer-only cursor (under crack_mu_)

  std::atomic<size_t> binary_splits_{0};
  std::atomic<size_t> astar_expansions_{0};

  std::atomic<size_t> crack_publishes_{0};
  std::atomic<size_t> coalesced_cracks_{0};
  std::atomic<size_t> abandoned_cracks_{0};
  std::atomic<size_t> crack_waits_{0};
};

}  // namespace vkg::index

#endif  // VKG_INDEX_CRACKING_RTREE_H_
