#ifndef VKG_QUERY_TOPK_ENGINE_H_
#define VKG_QUERY_TOPK_ENGINE_H_

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "data/workload.h"
#include "embedding/store.h"
#include "index/cracking_rtree.h"
#include "index/h2alsh.h"
#include "index/linear_scan.h"
#include "index/phtree.h"
#include "kg/graph.h"
#include "query/query_context.h"
#include "transform/jl_transform.h"
#include "util/status.h"

namespace vkg::query {

/// One predicted edge returned by a top-k query.
struct TopKHit {
  kg::EntityId entity = kg::kInvalidEntity;
  double distance = 0.0;     // S1 distance to the query center
  double probability = 0.0;  // calibrated via ProbabilityModel
};

/// Result of a top-k entity query.
struct TopKResult {
  std::vector<TopKHit> hits;  // ascending distance
  /// Entities whose exact S1 distance was evaluated (work measure).
  size_t candidates_examined = 0;
  /// Whether the answer is complete or a best-effort result produced
  /// under a deadline / cancellation / resource budget.
  ResultQuality quality;
};

/// Skip predicate of the E'-only query semantics (Section II): the
/// anchor itself and the entities E already links to it by `relation`
/// are not answers. A value over the graph's live neighbour list, valid
/// until the graph next changes.
struct SkipFn {
  kg::EntityId anchor = kg::kInvalidEntity;
  std::span<const kg::EntityId> known;  // ascending

  bool operator()(uint32_t id) const {
    return id == anchor || std::binary_search(known.begin(), known.end(), id);
  }

  /// Stamps every skipped id below `n`, so a walk that drops ids already
  /// stamped needs no per-candidate test.
  void StampInto(const QueryContext::Stamped& visited, size_t n) const {
    if (anchor < n) visited.stamps[anchor] = visited.stamp;
    for (kg::EntityId id : known) {
      if (id >= n) break;
      visited.stamps[id] = visited.stamp;
    }
  }
};

SkipFn MakeSkipFn(const kg::KnowledgeGraph& graph, const data::Query& query);

/// A query center in S1 and its JL projection in S2. The S1 vector lives
/// in the query arena of the context it was projected with.
struct ProjectedQuery {
  std::span<const float> s1;
  index::Point s2;
};

/// Computes the query center into ctx's arena and projects it through
/// `jl` (traced as "jl.project"). Does not reset the arena.
ProjectedQuery ProjectQuery(const embedding::EmbeddingStore& store,
                            const transform::JlTransform& jl,
                            const data::Query& query, QueryContext& ctx);

/// Lines 1-8 of FINDTOP-KENTITIES (Algorithm 3) over `tree`: probe the
/// contour element containing q, seed N_q from it, then walk the contour
/// best-first while r_q = r_k* (1 + eps) shrinks (traced as "probe",
/// "seed" and "frontier"). Draws its scratch from ctx's arena without
/// resetting it and shares ctx's control block, so the aggregate engine
/// runs it (k = 1) inside its own query to find d_min. Begins ctx's visit
/// stamps with `skip`'s ids already stamped, so no candidate is tested
/// against the graph. Records no metrics and never cracks. Returns the
/// answer with its quality and writes the final r_q to *radius. Requires
/// k >= 1 and a non-empty store.
TopKResult FindTopK(const index::CrackingRTree& tree,
                    const embedding::EmbeddingStore& store,
                    const ProjectedQuery& q, size_t k, double eps,
                    const SkipFn& skip, QueryContext& ctx, double* radius);

/// Interface implemented by every compared method.
///
/// Engines hold no per-query mutable state: `TopKQuery` is const and all
/// scratch (visit stamps, candidate buffers) lives in the caller-supplied
/// QueryContext, so one engine instance can serve concurrent queries as
/// long as each thread uses its own context (see BatchTopK in
/// query/batch_executor.h). Shared *index* state guards itself: the
/// cracking R-tree publishes immutable versions that readers pin
/// lock-free, serializing cracks on a writer-side mutex (DESIGN.md
/// §6f), so even online-cracking engines report
/// SupportsConcurrentQueries() == true. An engine returns false only
/// when its index mutates without internal synchronization.
class TopKEngine {
 public:
  virtual ~TopKEngine() = default;

  /// Answers a predictive top-k entity query using `ctx` for scratch
  /// state. `ctx` must not be shared between concurrent callers.
  virtual TopKResult TopKQuery(const data::Query& query, size_t k,
                               QueryContext& ctx) const = 0;

  /// Single-query convenience form (fresh context per call; safe to call
  /// concurrently whenever SupportsConcurrentQueries() holds).
  TopKResult TopKQuery(const data::Query& query, size_t k) const {
    QueryContext ctx;
    return TopKQuery(query, k, ctx);
  }

  /// False when answering a query mutates shared state without internal
  /// synchronization: such engines must not run queries on multiple
  /// threads at once. Online-cracking R-tree engines qualify as true —
  /// the tree synchronizes itself (see index::CrackingRTree).
  virtual bool SupportsConcurrentQueries() const { return true; }

  /// The knowledge graph the engine answers over (null only for engines
  /// without one; used by ValidateQuery / the batch executor to reject
  /// malformed queries before they reach the hot path).
  virtual const kg::KnowledgeGraph* graph() const { return nullptr; }

  /// Method label for reports.
  virtual std::string_view name() const = 0;
};

/// InvalidArgument when `query` references an entity or relation outside
/// `graph` (such ids would trip internal invariants deep in the query
/// path).
util::Status ValidateQuery(const kg::KnowledgeGraph& graph,
                           const data::Query& query);

/// ValidateQuery over the engine's graph; OK for engines that expose no
/// graph.
util::Status ValidateQuery(const TopKEngine& engine,
                           const data::Query& query);

/// The no-index baseline: exact scan in S1 (also the precision@K ground
/// truth).
class LinearTopKEngine : public TopKEngine {
 public:
  LinearTopKEngine(const kg::KnowledgeGraph* graph,
                   const embedding::EmbeddingStore* store)
      : graph_(graph), store_(store), scan_(store) {}

  using TopKEngine::TopKQuery;
  TopKResult TopKQuery(const data::Query& query, size_t k,
                       QueryContext& ctx) const override;
  const kg::KnowledgeGraph* graph() const override { return graph_; }
  std::string_view name() const override { return "no-index"; }

 private:
  const kg::KnowledgeGraph* graph_;
  const embedding::EmbeddingStore* store_;
  index::LinearScan scan_;
};

/// FINDTOP-KENTITIES (Algorithm 3) over a bulk-loaded or cracking R-tree
/// in the transformed space S2.
class RTreeTopKEngine : public TopKEngine {
 public:
  /// `crack_after_query` enables line 9 of Algorithm 3 (incremental index
  /// build with the final query region); disable it for the bulk-loaded
  /// baseline, whose tree is already complete.
  RTreeTopKEngine(const kg::KnowledgeGraph* graph,
                  const embedding::EmbeddingStore* store,
                  const transform::JlTransform* jl,
                  index::CrackingRTree* tree, double eps,
                  bool crack_after_query, std::string_view name);

  using TopKEngine::TopKQuery;
  TopKResult TopKQuery(const data::Query& query, size_t k,
                       QueryContext& ctx) const override;
  const kg::KnowledgeGraph* graph() const override { return graph_; }
  std::string_view name() const override { return name_; }

 private:
  const kg::KnowledgeGraph* graph_;
  const embedding::EmbeddingStore* store_;
  const transform::JlTransform* jl_;
  index::CrackingRTree* tree_;
  double eps_;
  bool crack_after_query_;
  std::string name_;
};

/// PH-tree baseline: kNN directly in the high-dimensional space S1.
class PhTreeTopKEngine : public TopKEngine {
 public:
  PhTreeTopKEngine(const kg::KnowledgeGraph* graph,
                   const embedding::EmbeddingStore* store,
                   const index::PhTree* tree)
      : graph_(graph), store_(store), tree_(tree) {}

  using TopKEngine::TopKQuery;
  TopKResult TopKQuery(const data::Query& query, size_t k,
                       QueryContext& ctx) const override;
  const kg::KnowledgeGraph* graph() const override { return graph_; }
  std::string_view name() const override { return "ph-tree"; }

 private:
  const kg::KnowledgeGraph* graph_;
  const embedding::EmbeddingStore* store_;
  const index::PhTree* tree_;
};

/// H2-ALSH baseline. The L2 nearest-neighbor objective is reduced to
/// MIPS over augmented vectors [x; ||x||^2] with queries [2q; -1], so
/// its answers are comparable against the same ground truth:
///   argmax (2q·x - ||x||^2) == argmin ||q - x||^2.
class H2AlshTopKEngine : public TopKEngine {
 public:
  /// Builds the H2-ALSH structure over all entity embeddings.
  H2AlshTopKEngine(const kg::KnowledgeGraph* graph,
                   const embedding::EmbeddingStore* store,
                   const index::H2AlshConfig& config);

  using TopKEngine::TopKQuery;
  TopKResult TopKQuery(const data::Query& query, size_t k,
                       QueryContext& ctx) const override;
  const kg::KnowledgeGraph* graph() const override { return graph_; }
  std::string_view name() const override { return "h2-alsh"; }

  const index::H2Alsh& alsh() const { return *alsh_; }

 private:
  const kg::KnowledgeGraph* graph_;
  const embedding::EmbeddingStore* store_;
  std::unique_ptr<index::H2Alsh> alsh_;
};

}  // namespace vkg::query

#endif  // VKG_QUERY_TOPK_ENGINE_H_
