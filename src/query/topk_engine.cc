#include "query/topk_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "embedding/batch_kernels.h"
#include "embedding/vector_ops.h"
#include "obs/metrics.h"
#include "query/contour_walk.h"
#include "query/prob_model.h"
#include "util/check.h"

namespace vkg::query {

namespace {

// Registry handles shared by every top-k engine (cached once; see
// DESIGN.md §6e).
struct TopKMetrics {
  obs::Counter& queries;
  obs::Counter& degraded;
  obs::Counter& candidates;
  obs::Histogram& latency_us;

  static TopKMetrics& Get() {
    static TopKMetrics* metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return new TopKMetrics{
          reg.GetCounter("vkg_topk_queries_total"),
          reg.GetCounter("vkg_topk_degraded_total"),
          reg.GetCounter("vkg_topk_candidates_total"),
          reg.GetHistogram("vkg_topk_latency_us")};
    }();
    return *metrics;
  }

  void Record(const TopKResult& result) {
    queries.Inc();
    candidates.Inc(result.candidates_examined);
    if (!result.quality.exact) degraded.Inc();
  }
};

// Builds a TopKResult from (distance, id) pairs sorted ascending,
// attaching calibrated probabilities.
TopKResult FinalizeHits(std::vector<std::pair<double, uint32_t>> pairs,
                        size_t candidates_examined) {
  TopKResult result;
  result.candidates_examined = candidates_examined;
  if (pairs.empty()) return result;
  ProbabilityModel pm(pairs[0].first);
  result.hits.reserve(pairs.size());
  for (const auto& [dist, id] : pairs) {
    result.hits.push_back({id, dist, pm.ProbabilityAt(dist)});
  }
  return result;
}

// Seeds N_q: up to k unstamped entities from the contour element
// containing q, walked outward along one sort order (line 2 of
// Algorithm 3). Appends into `seeds` (arena-backed per-query scratch).
void SeedCandidates(const index::CrackingRTree& tree,
                    const index::Node& element, const index::Point& q_s2,
                    size_t k, const QueryContext::Stamped& visited,
                    util::ArenaVector<uint32_t>& seeds) {
  // Traverse the element's points outward from q along sort order 0
  // (increasing |coord0 - q0|), as described for line 2 of Algorithm 3.
  std::span<const uint32_t> ids = tree.ElementIds(element, /*s=*/0);
  const index::PointSet& points = tree.points();
  const float q0 = q_s2.c[0];
  size_t pos = static_cast<size_t>(
      std::lower_bound(ids.begin(), ids.end(), q0,
                       [&points](uint32_t id, float v) {
                         return points.coord(id, 0) < v;
                       }) -
      ids.begin());

  seeds.reserve(k);
  size_t left = pos;   // next candidate on the left is ids[left - 1]
  size_t right = pos;  // next candidate on the right is ids[right]
  while (seeds.size() < k && (left > 0 || right < ids.size())) {
    bool take_left;
    if (left == 0) {
      take_left = false;
    } else if (right == ids.size()) {
      take_left = true;
    } else {
      take_left = (q0 - points.coord(ids[left - 1], 0)) <=
                  (points.coord(ids[right], 0) - q0);
    }
    uint32_t id = take_left ? ids[--left] : ids[right++];
    if (visited.stamps[id] != visited.stamp) seeds.push_back(id);
  }
}

}  // namespace

util::Status ValidateQuery(const kg::KnowledgeGraph& graph,
                           const data::Query& query) {
  if (query.anchor >= graph.num_entities()) {
    return util::Status::InvalidArgument(
        "query anchor is not an entity of the graph");
  }
  if (query.relation >= graph.num_relations()) {
    return util::Status::InvalidArgument(
        "query relation is not a relation of the graph");
  }
  return util::Status::OK();
}

util::Status ValidateQuery(const TopKEngine& engine,
                           const data::Query& query) {
  const kg::KnowledgeGraph* graph = engine.graph();
  if (graph == nullptr) return util::Status::OK();
  return ValidateQuery(*graph, query);
}

SkipFn MakeSkipFn(const kg::KnowledgeGraph& graph, const data::Query& query) {
  return {query.anchor,
          graph.Known(query.anchor, query.relation, query.direction)};
}

// ---------------------------------------------------------------------------
// LinearTopKEngine
// ---------------------------------------------------------------------------

TopKResult LinearTopKEngine::TopKQuery(const data::Query& query, size_t k,
                                       QueryContext& ctx) const {
  obs::ScopedLatencyUs latency(TopKMetrics::Get().latency_us);
  obs::Span span(ctx.trace(), "topk.linear");
  util::QueryControl& control = ctx.control();
  util::Arena& arena = ctx.arena();
  arena.Reset();
  std::span<float> q = arena.AllocateSpan<float>(store_->dim());
  store_->QueryCenterInto(query.anchor, query.relation, query.direction, q);
  const auto skip = MakeSkipFn(*graph_, query);
  const size_t points_before = control.points();
  auto pairs = scan_.TopK(q, k, skip, &control);
  TopKResult result =
      FinalizeHits(std::move(pairs), control.points() - points_before);
  if (control.stopped()) {
    // Best-effort: the scan wound down at a block boundary. The scan
    // order carries no spatial meaning, so nothing is certified.
    result.quality.exact = false;
    result.quality.stop_reason = control.stop_reason();
    span.SetAttr("stop_reason",
                 util::StopReasonName(result.quality.stop_reason));
  }
  span.SetAttr("candidates",
               static_cast<double>(result.candidates_examined));
  TopKMetrics::Get().Record(result);
  return result;
}

// ---------------------------------------------------------------------------
// RTreeTopKEngine (Algorithm 3)
// ---------------------------------------------------------------------------

RTreeTopKEngine::RTreeTopKEngine(const kg::KnowledgeGraph* graph,
                                 const embedding::EmbeddingStore* store,
                                 const transform::JlTransform* jl,
                                 index::CrackingRTree* tree, double eps,
                                 bool crack_after_query,
                                 std::string_view name)
    : graph_(graph),
      store_(store),
      jl_(jl),
      tree_(tree),
      eps_(eps),
      crack_after_query_(crack_after_query),
      name_(name) {
  VKG_CHECK(eps > 0);
}

ProjectedQuery ProjectQuery(const embedding::EmbeddingStore& store,
                            const transform::JlTransform& jl,
                            const data::Query& query, QueryContext& ctx) {
  util::Arena& arena = ctx.arena();
  std::span<float> q_s1 = arena.AllocateSpan<float>(store.dim());
  store.QueryCenterInto(query.anchor, query.relation, query.direction, q_s1);
  obs::Span jl_span(ctx.trace(), "jl.project");
  std::span<float> q_alpha = arena.AllocateSpan<float>(jl.output_dim());
  jl.Apply(q_s1, q_alpha);
  return {q_s1, index::Point::FromSpan(q_alpha)};
}

TopKResult FindTopK(const index::CrackingRTree& tree,
                    const embedding::EmbeddingStore& store,
                    const ProjectedQuery& q, size_t k, double eps,
                    const SkipFn& skip, QueryContext& ctx, double* radius) {
  VKG_DCHECK(k > 0);
  obs::Trace* trace = ctx.trace();
  util::QueryControl& control = ctx.control();
  util::Arena& arena = ctx.arena();
  const std::span<const float> q_s2 = q.s2.AsSpan();
  // May flag the query stopped (scratch budget): the seeds below are
  // still examined, so even then the answer is non-empty. The skipped
  // ids count as visited from the start, so they are never candidates.
  const QueryContext::Stamped visited = ctx.BeginQuery(store.num_entities());
  skip.StampInto(visited, store.num_entities());

  size_t candidates = 0;
  // Max-heap of the best k (S1 squared distance, id); its backing
  // vector lives in the query arena like all scratch below.
  using Best = std::pair<double, uint32_t>;
  util::ArenaVector<Best> best_store{util::ArenaAllocator<Best>(&arena)};
  best_store.reserve(k + 1);
  std::priority_queue<Best, util::ArenaVector<Best>> best(
      std::less<Best>(), std::move(best_store));
  constexpr size_t kExamineBlock = 256;
  std::span<uint32_t> cand = arena.AllocateSpan<uint32_t>(kExamineBlock);
  std::span<double> dist = arena.AllocateSpan<double>(kExamineBlock);
  // Exact S1 re-rank of a candidate batch: filter already-stamped ids,
  // evaluate the survivors through the gather kernel, then fold
  // them into the heap in order (identical results to one-at-a-time).
  // Candidates are processed in blocks so a deadline / budget trip is
  // observed mid-element; the seed batch runs unchecked (enforce ==
  // false) so every query — even one that starts already expired —
  // returns a non-empty best-effort answer.
  auto examine = [&](std::span<const uint32_t> ids, bool enforce) {
    for (size_t base = 0; base < ids.size(); base += kExamineBlock) {
      if (enforce && control.ShouldStop()) return;
      const size_t len = std::min(kExamineBlock, ids.size() - base);
      size_t cnt = 0;
      for (uint32_t id : ids.subspan(base, len)) {
        if (visited.stamps[id] == visited.stamp) continue;
        visited.stamps[id] = visited.stamp;
        cand[cnt++] = id;
      }
      embedding::GatherL2DistanceSquared(q.s1, store, cand.first(cnt),
                                         dist.data());
      candidates += cnt;
      control.AddPoints(cnt);
      for (size_t i = 0; i < cnt; ++i) {
        const double d2 = dist[i];
        if (best.size() < k) {
          best.emplace(d2, cand[i]);
        } else if (d2 < best.top().first) {
          best.pop();
          best.emplace(d2, cand[i]);
        }
      }
    }
  };

  // Current S2 query radius; infinite until k candidates exist.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto current_radius = [&]() {
    if (best.size() < k) return kInf;
    return std::sqrt(best.top().first) * (1.0 + eps);
  };

  // The whole read phase — probe, seeding, frontier traversal — runs
  // under one epoch pin (no locks, DESIGN.md §6f): the Node pointers
  // and ElementIds() spans below reference immutable version nodes,
  // and the pin keeps them allocated even after concurrent cracks
  // publish newer versions. The root is captured once so the frontier
  // traverses a single consistent version.
  index::CrackingRTree::ReadPin pin = tree.PinForRead();
  const index::Node& tree_root = tree.root();
  const double root_margin = tree_root.mbr.Margin();

  // Lines 1-3: probe for the element containing q and seed N_q, giving
  // the initial radius r_q = r_k*(N_q) (1 + eps).
  const index::Node* element = [&] {
    obs::Span probe_span(trace, "probe");
    return tree.ProbeSmallest(q_s2);
  }();
  {
    obs::Span seed_span(trace, "seed");
    util::ArenaVector<uint32_t> seeds{
        util::ArenaAllocator<uint32_t>(&arena)};
    SeedCandidates(tree, *element, q.s2, k, visited, seeds);
    seed_span.SetAttr("seeds", static_cast<double>(seeds.size()));
    examine({seeds.data(), seeds.size()}, /*enforce=*/false);
  }

  // Lines 4-8: iteratively shrink Q while examining its points. Every
  // point examined can tighten r_k* and hence Q, so elements that fall
  // outside the refined region are never touched — the paper's
  // "iteratively reduce the query rectangle region until all points in
  // Q have been examined".
  //
  // Pops come off the walk in non-decreasing MBR distance, so when the
  // query stops early every point strictly closer than the last pop
  // has been examined: that distance is the certified radius within
  // which the Theorem 2/3 guarantees still hold.
  double r_q = current_radius();
  double certified = 0.0;
  bool complete = true;
  obs::Span frontier_span(trace, "frontier");
  size_t frontier_pops = 0;
  // An empty heap means nothing has been answered yet (the seed
  // element held only skipped entities): keep examining unchecked
  // until one candidate exists, so even an already-expired query
  // returns a non-empty best-effort answer.
  WalkContour(
      tree_root, q_s2, r_q, arena,
      [&](double mindist) {
        ++frontier_pops;
        if (!best.empty() && control.ShouldStop()) {
          complete = false;
          return false;
        }
        certified = mindist;
        return true;
      },
      [&](const index::Node& node) {
        const bool must_progress = best.empty();
        examine(tree.ElementIds(node), /*enforce=*/!must_progress);
        if (!must_progress && control.stopped()) {
          complete = false;  // bailed mid-element
          return false;
        }
        r_q = current_radius();
        return true;
      });
  frontier_span.SetAttr("pops", static_cast<double>(frontier_pops));
  frontier_span.SetAttr("candidates", static_cast<double>(candidates));
  frontier_span.End();
  if (r_q == kInf) {
    // Fewer than k valid entities in the whole dataset.
    r_q = root_margin + 1.0;
  }
  // A walk that ran out of frontier or left the ball examined all of Q.
  if (complete) certified = r_q;
  *radius = r_q;

  std::vector<std::pair<double, uint32_t>> pairs;
  pairs.reserve(best.size());
  while (!best.empty()) {
    pairs.emplace_back(std::sqrt(best.top().first), best.top().second);
    best.pop();
  }
  std::reverse(pairs.begin(), pairs.end());
  TopKResult result = FinalizeHits(std::move(pairs), candidates);
  result.quality.certified_radius = certified;
  if (control.stopped()) {
    result.quality.exact = false;
    result.quality.stop_reason = control.stop_reason();
  }
  return result;
}

TopKResult RTreeTopKEngine::TopKQuery(const data::Query& query, size_t k,
                                      QueryContext& ctx) const {
  obs::ScopedLatencyUs latency(TopKMetrics::Get().latency_us);
  obs::Trace* trace = ctx.trace();
  obs::Span span(trace, "topk.rtree");
  span.SetAttr("k", static_cast<double>(k));
  util::QueryControl& control = ctx.control();
  ctx.arena().Reset();
  const SkipFn skip = MakeSkipFn(*graph_, query);
  const ProjectedQuery q = ProjectQuery(*store_, *jl_, query, ctx);
  if (store_->num_entities() == 0 || k == 0) return {};

  double r_q = 0.0;
  TopKResult result = FindTopK(*tree_, *store_, q, k, eps_, skip, ctx, &r_q);

  // Line 9: incremental index build with the final region. A degraded
  // query skips it — its region underestimates Q, and its time is up —
  // while a healthy query cracks under the remaining crack budget.
  if (crack_after_query_ && !control.stopped()) {
    tree_->Crack(index::Rect::BoundingBoxOfBall(q.s2, r_q), &control, trace);
  }

  span.SetAttr("radius", r_q);
  span.SetAttr("certified_radius", result.quality.certified_radius);
  span.SetAttr("candidates", static_cast<double>(result.candidates_examined));
  if (!result.quality.exact) {
    span.SetAttr("stop_reason",
                 util::StopReasonName(result.quality.stop_reason));
  }
  TopKMetrics::Get().Record(result);
  return result;
}

// ---------------------------------------------------------------------------
// PhTreeTopKEngine
// ---------------------------------------------------------------------------

TopKResult PhTreeTopKEngine::TopKQuery(const data::Query& query, size_t k,
                                       QueryContext& /*ctx*/) const {
  std::vector<float> q =
      store_->QueryCenter(query.anchor, query.relation, query.direction);
  auto pairs = tree_->TopK(q, k, MakeSkipFn(*graph_, query));
  return FinalizeHits(std::move(pairs), store_->num_entities());
}

// ---------------------------------------------------------------------------
// H2AlshTopKEngine
// ---------------------------------------------------------------------------

H2AlshTopKEngine::H2AlshTopKEngine(const kg::KnowledgeGraph* graph,
                                   const embedding::EmbeddingStore* store,
                                   const index::H2AlshConfig& config)
    : graph_(graph), store_(store) {
  // Augment items to reduce L2-NN to MIPS: x' = [x ; ||x||^2].
  const size_t n = store->num_entities();
  const size_t d = store->dim();
  std::vector<float> augmented(n * (d + 1));
  for (size_t e = 0; e < n; ++e) {
    std::span<const float> x = store->Entity(static_cast<kg::EntityId>(e));
    double norm2 = 0.0;
    for (size_t i = 0; i < d; ++i) {
      augmented[e * (d + 1) + i] = x[i];
      norm2 += static_cast<double>(x[i]) * x[i];
    }
    augmented[e * (d + 1) + d] = static_cast<float>(norm2);
  }
  alsh_ = std::make_unique<index::H2Alsh>(augmented, n, d + 1, config);
}

TopKResult H2AlshTopKEngine::TopKQuery(const data::Query& query, size_t k,
                                       QueryContext& /*ctx*/) const {
  std::vector<float> q =
      store_->QueryCenter(query.anchor, query.relation, query.direction);
  // Query vector [2q ; -1]: the inner product is 2 q·x - ||x||^2 =
  // ||q||^2 - ||q - x||^2, monotone in -distance.
  std::vector<float> qv(q.size() + 1);
  for (size_t i = 0; i < q.size(); ++i) qv[i] = 2.0f * q[i];
  qv[q.size()] = -1.0f;
  double qnorm2 = embedding::Dot(q, q);

  size_t examined = 0;
  auto scored = alsh_->TopK(qv, k, MakeSkipFn(*graph_, query), &examined);
  std::vector<std::pair<double, uint32_t>> pairs;
  pairs.reserve(scored.size());
  for (const auto& [ip, id] : scored) {
    double d2 = std::max(0.0, qnorm2 - ip);
    pairs.emplace_back(std::sqrt(d2), id);
  }
  std::sort(pairs.begin(), pairs.end());
  return FinalizeHits(std::move(pairs), examined);
}

}  // namespace vkg::query
