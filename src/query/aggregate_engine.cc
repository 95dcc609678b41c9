#include "query/aggregate_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "embedding/batch_kernels.h"
#include "embedding/vector_ops.h"
#include "obs/metrics.h"
#include "query/contour_walk.h"
#include "query/prob_model.h"
#include "query/topk_engine.h"
#include "transform/jl_bounds.h"
#include "util/check.h"

namespace vkg::query {

namespace {

// Registry handles shared by every aggregate engine (cached once; see
// DESIGN.md §6e).
struct AggMetrics {
  obs::Counter& queries;
  obs::Counter& degraded;
  obs::Counter& accessed;
  obs::Histogram& latency_us;

  static AggMetrics& Get() {
    static AggMetrics* metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return new AggMetrics{
          reg.GetCounter("vkg_agg_queries_total"),
          reg.GetCounter("vkg_agg_degraded_total"),
          reg.GetCounter("vkg_agg_accessed_total"),
          reg.GetHistogram("vkg_agg_latency_us")};
    }();
    return *metrics;
  }
};

// Fetches the attribute value of `id`, or NaN for COUNT (value unused).
double AttributeValue(const kg::KnowledgeGraph& graph, AggKind kind,
                      const std::string& attribute, uint32_t id) {
  if (kind == AggKind::kCount) return 1.0;
  return graph.attributes().Value(attribute, id);
}

util::Status ValidateSpec(const kg::KnowledgeGraph& graph,
                          const AggregateSpec& spec) {
  VKG_RETURN_IF_ERROR(ValidateQuery(graph, spec.query));
  if (spec.prob_threshold <= 0.0 || spec.prob_threshold > 1.0) {
    return util::Status::InvalidArgument(
        "prob_threshold must be in (0, 1]");
  }
  if (spec.kind != AggKind::kCount &&
      !graph.attributes().Has(spec.attribute)) {
    return util::Status::NotFound("unknown attribute: " + spec.attribute);
  }
  return util::Status::OK();
}

}  // namespace

std::string_view AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "COUNT";
    case AggKind::kSum:
      return "SUM";
    case AggKind::kAvg:
      return "AVG";
    case AggKind::kMax:
      return "MAX";
    case AggKind::kMin:
      return "MIN";
  }
  return "?";
}

AggregateEngine::AggregateEngine(const kg::KnowledgeGraph* graph,
                                 const embedding::EmbeddingStore* store,
                                 const transform::JlTransform* jl,
                                 index::CrackingRTree* tree, double eps,
                                 bool crack_after_query)
    : graph_(graph),
      store_(store),
      jl_(jl),
      tree_(tree),
      eps_(eps),
      crack_after_query_(crack_after_query) {}

util::Result<AggregateResult> AggregateEngine::Aggregate(
    const AggregateSpec& spec, QueryContext& ctx) const {
  VKG_RETURN_IF_ERROR(ValidateSpec(*graph_, spec));
  obs::ScopedLatencyUs latency(AggMetrics::Get().latency_us);
  obs::Trace* trace = ctx.trace();
  obs::Span span(trace, "aggregate");
  span.SetAttr("kind", AggKindName(spec.kind));
  AggMetrics::Get().queries.Inc();
  util::QueryControl& control = ctx.control();
  util::Arena& arena = ctx.arena();
  arena.Reset();
  const auto skip = MakeSkipFn(*graph_, spec.query);
  const ProjectedQuery q = ProjectQuery(*store_, *jl_, spec.query, ctx);
  const std::span<const float> q_s2 = q.s2.AsSpan();

  // The read phase runs under one epoch pin (no locks, DESIGN.md §6f):
  // Node pointers in the frontier and ElementIds() spans reference
  // immutable version nodes that the pin keeps allocated. The d_min
  // probe's own pin nests inside it.
  index::CrackingRTree::ReadPin pin = tree_->PinForRead();

  // d_min via Algorithm 3's core at k = 1 (no cracking — the aggregate's
  // own final region cracks below). It shares ctx's control block, so
  // its work draws down the same budget and a stop tripped here
  // degrades the rest of the aggregate too.
  double top1_radius = 0.0;
  TopKResult nearest =
      FindTopK(*tree_, *store_, q, 1, eps_, skip, ctx, &top1_radius);
  // Labels an answer degraded when the query stopped, and records it.
  auto finish = [&](AggregateResult result) {
    if (control.stopped()) {
      result.quality.exact = false;
      result.quality.stop_reason = control.stop_reason();
      AggMetrics::Get().degraded.Inc();
      span.SetAttr("stop_reason",
                   util::StopReasonName(result.quality.stop_reason));
    }
    AggMetrics::Get().accessed.Inc(result.accessed);
    span.SetAttr("accessed", static_cast<double>(result.accessed));
    span.SetAttr("estimated_total", result.estimated_total);
    return result;
  };
  if (nearest.hits.empty()) return finish(AggregateResult{});
  ProbabilityModel pm(nearest.hits[0].distance);
  const double r_tau = pm.RadiusForThreshold(spec.prob_threshold);
  const double r_s2 = r_tau * (1.0 + eps_);
  index::Rect region = index::Rect::BoundingBoxOfBall(q.s2, r_s2);
  span.SetAttr("r_tau", r_tau);

  // Best-first walk of the contour inside the ball: the a closest
  // records are accessed exactly (S1 distance + attribute page), and
  // once the budget is exhausted the remaining contour elements
  // contribute *estimates* from their entity counts and average distance
  // to the query point — Section V-B's use of the index contour.
  // Per-query work therefore scales with the sample size a plus the
  // touched contour, not with the ball cardinality. The probe above
  // stamped what it examined, so the walk takes a fresh stamp holding
  // only the skipped ids.
  const size_t budget = spec.sample_size == 0
                            ? std::numeric_limits<size_t>::max()
                            : spec.sample_size;
  const index::PointSet& points = tree_->points();
  const QueryContext::Stamped skipped = ctx.NextStamp();
  skip.StampInto(skipped, store_->num_entities());
  util::ArenaVector<BallPoint> accessed{util::ArenaAllocator<BallPoint>(
      &arena)};
  double unaccessed_mass = 0.0;
  double unaccessed_count = 0.0;

  // Unaccessed elements contribute through the exact conditional
  // expectations under the JL transform (given l2 = s, the original
  // distance is l1 = s sqrt(alpha)/chi_alpha): expected member count
  // |e| * P(l1 <= r_tau | s) and expected probability mass
  // |e| * E[(d_min/l1) 1{l1 <= r_tau} | s], evaluated at the element's
  // centroid distance (floored by its MBR min distance).
  const size_t alpha = jl_->output_dim();
  auto estimate_element = [&](const index::Node& node) {
    double centroid_d2 = 0;
    for (size_t d = 0; d < node.mbr.dim; ++d) {
      double mid = 0.5 * (static_cast<double>(node.mbr.lo[d]) +
                          node.mbr.hi[d]);
      double diff = mid - q.s2.c[d];
      centroid_d2 += diff * diff;
    }
    double dist_s2 = std::max(std::sqrt(centroid_d2),
                              std::sqrt(node.mbr.MinDistSquared(q_s2)));
    double count = static_cast<double>(node.size());
    unaccessed_count +=
        count * transform::MembershipProbability(dist_s2, r_tau, alpha);
    unaccessed_mass += count * transform::ExpectedInverseMass(
                                   pm.d_min(), dist_s2, r_tau, alpha);
  };

  obs::Span contour_span(trace, "agg.contour");
  // Per-element (S2 distance, id) scratch, hoisted so its arena block is
  // reused across contour elements.
  util::ArenaVector<std::pair<double, uint32_t>> local{
      util::ArenaAllocator<std::pair<double, uint32_t>>(&arena)};
  bool budget_exhausted = false;
  WalkContour(
      tree_->root(), q_s2, r_s2, arena,
      [&](double) {
        // A tripped deadline / cancellation / point budget behaves
        // exactly like an exhausted sample budget: stop accessing
        // records and fall back to contour estimates for everything left
        // in the ball — the answer stays usable, just with a wider
        // Theorem 4 error. Gated on a non-empty sample so even an
        // already-expired deadline accesses the first in-ball record
        // instead of degenerating to value 0.
        if (!budget_exhausted && !accessed.empty() && control.ShouldStop()) {
          budget_exhausted = true;
        }
        return true;
      },
      [&](const index::Node& node) {
        if (budget_exhausted) {
          estimate_element(node);
          return true;
        }
        // Contour element: order its points by S2 distance and access
        // them.
        local.clear();
        local.reserve(node.size());
        for (uint32_t id : tree_->ElementIds(node)) {
          double d = std::sqrt(points.DistSquared(id, q_s2));
          if (d <= r_s2) local.emplace_back(d, id);
        }
        std::sort(local.begin(), local.end());
        size_t processed = 0;
        for (const auto& [s2_dist, id] : local) {
          if (accessed.size() >= budget) break;
          // Once at least one record is in the sample, honor stops at a
          // small stride; the guaranteed first access keeps an
          // already-expired deadline from producing an empty sample.
          if (!accessed.empty() && (processed & 15) == 0 &&
              control.ShouldStop()) {
            break;
          }
          ++processed;
          if (skipped.stamps[id] == skipped.stamp) continue;
          control.AddPoints(1);
          double dist = embedding::L2Distance(store_->Entity(id), q.s1);
          if (dist > r_tau) continue;  // outside the ball in S1
          double value =
              AttributeValue(*graph_, spec.kind, spec.attribute, id);
          if (spec.kind != AggKind::kCount && std::isnan(value)) continue;
          accessed.push_back({id, dist, pm.ProbabilityAt(dist)});
        }
        if (accessed.size() >= budget || control.stopped()) {
          budget_exhausted = true;
          // Estimate the rest of this element point-wise (distances
          // known).
          for (size_t i = processed; i < local.size(); ++i) {
            double s2_dist = local[i].first;
            unaccessed_count +=
                transform::MembershipProbability(s2_dist, r_tau, alpha);
            unaccessed_mass += transform::ExpectedInverseMass(
                pm.d_min(), s2_dist, r_tau, alpha);
          }
        }
        return true;
      });

  contour_span.SetAttr("accessed", static_cast<double>(accessed.size()));
  contour_span.SetAttr("estimated_count", unaccessed_count);
  contour_span.End();
  // Unpin before cracking: not required for correctness (writers never
  // wait for readers), but letting the epoch advance during the crack
  // keeps retired-version reclamation prompt.
  pin = index::CrackingRTree::ReadPin();
  if (crack_after_query_ && !control.stopped()) {
    tree_->Crack(region, &control, trace);
  }
  return finish(Estimate(
      spec, std::span<const BallPoint>(accessed.data(), accessed.size()),
      unaccessed_mass, unaccessed_count));
}

util::Result<AggregateResult> AggregateEngine::ExactAggregate(
    const AggregateSpec& spec) const {
  VKG_RETURN_IF_ERROR(ValidateSpec(*graph_, spec));
  const auto skip = MakeSkipFn(*graph_, spec.query);
  std::vector<float> q_s1 = store_->QueryCenter(
      spec.query.anchor, spec.query.relation, spec.query.direction);

  // Exact squared distances of every entity through the blocked kernel
  // (one pass; both the d_min scan and the ball scan read from it).
  const size_t n = store_->num_entities();
  std::vector<double> d2(n);
  embedding::BatchL2DistanceSquared(q_s1, *store_, /*first=*/0, n,
                                    d2.data());
  double d_min = -1.0;
  for (uint32_t e = 0; e < n; ++e) {
    if (skip(e)) continue;
    double d = std::sqrt(d2[e]);
    if (d_min < 0 || d < d_min) d_min = d;
  }
  if (d_min < 0) return AggregateResult{};
  ProbabilityModel pm(d_min);
  const double r_tau = pm.RadiusForThreshold(spec.prob_threshold);

  std::vector<BallPoint> accessed;
  for (uint32_t e = 0; e < n; ++e) {
    if (skip(e)) continue;
    double d = std::sqrt(d2[e]);
    if (d > r_tau) continue;
    double value = AttributeValue(*graph_, spec.kind, spec.attribute, e);
    if (spec.kind != AggKind::kCount && std::isnan(value)) continue;
    accessed.push_back({e, d, pm.ProbabilityAt(d)});
  }
  std::sort(accessed.begin(), accessed.end(),
            [](const BallPoint& a, const BallPoint& b) {
              return a.dist < b.dist;
            });
  return Estimate(spec, accessed, /*unaccessed_mass=*/0.0,
                  /*unaccessed_count=*/0.0);
}

AggregateResult AggregateEngine::Estimate(
    const AggregateSpec& spec, std::span<const BallPoint> accessed,
    double unaccessed_mass, double unaccessed_count) const {
  AggregateResult result;
  result.accessed = accessed.size();
  result.estimated_total =
      static_cast<double>(accessed.size()) + unaccessed_count;

  double sum_a_p = 0.0;
  for (const BallPoint& bp : accessed) sum_a_p += bp.prob;
  const double sum_b_p = sum_a_p + unaccessed_mass;
  result.prob_mass_accessed = sum_a_p;
  result.prob_mass_estimated = sum_b_p;

  // Collect values in access (distance) order for Theorem 4 reporting.
  result.sample_values.reserve(accessed.size());
  std::vector<std::pair<double, double>> value_prob;  // (v_i, p_i)
  value_prob.reserve(accessed.size());
  for (const BallPoint& bp : accessed) {
    double v = AttributeValue(*graph_, spec.kind, spec.attribute, bp.id);
    result.sample_values.push_back(v);
    value_prob.emplace_back(v, bp.prob);
  }

  if (accessed.empty() || sum_a_p <= 0.0) {
    result.value = 0.0;
    return result;
  }

  switch (spec.kind) {
    case AggKind::kCount:
      // SUM(1) scaled: equals the estimated total probability mass.
      result.value = sum_b_p;
      break;
    case AggKind::kSum: {
      double weighted = 0.0;
      for (const auto& [v, p] : value_prob) weighted += v * p;
      result.value = weighted * (sum_b_p / sum_a_p);  // Equation (3)
      break;
    }
    case AggKind::kAvg: {
      double weighted = 0.0;
      for (const auto& [v, p] : value_prob) weighted += v * p;
      // E[SUM]/E[COUNT]: the scale factor cancels.
      result.value = weighted / sum_a_p;
      break;
    }
    case AggKind::kMax:
    case AggKind::kMin: {
      // Equation (4), applied to negated values for MIN.
      const double sign = spec.kind == AggKind::kMax ? 1.0 : -1.0;
      std::vector<std::pair<double, double>> vp = value_prob;
      for (auto& [v, p] : vp) v *= sign;
      std::sort(vp.begin(), vp.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      double expected_sample_max = 0.0;
      double none_better = 1.0;  // prod (1 - p_j) over larger values
      for (const auto& [v, p] : vp) {
        expected_sample_max += v * none_better * p;
        none_better *= (1.0 - p);
      }
      double min_v = vp.back().first;
      double estimate = (expected_sample_max - min_v) *
                            (1.0 + 1.0 / sum_a_p) +
                        min_v;
      result.value = sign * estimate;
      break;
    }
  }
  return result;
}

}  // namespace vkg::query
