#include "embedding/evaluator.h"

namespace vkg::embedding {

namespace {

// Rank of `target_score` among corruptions of one side of `t`.
size_t RankOneSide(const TransE& model, const kg::KnowledgeGraph& graph,
                   const kg::Triple& t, bool corrupt_tail, bool filtered) {
  const double target_score = model.Score(t);
  size_t rank = 1;
  const size_t n = graph.num_entities();
  for (kg::EntityId e = 0; e < n; ++e) {
    kg::Triple cand = t;
    if (corrupt_tail) {
      if (e == t.tail) continue;
      cand.tail = e;
    } else {
      if (e == t.head) continue;
      cand.head = e;
    }
    if (filtered && graph.triples().Contains(cand)) continue;
    if (model.Score(cand) < target_score) ++rank;
  }
  return rank;
}

}  // namespace

LinkPredictionMetrics EvaluateLinkPrediction(
    const TransE& model, const kg::KnowledgeGraph& graph,
    const std::vector<kg::Triple>& test_triples, bool filtered) {
  LinkPredictionMetrics m;
  m.num_test_triples = test_triples.size();
  if (test_triples.empty()) return m;

  double sum_rank = 0.0, sum_rr = 0.0, hits1 = 0.0, hits10 = 0.0;
  size_t trials = 0;
  for (const kg::Triple& t : test_triples) {
    for (bool corrupt_tail : {true, false}) {
      size_t rank = RankOneSide(model, graph, t, corrupt_tail, filtered);
      sum_rank += static_cast<double>(rank);
      sum_rr += 1.0 / static_cast<double>(rank);
      if (rank <= 1) hits1 += 1.0;
      if (rank <= 10) hits10 += 1.0;
      ++trials;
    }
  }
  const double denom = static_cast<double>(trials);
  m.mean_rank = sum_rank / denom;
  m.mean_reciprocal_rank = sum_rr / denom;
  m.hits_at_1 = hits1 / denom;
  m.hits_at_10 = hits10 / denom;
  return m;
}

}  // namespace vkg::embedding
