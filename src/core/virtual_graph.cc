#include "core/virtual_graph.h"

#include <utility>

#include "embedding/vector_ops.h"
#include "query/batch_executor.h"
#include "query/prob_model.h"
#include "util/string_util.h"

namespace vkg::core {

namespace {

// Arms a per-query context with the resilience limits configured in
// VkgOptions. The deadline is taken fresh here so it covers exactly one
// query, not the lifetime of the options object.
void ApplyQueryLimits(const VkgOptions& options,
                      query::QueryContext& ctx) {
  if (options.query_deadline_ms > 0.0) {
    ctx.control().set_deadline(
        util::Deadline::AfterMillis(options.query_deadline_ms));
  }
  ctx.control().set_budget(options.query_budget);
}

// Maps VkgOptions limits onto a batch: the budget stays per query, the
// deadline becomes the batch-wide cutoff (see BatchOptions).
query::BatchOptions MakeBatchOptions(const VkgOptions& options) {
  query::BatchOptions batch;
  if (options.query_deadline_ms > 0.0) {
    batch.deadline = util::Deadline::AfterMillis(options.query_deadline_ms);
  }
  batch.budget = options.query_budget;
  return batch;
}

}  // namespace

util::Result<std::unique_ptr<VirtualKnowledgeGraph>>
VirtualKnowledgeGraph::BuildWithEmbeddings(const kg::KnowledgeGraph* graph,
                                           embedding::EmbeddingStore store,
                                           const VkgOptions& options) {
  if (graph == nullptr) {
    return util::Status::InvalidArgument("graph must not be null");
  }
  if (store.num_entities() != graph->num_entities() ||
      store.num_relations() != graph->num_relations()) {
    // Anything else means the store's dense ids cannot match the
    // graph's, and predictions would point at phantom entities.
    return util::Status::InvalidArgument(util::StrFormat(
        "embedding store covers %zu entities / %zu relations but the graph "
        "has %zu / %zu (ids must correspond 1:1)",
        store.num_entities(), store.num_relations(), graph->num_entities(),
        graph->num_relations()));
  }
  if (options.alpha < 1 || options.alpha > index::kMaxDim) {
    return util::Status::InvalidArgument(
        util::StrFormat("alpha must be in [1, %zu]", index::kMaxDim));
  }
  if (options.eps <= 0) {
    return util::Status::InvalidArgument("eps must be positive");
  }
  // Embeddings are frozen from here on: give the batch kernels the
  // padded SoA fast path before the store becomes the facade's const
  // member.
  store.BuildPaddedMirror();
  return std::unique_ptr<VirtualKnowledgeGraph>(new VirtualKnowledgeGraph(
      graph, std::move(store), options.Normalized()));
}

util::Result<std::unique_ptr<VirtualKnowledgeGraph>>
VirtualKnowledgeGraph::BuildWithTraining(const kg::KnowledgeGraph* graph,
                                         const VkgOptions& options) {
  if (graph == nullptr) {
    return util::Status::InvalidArgument("graph must not be null");
  }
  embedding::Trainer trainer(*graph, options.trainer);
  VKG_ASSIGN_OR_RETURN(embedding::EmbeddingStore store, trainer.Train());
  return BuildWithEmbeddings(graph, std::move(store), options);
}

VirtualKnowledgeGraph::VirtualKnowledgeGraph(const kg::KnowledgeGraph* graph,
                                             embedding::EmbeddingStore store,
                                             VkgOptions options)
    : graph_(graph), store_(std::move(store)), options_(std::move(options)) {
  using index::MethodKind;

  jl_ = std::make_unique<transform::JlTransform>(store_.dim(), options_.alpha,
                                                 options_.jl_seed);
  points_s2_ = std::make_unique<index::PointSet>(jl_->ApplyToEntities(store_),
                                                 options_.alpha);
  rtree_ = std::make_unique<index::CrackingRTree>(points_s2_.get(),
                                                  options_.rtree);
  if (options_.method == MethodKind::kBulkRTree) {
    rtree_->BuildFull();
  }

  switch (options_.method) {
    case MethodKind::kNoIndex:
      topk_engine_ =
          std::make_unique<query::LinearTopKEngine>(graph_, &store_);
      break;
    case MethodKind::kPhTree:
      // Index the high-dimensional S1 vectors directly.
      phtree_ = std::make_unique<index::PhTree>(
          store_.EntityBlock(), store_.num_entities(), store_.dim());
      topk_engine_ = std::make_unique<query::PhTreeTopKEngine>(
          graph_, &store_, phtree_.get());
      break;
    case MethodKind::kH2Alsh:
      topk_engine_ = std::make_unique<query::H2AlshTopKEngine>(
          graph_, &store_, options_.h2alsh);
      break;
    default:  // R-tree methods: BindEngines builds them over rtree_
      break;
  }
  BindEngines();
}

void VirtualKnowledgeGraph::BindEngines() {
  const bool crack = index::CracksOnline(options_.method);
  if (index::UsesRTree(options_.method)) {
    topk_engine_ = std::make_unique<query::RTreeTopKEngine>(
        graph_, &store_, jl_.get(), rtree_.get(), options_.eps, crack,
        index::MethodName(options_.method));
  }
  aggregate_engine_ = std::make_unique<query::AggregateEngine>(
      graph_, &store_, jl_.get(), rtree_.get(), options_.eps, crack);
}

query::TopKResult VirtualKnowledgeGraph::TopKTails(kg::EntityId h,
                                                   kg::RelationId r,
                                                   size_t k) {
  return TopK({h, r, kg::Direction::kTail}, k);
}

query::TopKResult VirtualKnowledgeGraph::TopKHeads(kg::EntityId t,
                                                   kg::RelationId r,
                                                   size_t k) {
  return TopK({t, r, kg::Direction::kHead}, k);
}

query::TopKResult VirtualKnowledgeGraph::TopK(const data::Query& query,
                                              size_t k, obs::Trace* trace) {
  query::QueryContext ctx;
  ApplyQueryLimits(options_, ctx);
  ctx.set_trace(trace);
  return topk_engine_->TopKQuery(query, k, ctx);
}

util::ThreadPool* VirtualKnowledgeGraph::QueryPool() {
  if (options_.query_threads < 2) return nullptr;
  if (query_pool_ == nullptr) {
    query_pool_ = std::make_unique<util::ThreadPool>(options_.query_threads);
  }
  return query_pool_.get();
}

std::vector<util::Result<query::TopKResult>>
VirtualKnowledgeGraph::BatchTopK(std::span<const data::Query> queries,
                                 size_t k) {
  return query::BatchTopK(*topk_engine_, queries, k, QueryPool(),
                          MakeBatchOptions(options_));
}

std::vector<util::Result<query::AggregateResult>>
VirtualKnowledgeGraph::BatchAggregate(
    std::span<const query::AggregateSpec> specs) {
  return query::BatchAggregate(*aggregate_engine_, specs, QueryPool(),
                               MakeBatchOptions(options_));
}

util::Result<query::TopKResult> VirtualKnowledgeGraph::TopKByName(
    std::string_view anchor, std::string_view relation,
    kg::Direction direction, size_t k, obs::Trace* trace) {
  VKG_ASSIGN_OR_RETURN(kg::EntityId a,
                       graph_->entity_names().Require(anchor));
  VKG_ASSIGN_OR_RETURN(kg::RelationId r,
                       graph_->relation_names().Require(relation));
  return TopK({a, r, direction}, k, trace);
}

query::TopKGuarantee VirtualKnowledgeGraph::GuaranteeFor(
    const query::TopKResult& result) const {
  std::vector<double> distances;
  distances.reserve(result.hits.size());
  for (const auto& hit : result.hits) distances.push_back(hit.distance);
  return query::ComputeTopKGuarantee(distances, options_.eps,
                                     options_.alpha);
}

util::Result<query::AggregateResult> VirtualKnowledgeGraph::Aggregate(
    const query::AggregateSpec& spec, obs::Trace* trace) {
  query::QueryContext ctx;
  ApplyQueryLimits(options_, ctx);
  ctx.set_trace(trace);
  return aggregate_engine_->Aggregate(spec, ctx);
}

util::Result<query::AggregateResult> VirtualKnowledgeGraph::ExactAggregate(
    const query::AggregateSpec& spec) {
  return aggregate_engine_->ExactAggregate(spec);
}

util::Status VirtualKnowledgeGraph::SaveIndex(
    const std::string& path) const {
  return rtree_->Save(path);
}

util::Status VirtualKnowledgeGraph::LoadIndex(const std::string& path) {
  VKG_ASSIGN_OR_RETURN(std::unique_ptr<index::CrackingRTree> loaded,
                       index::CrackingRTree::Load(path, points_s2_.get()));
  rtree_ = std::move(loaded);
  BindEngines();
  return util::Status::OK();
}

double VirtualKnowledgeGraph::PredictProbability(kg::EntityId h,
                                                 kg::RelationId r,
                                                 kg::EntityId t) {
  if (graph_->HasEdge(h, r, t)) return 1.0;
  std::vector<float> q = store_.QueryCenter(h, r, kg::Direction::kTail);
  query::TopKResult top1 = TopK({h, r, kg::Direction::kTail}, 1);
  if (top1.hits.empty()) return 0.0;
  query::ProbabilityModel pm(top1.hits[0].distance);
  double dist = embedding::L2Distance(store_.Entity(t), q);
  return pm.ProbabilityAt(dist);
}

}  // namespace vkg::core
