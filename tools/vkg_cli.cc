// vkg command-line tool: generate datasets, train embeddings, evaluate
// link prediction, and run predictive top-k / aggregate queries from the
// shell.
//
//   vkg_cli generate  --dataset movie --out-triples t.tsv [--scale 0.1]
//   vkg_cli stats     --triples t.tsv | --openke DIR  (FB15k layout)
//   vkg_cli train     --triples t.tsv --out-embeddings e.bin
//                     [--dim 50] [--epochs 50]
//                     [--lr 0.01] [--margin 1.0] [--holdout 0]
//   vkg_cli topk      --triples t.tsv --embeddings e.bin --anchor NAME
//                     --relation NAME [--heads] [--k 10] [--method crack]
//                     [--deadline-ms 0] [--max-points 0] [--trace]
//                     (--method takes a method label: crack,
//                      crack-2choice, bulk-load, no-index, ph-tree, ...)
//   vkg_cli aggregate --triples t.tsv --embeddings e.bin --anchor NAME
//                     --relation NAME --kind count|sum|avg|max|min
//                     [--attribute FILE.tsv --attribute-name year]
//                     [--threshold 0.05] [--sample 0]
//   vkg_cli batch     --triples t.tsv --embeddings e.bin [--queries 256]
//                     [--k 10] [--skew 0] [--seed 11] [--threads N]
//                     (generated workload through BatchTopK; prints
//                      throughput, degraded slots, crack contention)
//
// Global flags: --deadline-ms MS bounds each query's wall-clock time and
// --max-points N its exact-distance evaluations (degraded answers are
// labeled, never dropped); --threads N sizes the batch-query worker pool
// (0/1 = sequential); --failpoints "site=spec,..." arms the fault-
// injection registry (same syntax as the VKG_FAILPOINTS env var).
//
// Observability (DESIGN.md §6e): --trace on topk/aggregate prints the
// query's nested phase-span tree; --metrics[=prom|json] on
// topk/aggregate/batch dumps the global metrics registry (Prometheus
// text by default) after the command's own output.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/virtual_graph.h"
#include "data/amazon_gen.h"
#include "data/workload.h"
#include "query/metrics.h"
#include "data/freebase_gen.h"
#include "data/movielens_gen.h"
#include "embedding/evaluator.h"
#include "embedding/trainer.h"
#include "embedding/transe.h"
#include "kg/io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace vkg;

// Minimal --flag=value / --flag value parser.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      arg = arg.substr(2);
      size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && argv[i + 1][0] != '-') {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";  // boolean flag
      }
    }
  }

  std::string Get(const std::string& name,
                  const std::string& default_value = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? default_value : it->second;
  }
  double GetDouble(const std::string& name, double default_value) const {
    auto it = values_.find(name);
    return it == values_.end() ? default_value : std::atof(it->second.c_str());
  }
  size_t GetSize(const std::string& name, size_t default_value) const {
    auto it = values_.find(name);
    return it == values_.end()
               ? default_value
               : static_cast<size_t>(std::atoll(it->second.c_str()));
  }
  bool GetBool(const std::string& name) const {
    return values_.count(name) > 0;
  }
  bool Require(const std::string& name, std::string* out) const {
    auto it = values_.find(name);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing required flag --%s\n", name.c_str());
      return false;
    }
    *out = it->second;
    return true;
  }

 private:
  std::map<std::string, std::string> values_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: vkg_cli <generate|stats|train|topk|aggregate|batch> "
               "[flags]\n(see the header of tools/vkg_cli.cc)\n");
  return 2;
}

// Dumps the global metrics registry when --metrics[=prom|json] is set
// (after the command's own output, so scripts can split the two).
void MaybeDumpMetrics(const Flags& flags) {
  if (!flags.GetBool("metrics")) return;
  const std::string format = flags.Get("metrics", "prom");
  // Epoch reclamation state is pulled, not pushed: snapshot it into the
  // vkg_epoch_* gauges now so the dump reflects this process's cracks.
  obs::PublishEpochStats();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  if (format == "json") {
    std::printf("%s\n", reg.JsonText().c_str());
  } else {
    std::printf("%s", reg.PrometheusText().c_str());
  }
}

int CmdGenerate(const Flags& flags) {
  std::string dataset = flags.Get("dataset", "movie");
  std::string out;
  if (!flags.Require("out-triples", &out)) return 2;
  double scale = flags.GetDouble("scale", 0.1);

  data::Dataset ds;
  if (dataset == "movie") {
    data::MovieLensConfig config;
    config.num_users = static_cast<size_t>(24000 * scale);
    config.num_movies = static_cast<size_t>(8000 * scale);
    config.num_tags = static_cast<size_t>(800 * scale) + 10;
    ds = data::GenerateMovieLensLike(config);
  } else if (dataset == "freebase") {
    data::FreebaseConfig config;
    config.num_entities = static_cast<size_t>(50000 * scale);
    config.num_relation_types =
        static_cast<size_t>(120 * scale) + 10;
    config.target_edges = static_cast<size_t>(100000 * scale);
    ds = data::GenerateFreebaseLike(config);
  } else if (dataset == "amazon") {
    data::AmazonConfig config;
    config.num_users = static_cast<size_t>(60000 * scale);
    config.num_products = static_cast<size_t>(40000 * scale);
    ds = data::GenerateAmazonLike(config);
  } else {
    std::fprintf(stderr, "unknown --dataset '%s'\n", dataset.c_str());
    return 2;
  }

  util::Status s = kg::SaveTriplesTsv(ds.graph, out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::string emb_out = flags.Get("out-embeddings");
  if (!emb_out.empty()) {
    // Reloading the TSV assigns fresh dense ids (in file order, and
    // entities with no edges disappear), so remap the embedding rows
    // through entity/relation names to match what a later reload sees.
    kg::KnowledgeGraph reloaded;
    s = kg::LoadTriplesTsv(out, &reloaded);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    embedding::EmbeddingStore remapped(reloaded.num_entities(),
                                       reloaded.num_relations(),
                                       ds.embeddings.dim());
    for (kg::EntityId e = 0; e < reloaded.num_entities(); ++e) {
      kg::EntityId orig =
          ds.graph.entity_names().Lookup(reloaded.entity_names().Name(e));
      auto src = ds.embeddings.Entity(orig);
      std::copy(src.begin(), src.end(), remapped.Entity(e).begin());
    }
    for (kg::RelationId r = 0; r < reloaded.num_relations(); ++r) {
      kg::RelationId orig = ds.graph.relation_names().Lookup(
          reloaded.relation_names().Name(r));
      auto src = ds.embeddings.Relation(orig);
      std::copy(src.begin(), src.end(), remapped.Relation(r).begin());
    }
    s = remapped.Save(emb_out);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  auto stats = ds.graph.Stats();
  std::printf("wrote %zu triples over %zu entities to %s\n",
              stats.num_edges, stats.num_entities, out.c_str());
  return 0;
}

util::Result<kg::KnowledgeGraph> LoadGraph(const Flags& flags) {
  kg::KnowledgeGraph graph;
  std::string openke = flags.Get("openke");
  if (!openke.empty()) {
    // Standard OpenKE/FB15k benchmark directory layout.
    VKG_RETURN_IF_ERROR(kg::LoadOpenKeBenchmark(openke, &graph));
  } else {
    std::string triples;
    if (!flags.Require("triples", &triples)) {
      return util::Status::InvalidArgument("missing --triples/--openke");
    }
    VKG_RETURN_IF_ERROR(kg::LoadTriplesTsv(triples, &graph));
  }
  std::string attr = flags.Get("attribute");
  if (!attr.empty()) {
    std::string name = flags.Get("attribute-name", "value");
    VKG_RETURN_IF_ERROR(
        kg::LoadAttributeTsv(attr, name, &graph, /*skip_unknown=*/true));
  }
  return graph;
}

int CmdStats(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  kg::GraphStats s = graph->Stats();
  std::printf("entities:        %zu\n", s.num_entities);
  std::printf("relation types:  %zu\n", s.num_relation_types);
  std::printf("edges:           %zu\n", s.num_edges);
  std::printf("avg out-degree:  %.3f\n", s.avg_out_degree);
  std::printf("max degree:      %zu\n", s.max_degree);
  return 0;
}

int CmdTrain(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::string out;
  if (!flags.Require("out-embeddings", &out)) return 2;

  embedding::TrainerConfig config;
  config.dim = flags.GetSize("dim", 50);
  config.epochs = flags.GetSize("epochs", 50);
  config.learning_rate = flags.GetDouble("lr", 0.01);
  config.margin = flags.GetDouble("margin", 1.0);

  size_t holdout = flags.GetSize("holdout", 0);
  util::Rng rng(flags.GetSize("seed", 42));
  std::vector<kg::Triple> held_out;
  if (holdout > 0) held_out = graph->MaskRandomEdges(holdout, rng);

  util::WallTimer timer;
  embedding::Trainer trainer(*graph, config);
  auto store = trainer.Train([](const embedding::EpochStats& s) {
    if (s.epoch % 10 == 0) {
      std::fprintf(stderr, "epoch %zu: mean loss %.5f\n", s.epoch,
                   s.mean_loss);
    }
  });
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  std::printf("trained TransE in %.1fs\n", timer.ElapsedSeconds());

  if (!held_out.empty()) {
    embedding::TransE model(&*store, config.norm);
    auto metrics =
        embedding::EvaluateLinkPrediction(model, *graph, held_out);
    std::printf("link prediction on %zu held-out triples: mean rank %.1f, "
                "hits@10 %.3f\n",
                metrics.num_test_triples, metrics.mean_rank,
                metrics.hits_at_10);
  }
  util::Status s = store->Save(out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("embeddings written to %s\n", out.c_str());
  return 0;
}

util::Result<std::unique_ptr<core::VirtualKnowledgeGraph>> BuildVkg(
    const Flags& flags, kg::KnowledgeGraph* graph) {
  std::string emb;
  if (!flags.Require("embeddings", &emb)) {
    return util::Status::InvalidArgument("missing --embeddings");
  }
  VKG_ASSIGN_OR_RETURN(embedding::EmbeddingStore store,
                       embedding::EmbeddingStore::Load(emb));
  core::VkgOptions options;
  VKG_ASSIGN_OR_RETURN(options.method,
                       index::ParseMethod(flags.Get("method", "crack")));
  options.alpha = flags.GetSize("alpha", 3);
  options.eps = flags.GetDouble("eps", 1.0);
  options.query_deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  options.query_budget.max_points = flags.GetSize("max-points", 0);
  options.query_threads = flags.GetSize("threads", 0);
  return core::VirtualKnowledgeGraph::BuildWithEmbeddings(
      graph, std::move(store), options);
}

int CmdTopK(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  auto vkg = BuildVkg(flags, &*graph);
  if (!vkg.ok()) {
    std::fprintf(stderr, "%s\n", vkg.status().ToString().c_str());
    return 1;
  }
  std::string anchor, relation;
  if (!flags.Require("anchor", &anchor) ||
      !flags.Require("relation", &relation)) {
    return 2;
  }
  kg::Direction dir =
      flags.GetBool("heads") ? kg::Direction::kHead : kg::Direction::kTail;
  size_t k = flags.GetSize("k", 10);

  const bool trace_on = flags.GetBool("trace");
  obs::Trace trace(util::StrFormat("topk anchor=%s relation=%s k=%zu",
                                   anchor.c_str(), relation.c_str(), k));

  util::WallTimer timer;
  auto result =
      (*vkg)->TopKByName(anchor, relation, dir, k,
                         trace_on ? &trace : nullptr);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  double ms = timer.ElapsedMillis();
  for (const auto& hit : result->hits) {
    std::printf("%-30s p=%.4f distance=%.4f\n",
                graph->entity_names().Name(hit.entity).c_str(),
                hit.probability, hit.distance);
  }
  auto guarantee = (*vkg)->GuaranteeFor(*result);
  std::printf("(%zu candidates, %.2f ms; Theorem 2 success >= %.3f)\n",
              result->candidates_examined, ms,
              guarantee.success_probability);
  if (!result->quality.exact) {
    std::printf("(degraded: stopped by %s; exact within radius %.4f)\n",
                std::string(util::StopReasonName(
                                result->quality.stop_reason))
                    .c_str(),
                result->quality.certified_radius);
  }
  if (trace_on) std::printf("%s", trace.Render().c_str());
  MaybeDumpMetrics(flags);
  return 0;
}

// Answers a generated workload through BatchTopK — the concurrent
// serving path (--threads N fans queries over N workers; reads are
// lock-free, so throughput scales with cores even while the index
// cracks). Reports throughput, degraded slots, and crack-contention
// counters.
int CmdBatch(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  auto vkg = BuildVkg(flags, &*graph);
  if (!vkg.ok()) {
    std::fprintf(stderr, "%s\n", vkg.status().ToString().c_str());
    return 1;
  }
  data::WorkloadConfig wc;
  wc.num_queries = flags.GetSize("queries", 256);
  wc.skew_exponent = flags.GetDouble("skew", 0.0);
  wc.seed = flags.GetSize("seed", 11);
  std::vector<data::Query> workload = data::GenerateWorkload(*graph, wc);
  const size_t k = flags.GetSize("k", 10);

  index::IndexStats before = (*vkg)->IndexStats();
  util::WallTimer timer;
  auto results = (*vkg)->BatchTopK(workload, k);
  double seconds = timer.ElapsedSeconds();
  index::IndexStats after = (*vkg)->IndexStats();

  size_t failed = 0;
  size_t degraded = 0;
  for (const auto& r : results) {
    if (!r.ok()) {
      ++failed;
    } else if (!r->quality.exact) {
      ++degraded;
    }
  }
  std::printf("%zu queries in %.3fs (%.0f qps, threads=%zu)\n",
              workload.size(), seconds,
              seconds > 0 ? static_cast<double>(workload.size()) / seconds
                          : 0.0,
              (*vkg)->options().query_threads);
  std::printf("%zu degraded, %zu failed\n", degraded, failed);
  std::printf("%s\n",
              query::FormatContention(query::ContentionDelta(before, after))
                  .c_str());
  MaybeDumpMetrics(flags);
  return failed == 0 ? 0 : 1;
}

int CmdAggregate(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  auto vkg = BuildVkg(flags, &*graph);
  if (!vkg.ok()) {
    std::fprintf(stderr, "%s\n", vkg.status().ToString().c_str());
    return 1;
  }
  std::string anchor, relation, kind_name;
  if (!flags.Require("anchor", &anchor) ||
      !flags.Require("relation", &relation) ||
      !flags.Require("kind", &kind_name)) {
    return 2;
  }
  auto anchor_id = graph->entity_names().Require(anchor);
  auto relation_id = graph->relation_names().Require(relation);
  if (!anchor_id.ok() || !relation_id.ok()) {
    std::fprintf(stderr, "unknown anchor or relation name\n");
    return 1;
  }

  query::AggregateSpec spec;
  spec.query = {*anchor_id, *relation_id,
                flags.GetBool("heads") ? kg::Direction::kHead
                                       : kg::Direction::kTail};
  if (kind_name == "count") {
    spec.kind = query::AggKind::kCount;
  } else if (kind_name == "sum") {
    spec.kind = query::AggKind::kSum;
  } else if (kind_name == "avg") {
    spec.kind = query::AggKind::kAvg;
  } else if (kind_name == "max") {
    spec.kind = query::AggKind::kMax;
  } else if (kind_name == "min") {
    spec.kind = query::AggKind::kMin;
  } else {
    std::fprintf(stderr, "unknown --kind '%s'\n", kind_name.c_str());
    return 2;
  }
  spec.attribute = flags.Get("attribute-name", "value");
  spec.prob_threshold = flags.GetDouble("threshold", 0.05);
  spec.sample_size = flags.GetSize("sample", 0);

  const bool trace_on = flags.GetBool("trace");
  obs::Trace trace(
      util::StrFormat("aggregate %s anchor=%s relation=%s",
                      std::string(query::AggKindName(spec.kind)).c_str(),
                      anchor.c_str(), relation.c_str()));

  util::WallTimer timer;
  auto result = (*vkg)->Aggregate(spec, trace_on ? &trace : nullptr);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s = %.4f  (accessed %zu of ~%.0f ball entities, %.2f ms)\n",
              std::string(query::AggKindName(spec.kind)).c_str(),
              result->value, result->accessed, result->estimated_total,
              timer.ElapsedMillis());
  if (trace_on) std::printf("%s", trace.Render().c_str());
  MaybeDumpMetrics(flags);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  Flags flags(argc, argv, 2);
  std::string failpoints = flags.Get("failpoints");
  if (!failpoints.empty()) {
    util::Status s =
        util::FailPointRegistry::Instance().Configure(failpoints);
    if (!s.ok()) {
      std::fprintf(stderr, "bad --failpoints: %s\n",
                   s.ToString().c_str());
      return 2;
    }
  }
  if (command == "generate") return CmdGenerate(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "train") return CmdTrain(flags);
  if (command == "topk") return CmdTopK(flags);
  if (command == "aggregate") return CmdAggregate(flags);
  if (command == "batch") return CmdBatch(flags);
  return Usage();
}
