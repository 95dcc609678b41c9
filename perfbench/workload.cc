#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <tuple>

#include "data/freebase_gen.h"
#include "data/movielens_gen.h"
#include "harness.h"
#include "server/result_cache.h"

namespace vkg::perfbench {

namespace {

// Offered rates sit far enough below each workload's closed-loop
// peak_qps that a host stall does not overrun the server's
// per-connection pipeline cap (see WORKLOADS.md).
const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> out;
    WorkloadSpec hot;
    hot.name = "hot_cached";
    hot.dataset = DatasetKind::kMovie;
    hot.cache_bytes = 8u << 20;  // the ServerConfig default
    hot.offered_qps = 20000.0;
    hot.universe = 2048;
    hot.zipf_s = 1.1;
    hot.warm = true;
    hot.agg_attribute = "year";
    out.push_back(hot);

    WorkloadSpec uniform;
    uniform.name = "uniform_compute";
    uniform.dataset = DatasetKind::kMovie;
    uniform.cache_bytes = 64u << 10;
    uniform.offered_qps = 500.0;
    uniform.universe = 4096;
    uniform.zipf_s = 0.0;
    uniform.warm = true;
    uniform.agg_attribute = "year";
    out.push_back(uniform);

    WorkloadSpec cold;
    cold.name = "cold_mixed";
    cold.dataset = DatasetKind::kFreebase;
    cold.cache_bytes = 8u << 20;
    cold.offered_qps = 450.0;
    cold.universe = 0;
    cold.zipf_s = 0.9;
    cold.agg_fraction = 0.15;
    cold.warm = false;
    cold.agg_attribute = "popularity";
    out.push_back(cold);
    return out;
  }();
  return specs;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::unique_ptr<data::Dataset> MakeDataset(DatasetKind kind) {
  // The sizes of the repository's figure benches at scale 1.
  if (kind == DatasetKind::kMovie) {
    data::MovieLensConfig config;
    config.num_users = 16000;
    config.num_movies = 6000;
    config.num_tags = 800;
    config.seed = 1002;
    return std::make_unique<data::Dataset>(
        data::GenerateMovieLensLike(config));
  }
  data::FreebaseConfig config;
  config.num_entities = 40000;
  config.num_relation_types = 120;
  config.target_edges = 100000;
  config.num_domains = 12;
  config.seed = 1001;
  return std::make_unique<data::Dataset>(data::GenerateFreebaseLike(config));
}

std::vector<data::Query> ObservedKeys(const kg::KnowledgeGraph& graph,
                                      uint64_t seed) {
  using Key = std::tuple<kg::EntityId, kg::RelationId, int>;
  std::vector<Key> keys;
  keys.reserve(graph.triples().triples().size() * 2);
  for (const kg::Triple& t : graph.triples().triples()) {
    keys.emplace_back(t.head, t.relation,
                      static_cast<int>(kg::Direction::kTail));
    keys.emplace_back(t.tail, t.relation,
                      static_cast<int>(kg::Direction::kHead));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  Rng rng(seed);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Index(i)]);
  }
  std::vector<data::Query> out;
  out.reserve(keys.size());
  for (const auto& [anchor, relation, direction] : keys) {
    data::Query q;
    q.anchor = anchor;
    q.relation = relation;
    q.direction = static_cast<kg::Direction>(direction);
    out.push_back(q);
  }
  return out;
}

query::ServerRequest TopKRequest(const data::Query& q) {
  query::ServerRequest request;
  request.kind = query::RequestKind::kTopK;
  request.query = q;
  request.k = 10;
  return request;
}

std::vector<query::ServerRequest> MakeStream(
    const WorkloadSpec& spec, const std::vector<data::Query>& universe,
    size_t n, uint64_t seed) {
  std::vector<query::ServerRequest> out;
  if (universe.empty()) return out;
  out.reserve(n);
  Rng rng(seed);
  std::unique_ptr<ZipfTable> zipf;
  if (spec.zipf_s > 0.0) {
    zipf = std::make_unique<ZipfTable>(universe.size(), spec.zipf_s);
  }
  // The aggregate mix of Figures 12-16: COUNT and MAX at p_tau 0.05,
  // sample sizes 32, 512 and all (0).
  static constexpr size_t kSamples[] = {32, 512, 0};
  for (size_t i = 0; i < n; ++i) {
    const bool agg = spec.agg_fraction > 0.0 &&
                     rng.Uniform() < spec.agg_fraction;
    const size_t rank =
        zipf != nullptr ? zipf->Sample(rng) : rng.Index(universe.size());
    const data::Query& q = universe[rank];
    if (!agg) {
      out.push_back(TopKRequest(q));
      continue;
    }
    query::ServerRequest request;
    request.kind = query::RequestKind::kAggregate;
    request.aggregate.query = q;
    const bool count = rng.Uniform() < 0.5;
    request.aggregate.kind =
        count ? query::AggKind::kCount : query::AggKind::kMax;
    if (!count) request.aggregate.attribute = spec.agg_attribute;
    request.aggregate.prob_threshold = 0.05;
    request.aggregate.sample_size = kSamples[rng.Index(3)];
    out.push_back(std::move(request));
  }
  return out;
}

util::Result<Stack> MakeStack(const data::Dataset& ds,
                              const WorkloadSpec& spec) {
  Stack stack;
  embedding::EmbeddingStore store = ds.embeddings;
  const double start = NowSeconds();
  auto built = core::VirtualKnowledgeGraph::BuildWithEmbeddings(
      &ds.graph, std::move(store), core::VkgOptions{});
  if (!built.ok()) return built.status();
  stack.vkg = std::move(built).value();

  server::ServerConfig config;
  config.cache_bytes = spec.cache_bytes;
  auto created = server::VkgServer::Create(stack.vkg, config);
  if (!created.ok()) return created.status();
  stack.server = std::move(created).value();

  auto started = net::NetServer::Start(stack.server.get(),
                                       net::NetServerConfig{});
  if (!started.ok()) return started.status();
  stack.net = std::move(started).value();
  stack.setup_s = NowSeconds() - start;
  return stack;
}

size_t ExecuteAll(server::VkgServer& srv,
                  const std::vector<query::ServerRequest>& requests,
                  size_t window) {
  size_t failed = 0;
  std::deque<server::VkgServer::Ticket> pending;
  for (const query::ServerRequest& request : requests) {
    if (pending.size() >= window) {
      if (!pending.front().Get().ok()) ++failed;
      pending.pop_front();
    }
    pending.push_back(srv.Submit(request));
  }
  for (auto& ticket : pending) {
    if (!ticket.Get().ok()) ++failed;
  }
  return failed;
}

uint64_t TotalGeneration(const server::VkgServer& srv) {
  uint64_t total = 0;
  for (size_t s = 0; s < srv.num_shards(); ++s) {
    total += srv.ShardGeneration(s);
  }
  return total;
}

size_t ConvergeShards(server::VkgServer& srv,
                      const std::vector<data::Query>& keys,
                      size_t max_passes) {
  std::vector<query::ServerRequest> pass;
  pass.reserve(keys.size());
  for (const data::Query& q : keys) {
    query::ServerRequest request = TopKRequest(q);
    request.bypass_cache = true;
    pass.push_back(request);
  }
  for (size_t i = 1; i <= max_passes; ++i) {
    const uint64_t before = TotalGeneration(srv);
    if (ExecuteAll(srv, pass, 64) != 0) return 0;
    if (TotalGeneration(srv) == before) return i;
  }
  return max_passes;
}

size_t CacheEntryCapacity(size_t cache_bytes) {
  query::TopKResult ten;
  ten.hits.resize(10);
  ten.hits.shrink_to_fit();
  return cache_bytes / server::ResultCache::EntryBytes(ten);
}

int RunWorkloadSelfTests() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
      ++failures;
    }
  };
  // Synthetic universe: the checks are about the workload shapes, not a
  // dataset.
  std::vector<data::Query> universe(50000);
  for (size_t i = 0; i < universe.size(); ++i) {
    universe[i].anchor = static_cast<kg::EntityId>(i);
    universe[i].relation = 0;
  }
  for (const WorkloadSpec& spec : Specs()) {
    const size_t capacity = CacheEntryCapacity(spec.cache_bytes);
    if (spec.name == "hot_cached") {
      // Every key of the hot set fits, with room to spare.
      expect(spec.universe > 0 && spec.universe * 2 <= capacity,
             spec.name + ": hot set fits the cache twice over");
    }
    if (spec.name == "uniform_compute") {
      // The pool dwarfs the cache, so a hit is the exception.
      expect(spec.universe >= 10 * capacity,
             spec.name + ": key pool is at least 10x cache capacity");
    }
    const size_t pool = spec.universe == 0 ? universe.size() : spec.universe;
    const std::vector<data::Query> keys(universe.begin(),
                                        universe.begin() + pool);
    auto anchors = [&](uint64_t seed) {
      std::vector<kg::EntityId> out;
      for (const auto& r : MakeStream(spec, keys, 4000, seed)) {
        out.push_back(r.routing_query().anchor);
      }
      return out;
    };
    expect(anchors(11) == anchors(11),
           spec.name + ": same seed gives the same key stream");
    expect(anchors(11) != anchors(12),
           spec.name + ": another seed gives another key stream");
    const auto stream = MakeStream(spec, keys, 4000, 11);
    size_t aggs = 0;
    for (const auto& r : stream) {
      aggs += r.kind == query::RequestKind::kAggregate ? 1 : 0;
    }
    const double share = static_cast<double>(aggs) / stream.size();
    expect(std::abs(share - spec.agg_fraction) < 0.03,
           spec.name + ": aggregate share matches the mix");
  }
  return failures;
}

}  // namespace vkg::perfbench
