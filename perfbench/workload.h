#ifndef VKG_PERFBENCH_WORKLOAD_H_
#define VKG_PERFBENCH_WORKLOAD_H_

// The three serving workloads and the stack each run hosts: dataset,
// VirtualKnowledgeGraph, VkgServer and NetServer on loopback.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/virtual_graph.h"
#include "data/dataset.h"
#include "net/listener.h"
#include "query/request.h"
#include "server/server.h"

namespace vkg::perfbench {

enum class DatasetKind { kMovie, kFreebase };

/// One workload. Every number here is part of the benchmark definition
/// (see perfbench/WORKLOADS.md for where each came from).
struct WorkloadSpec {
  std::string name;
  DatasetKind dataset = DatasetKind::kMovie;
  /// ServerConfig::cache_bytes; every other ServerConfig field is the
  /// default.
  size_t cache_bytes = 0;
  /// Open-loop offered rate (requests per second).
  double offered_qps = 0.0;
  /// Keys come from the first `universe` observed (anchor, relation,
  /// direction) triples after a seeded shuffle; 0 = all of them.
  size_t universe = 0;
  /// Zipf exponent over the universe's ranks; 0 = uniform.
  double zipf_s = 0.0;
  /// Share of aggregate requests in the stream (the rest are top-10).
  double agg_fraction = 0.0;
  /// Converge the shard trees on the universe (and prime the cache)
  /// before timing; false starts from fresh, uncracked trees.
  bool warm = false;
  /// Attribute aggregated by MAX requests.
  std::string agg_attribute;
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The dataset a workload runs on; generated deterministically (the
/// dataset does not depend on the run seed).
std::unique_ptr<data::Dataset> MakeDataset(DatasetKind kind);

/// Every observed (anchor, relation, direction) triple of the graph,
/// shuffled by `seed`.
std::vector<data::Query> ObservedKeys(const kg::KnowledgeGraph& graph,
                                      uint64_t seed);

/// The seeded request stream of a workload: `n` requests over
/// `universe` (top-10 or aggregate, per the spec's mix).
std::vector<query::ServerRequest> MakeStream(
    const WorkloadSpec& spec, const std::vector<data::Query>& universe,
    size_t n, uint64_t seed);

/// Top-10 request for `q` (the one request shape top-k traffic uses).
query::ServerRequest TopKRequest(const data::Query& q);

/// The serving stack of one run. Members are destroyed in reverse
/// order: the listener stops before the server, the server before the
/// graph it serves.
struct Stack {
  std::shared_ptr<core::VirtualKnowledgeGraph> vkg;
  std::unique_ptr<server::VkgServer> server;
  std::unique_ptr<net::NetServer> net;
  double setup_s = 0.0;  // Build + Create + Start, timed
};

/// Builds a stack over `ds` with the workload's cache size. Dataset
/// generation is not timed; the copy of the embeddings handed to
/// BuildWithEmbeddings is made before the clock starts.
util::Result<Stack> MakeStack(const data::Dataset& ds,
                              const WorkloadSpec& spec);

/// Runs `requests` through `srv` in-process with at most `window`
/// outstanding. Returns the number of non-OK responses.
size_t ExecuteAll(server::VkgServer& srv,
                  const std::vector<query::ServerRequest>& requests,
                  size_t window);

/// Sum of the shard trees' crack generations.
uint64_t TotalGeneration(const server::VkgServer& srv);

/// Brings the shard trees to a converged state on `keys`: passes of
/// uncached top-10 computations until a pass publishes no crack (at most
/// `max_passes`). Returns the number of passes run, or 0 on failures.
size_t ConvergeShards(server::VkgServer& srv,
                      const std::vector<data::Query>& keys,
                      size_t max_passes);

/// Cache entry capacity of `cache_bytes` for top-10 results.
size_t CacheEntryCapacity(size_t cache_bytes);

/// Checks each workload's shape: distinct keys against cache capacity.
/// Returns the number of failed checks.
int RunWorkloadSelfTests();

}  // namespace vkg::perfbench

#endif  // VKG_PERFBENCH_WORKLOAD_H_
