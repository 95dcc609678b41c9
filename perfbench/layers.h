#ifndef VKG_PERFBENCH_LAYERS_H_
#define VKG_PERFBENCH_LAYERS_H_

// The per-layer ledger of a traced run: counters read from the public
// stats structs and the global metrics registry around the open-loop
// phase, plus a replay of a seeded request sample through each layer
// boundary in turn (socket, in-process server, engine, leaf calls).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "loadgen.h"
#include "net/listener.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "util/epoch.h"
#include "workload.h"

namespace vkg::perfbench {

/// Every counter the ledger reads, snapshotted at one instant.
struct CounterSnapshot {
  server::ServerStats server;
  net::NetStats net;
  uint64_t generation = 0;  // sum over shard trees
  std::map<std::string, uint64_t> registry;
  obs::Histogram::Snapshot queue_wait_us;
  util::EpochManager::Stats epoch;

  static CounterSnapshot Take(const Stack& stack);
};

/// Clears the process-wide high-water marks the ledger reports for one
/// phase (the server's peak-depth gauge).
void ResetPhaseGauges();

/// Adds every per-layer metric. `open_stream` is the open-loop phase's
/// request stream and `universe` the workload's keys; `before`/`after`
/// bracket that phase. Returns false (with `error`) when a replayed
/// request fails.
bool AddLayerMetrics(Stack& stack, const WorkloadSpec& spec,
                     const std::vector<data::Query>& universe,
                     const std::vector<query::ServerRequest>& open_stream,
                     const CounterSnapshot& before,
                     const CounterSnapshot& after,
                     const OpenLoopResult& open, uint64_t seed,
                     MetricSet* metrics, std::string* error);

}  // namespace vkg::perfbench

#endif  // VKG_PERFBENCH_LAYERS_H_
