#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <thread>

#include "query/metrics.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace vkg::bench {

double ScaleFactor() {
  static const double factor = [] {
    const char* env = std::getenv("VKG_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    double v = std::atof(env);
    return v > 0 ? v : 1.0;
  }();
  return factor;
}

size_t Scaled(size_t base, size_t min_value) {
  double v = static_cast<double>(base) * ScaleFactor();
  size_t out = static_cast<size_t>(v);
  return out < min_value ? min_value : out;
}

const data::Dataset& FreebaseDataset() {
  static const data::Dataset* ds = [] {
    data::FreebaseConfig config;
    config.num_entities = Scaled(40000, 2000);
    config.num_relation_types = Scaled(120, 12);
    config.target_edges = Scaled(100000, 4000);
    config.num_domains = 12;
    config.seed = 1001;
    std::fprintf(stderr, "[bench] generating freebase-like dataset...\n");
    return new data::Dataset(data::GenerateFreebaseLike(config));
  }();
  return *ds;
}

const data::Dataset& MovieDataset() {
  static const data::Dataset* ds = [] {
    data::MovieLensConfig config;
    config.num_users = Scaled(16000, 1000);
    config.num_movies = Scaled(6000, 500);
    config.num_tags = Scaled(800, 50);
    config.seed = 1002;
    std::fprintf(stderr, "[bench] generating movielens-like dataset...\n");
    return new data::Dataset(data::GenerateMovieLensLike(config));
  }();
  return *ds;
}

const data::Dataset& AmazonDataset() {
  static const data::Dataset* ds = [] {
    data::AmazonConfig config;
    config.num_users = Scaled(30000, 2000);
    config.num_products = Scaled(20000, 1500);
    config.seed = 1003;
    std::fprintf(stderr, "[bench] generating amazon-like dataset...\n");
    return new data::Dataset(data::GenerateAmazonLike(config));
  }();
  return *ds;
}

MethodRun MakeMethod(const data::Dataset& ds, index::MethodKind kind,
                     const MethodOptions& options) {
  MethodRun run;
  run.kind = kind;
  run.label = std::string(index::MethodName(kind));

  util::WallTimer build_timer;
  switch (kind) {
    case index::MethodKind::kNoIndex:
      run.engine = std::make_unique<query::LinearTopKEngine>(
          &ds.graph, &ds.embeddings);
      break;
    case index::MethodKind::kPhTree: {
      const auto& store = ds.embeddings;
      run.phtree = std::make_unique<index::PhTree>(
          store.EntityBlock(), store.num_entities(), store.dim());
      run.build_seconds = build_timer.ElapsedSeconds();
      run.engine = std::make_unique<query::PhTreeTopKEngine>(
          &ds.graph, &ds.embeddings, run.phtree.get());
      return run;
    }
    case index::MethodKind::kH2Alsh:
      run.engine = std::make_unique<query::H2AlshTopKEngine>(
          &ds.graph, &ds.embeddings, options.h2alsh);
      run.build_seconds = build_timer.ElapsedSeconds();
      return run;
    default: {
      // R-tree family: transform + sort orders always; bulk also builds
      // the full tree offline.
      index::RTreeConfig config = options.rtree;
      size_t choices = index::SplitChoicesFor(kind);
      if (choices > 0) config.split_choices = choices;
      run.jl = std::make_unique<transform::JlTransform>(
          ds.embeddings.dim(), options.alpha, /*seed=*/12345);
      run.points = std::make_unique<index::PointSet>(
          run.jl->ApplyToEntities(ds.embeddings), options.alpha);
      run.rtree_owned =
          std::make_unique<index::CrackingRTree>(run.points.get(), config);
      run.rtree = run.rtree_owned.get();
      bool is_bulk = kind == index::MethodKind::kBulkRTree;
      if (is_bulk) run.rtree->BuildFull();
      run.build_seconds = build_timer.ElapsedSeconds();
      run.engine = std::make_unique<query::RTreeTopKEngine>(
          &ds.graph, &ds.embeddings, run.jl.get(), run.rtree, options.eps,
          /*crack_after_query=*/!is_bulk, run.label);
      return run;
    }
  }
  run.build_seconds = build_timer.ElapsedSeconds();
  return run;
}

AggregateRun MakeAggregateRun(const data::Dataset& ds,
                              const MethodOptions& options) {
  AggregateRun run;
  run.jl = std::make_unique<transform::JlTransform>(ds.embeddings.dim(),
                                                    options.alpha, 12345);
  run.points = std::make_unique<index::PointSet>(
      run.jl->ApplyToEntities(ds.embeddings), options.alpha);
  run.rtree = std::make_unique<index::CrackingRTree>(run.points.get(),
                                                     options.rtree);
  run.engine = std::make_unique<query::AggregateEngine>(
      &ds.graph, &ds.embeddings, run.jl.get(), run.rtree.get(), options.eps,
      /*crack_after_query=*/true);
  return run;
}

TimeProfile ProfileMethod(MethodRun& run,
                          const std::vector<data::Query>& queries, size_t k,
                          size_t warm_count) {
  TimeProfile profile;
  profile.build_s = run.build_seconds;

  // The 1st, 6th, 11th, 16th queries of the sequence (Figures 3/5/7).
  double* slots[] = {&profile.q1_ms, &profile.q6_ms, &profile.q11_ms,
                     &profile.q16_ms};
  size_t slot_index[] = {0, 5, 10, 15};
  size_t next_slot = 0;
  const size_t initial = 16;
  for (size_t i = 0; i < initial; ++i) {
    const data::Query& q = queries[i % queries.size()];
    util::WallTimer timer;
    run.engine->TopKQuery(q, k);
    double ms = timer.ElapsedMillis();
    if (next_slot < 4 && i == slot_index[next_slot]) {
      *slots[next_slot] = ms;
      ++next_slot;
    }
  }

  // Steady-state average over `warm_count` further queries.
  util::WallTimer timer;
  for (size_t i = 0; i < warm_count; ++i) {
    const data::Query& q = queries[(initial + i) % queries.size()];
    run.engine->TopKQuery(q, k);
  }
  profile.warm_queries = warm_count;
  profile.warm_avg_us =
      warm_count == 0 ? 0.0
                      : timer.ElapsedSeconds() * 1e6 /
                            static_cast<double>(warm_count);

  // Converged steady state: repeat the same queries; no new cracking.
  util::WallTimer converged_timer;
  for (size_t i = 0; i < warm_count; ++i) {
    const data::Query& q = queries[(initial + i) % queries.size()];
    run.engine->TopKQuery(q, k);
  }
  profile.converged_avg_us =
      warm_count == 0 ? 0.0
                      : converged_timer.ElapsedSeconds() * 1e6 /
                            static_cast<double>(warm_count);
  return profile;
}

double MeasurePrecision(MethodRun& run, MethodRun& truth,
                        const std::vector<data::Query>& queries, size_t k) {
  double total = 0.0;
  for (const data::Query& q : queries) {
    query::TopKResult got = run.engine->TopKQuery(q, k);
    query::TopKResult expected = truth.engine->TopKQuery(q, k);
    total += query::PrecisionAtK(got, expected);
  }
  return queries.empty() ? 0.0 : total / static_cast<double>(queries.size());
}

std::vector<AggregateSweepRow> AggregateSweep(
    AggregateRun& run, const std::vector<data::Query>& queries,
    query::AggKind kind, const std::string& attribute, double prob_threshold,
    const std::vector<size_t>& sample_sizes) {
  std::vector<AggregateSweepRow> rows;
  // Warm pass: pay first-query cracking/sorting before timing the sweep
  // rows, so per-row times reflect steady-state access costs.
  for (const data::Query& q : queries) {
    query::AggregateSpec spec;
    spec.query = q;
    spec.kind = kind;
    spec.attribute = attribute;
    spec.prob_threshold = prob_threshold;
    spec.sample_size = 8;
    (void)run.engine->Aggregate(spec);
  }
  // Exact (ground-truth) values per query, computed once.
  std::vector<double> truth(queries.size(), 0.0);
  std::vector<bool> valid(queries.size(), false);
  for (size_t i = 0; i < queries.size(); ++i) {
    query::AggregateSpec spec;
    spec.query = queries[i];
    spec.kind = kind;
    spec.attribute = attribute;
    spec.prob_threshold = prob_threshold;
    auto exact = run.engine->ExactAggregate(spec);
    if (exact.ok() && exact->accessed > 0) {
      truth[i] = exact->value;
      valid[i] = true;
    }
  }
  for (size_t a : sample_sizes) {
    AggregateSweepRow row;
    row.sample_size = a;
    size_t counted = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!valid[i]) continue;
      query::AggregateSpec spec;
      spec.query = queries[i];
      spec.kind = kind;
      spec.attribute = attribute;
      spec.prob_threshold = prob_threshold;
      spec.sample_size = a;
      util::WallTimer timer;
      auto approx = run.engine->Aggregate(spec);
      double us = timer.ElapsedMicros();
      if (!approx.ok()) continue;
      row.avg_time_us += us;
      row.avg_accuracy += query::AggregateAccuracy(approx->value, truth[i]);
      row.avg_accessed += static_cast<double>(approx->accessed);
      ++counted;
    }
    if (counted > 0) {
      row.avg_time_us /= static_cast<double>(counted);
      row.avg_accuracy /= static_cast<double>(counted);
      row.avg_accessed /= static_cast<double>(counted);
    }
    rows.push_back(row);
  }
  return rows;
}

void PrintAggregateSweep(const std::string& title,
                         const std::vector<AggregateSweepRow>& rows) {
  PrintTitle(title);
  std::vector<int> widths{12, 12, 12, 14};
  PrintRow({"sample", "accessed", "accuracy", "time(us)"}, widths);
  for (const AggregateSweepRow& row : rows) {
    PrintRow({row.sample_size == 0 ? "all"
                                   : std::to_string(row.sample_size),
              util::StrFormat("%.1f", row.avg_accessed),
              util::StrFormat("%.4f", row.avg_accuracy),
              util::StrFormat("%.1f", row.avg_time_us)},
             widths);
  }
}

void WriteBenchJson(
    const std::string& path, const std::string& bench,
    const std::vector<std::pair<std::string, double>>& context,
    const std::vector<BenchRecord>& records, size_t max_threads,
    const std::vector<std::pair<std::string, std::string>>& string_context) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    return;
  }
  // hardware_concurrency() may return 0 ("unknown"); treat that as a
  // 1-core host so unknown hardware can never validate a scaling claim.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const bool scaling_valid = max_threads <= cores;
  if (!scaling_valid) {
    std::fprintf(stderr,
                 "[bench] %zu threads > %u cores: marking scaling_valid "
                 "false in %s\n",
                 max_threads, cores, path.c_str());
  }
  // %.17g round-trips doubles; names come from compile-time literals, so
  // no string escaping is needed.
  std::fprintf(f,
               "{\n  \"bench\": \"%s\",\n  \"scaling_valid\": %s,\n"
               "  \"context\": {",
               bench.c_str(), scaling_valid ? "true" : "false");
  for (size_t i = 0; i < context.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": %.17g", i == 0 ? "" : ",",
                 context[i].first.c_str(), context[i].second);
  }
  for (size_t i = 0; i < string_context.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": \"%s\"",
                 (i == 0 && context.empty()) ? "" : ",",
                 string_context[i].first.c_str(),
                 string_context[i].second.c_str());
  }
  std::fprintf(f, "\n  },\n  \"results\": [");
  for (size_t i = 0; i < records.size(); ++i) {
    std::fprintf(f,
                 "%s\n    {\"name\": \"%s\", \"value\": %.17g, "
                 "\"unit\": \"%s\", \"hardware_concurrency\": %u}",
                 i == 0 ? "" : ",", records[i].name.c_str(),
                 records[i].value, records[i].unit.c_str(), cores);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
}

void PrintTitle(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths) {
  for (size_t i = 0; i < cells.size(); ++i) {
    int w = i < widths.size() ? widths[i] : 12;
    std::printf("%-*s", w, cells[i].c_str());
  }
  std::printf("\n");
}

std::vector<data::Query> StandardWorkload(const data::Dataset& ds,
                                          size_t num_queries, uint64_t seed,
                                          kg::RelationId only_relation) {
  data::WorkloadConfig wc;
  wc.num_queries = num_queries;
  wc.seed = seed;
  wc.only_relation = only_relation;
  wc.skew_exponent = 1.1;
  return data::GenerateWorkload(ds.graph, wc);
}

}  // namespace vkg::bench
