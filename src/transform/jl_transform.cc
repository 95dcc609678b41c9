#include "transform/jl_transform.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace vkg::transform {

namespace {

// Rows pushed through the projection (query centers and bulk entity
// loads alike): one counter, incremented per Apply call / per batch.
obs::Counter& ProjectionCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "vkg_jl_projections_total");
  return counter;
}

}  // namespace

JlTransform::JlTransform(size_t input_dim, size_t output_dim, uint64_t seed)
    : input_dim_(input_dim), output_dim_(output_dim) {
  VKG_CHECK(input_dim >= 1);
  VKG_CHECK(output_dim >= 1);
  util::Rng rng(seed);
  matrix_.resize(input_dim * output_dim);
  const float scale =
      static_cast<float>(1.0 / std::sqrt(static_cast<double>(output_dim)));
  for (float& v : matrix_) {
    v = static_cast<float>(rng.Gaussian()) * scale;
  }
}

void JlTransform::Project(const float* in, float* out) const {
  for (size_t a = 0; a < output_dim_; ++a) {
    const float* row = matrix_.data() + a * input_dim_;
    double acc = 0.0;
    for (size_t d = 0; d < input_dim_; ++d) {
      acc += static_cast<double>(row[d]) * in[d];
    }
    out[a] = static_cast<float>(acc);
  }
}

void JlTransform::Apply(std::span<const float> in,
                        std::span<float> out) const {
  VKG_CHECK(in.size() == input_dim_);
  VKG_CHECK(out.size() == output_dim_);
  ProjectionCounter().Inc();
  Project(in.data(), out.data());
}

std::vector<float> JlTransform::Apply(std::span<const float> in) const {
  std::vector<float> out(output_dim_);
  Apply(in, out);
  return out;
}

std::vector<float> JlTransform::ApplyToEntities(
    const embedding::EmbeddingStore& store) const {
  VKG_CHECK(store.dim() == input_dim_);
  const size_t n = store.num_entities();
  std::vector<float> out(n * output_dim_);
  auto project_rows = [&](size_t /*shard*/, size_t begin, size_t end) {
    for (size_t e = begin; e < end; ++e) {
      Project(store.Entity(static_cast<kg::EntityId>(e)).data(),
              out.data() + e * output_dim_);
    }
  };
  const size_t threads =
      std::min<size_t>(std::thread::hardware_concurrency(), 4);
  if (n >= kParallelMinRows && threads > 1) {
    util::ThreadPool pool(threads);
    pool.ParallelShards(n, project_rows);
  } else {
    project_rows(0, 0, n);
  }
  ProjectionCounter().Inc(n);
  return out;
}

}  // namespace vkg::transform
