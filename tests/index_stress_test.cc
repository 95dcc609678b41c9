// Randomized stress tests over the index stack: long interleaved
// sequences of cracks, searches, persistence round-trips, and A*
// variants, checked against brute force on every step — parameterized
// over seeds, dimensionalities, and configurations.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>

#include "index/cracking_rtree.h"
#include "util/random.h"

namespace vkg::index {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Mixture of blobs, a uniform slab, and duplicated points — deliberately
// nasty for split choices and degenerate MBRs.
PointSet NastyPoints(size_t n, size_t dim, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> coords;
  coords.reserve(n * dim);
  for (size_t i = 0; i < n; ++i) {
    double mode = rng.Uniform();
    for (size_t d = 0; d < dim; ++d) {
      float v;
      if (mode < 0.5) {
        v = static_cast<float>(rng.Gaussian(mode < 0.25 ? -2.0 : 2.0, 0.3));
      } else if (mode < 0.8) {
        v = static_cast<float>(rng.Uniform(-4.0, 4.0));
      } else if (mode < 0.9) {
        v = 0.0f;  // heavy duplication on a single point
      } else {
        v = d == 0 ? static_cast<float>(rng.Gaussian()) : 1.0f;  // a line
      }
      coords.push_back(v);
    }
  }
  return PointSet(std::move(coords), dim);
}

struct StressCase {
  size_t n;
  size_t dim;
  size_t leaf;
  size_t fanout;
  size_t choices;
  uint64_t seed;
};

class IndexStressTest : public ::testing::TestWithParam<StressCase> {};

TEST_P(IndexStressTest, LongCrackSearchSequence) {
  const auto& p = GetParam();
  PointSet ps = NastyPoints(p.n, p.dim, p.seed);
  RTreeConfig config;
  config.leaf_capacity = p.leaf;
  config.fanout = p.fanout;
  config.split_choices = p.choices;
  CrackingRTree tree(&ps, config);
  util::Rng rng(p.seed + 1);

  for (int step = 0; step < 40; ++step) {
    // Random region: sometimes around a point, sometimes a random box,
    // sometimes degenerate or disjoint from the data.
    Rect region = Rect::Empty(p.dim);
    double mode = rng.Uniform();
    if (mode < 0.6) {
      uint32_t anchor = static_cast<uint32_t>(rng.UniformIndex(ps.size()));
      region = Rect::BoundingBoxOfBall(Point::FromSpan(ps.at(anchor)),
                                       rng.Uniform(0.05, 1.5));
    } else if (mode < 0.9) {
      std::vector<float> a(p.dim), b(p.dim);
      for (size_t d = 0; d < p.dim; ++d) {
        a[d] = static_cast<float>(rng.Uniform(-5, 5));
        b[d] = a[d] + static_cast<float>(rng.Uniform(0, 3));
      }
      region.ExpandToFit(a);
      region.ExpandToFit(b);
    } else {
      std::vector<float> far(p.dim, 100.0f);
      region.ExpandToFit(far);
    }

    if (rng.Bernoulli(0.7)) tree.Crack(region);

    std::set<uint32_t> expected;
    for (uint32_t i = 0; i < ps.size(); ++i) {
      if (region.Contains(ps.at(i))) expected.insert(i);
    }
    std::set<uint32_t> got;
    tree.Search(region, [&](uint32_t id) { got.insert(id); });
    ASSERT_EQ(got, expected) << "step " << step;
  }

  // Invariants at the end: contour partitions everything exactly once.
  std::set<uint32_t> seen;
  std::vector<const Node*> stack{&tree.root()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n->kind == Node::Kind::kInternal) {
      EXPECT_LE(n->children.size(), p.fanout);
      for (const auto* c : n->children) stack.push_back(c);
      continue;
    }
    for (uint32_t id : tree.ElementIds(*n)) {
      ASSERT_TRUE(seen.insert(id).second);
    }
  }
  EXPECT_EQ(seen.size(), ps.size());
}

TEST_P(IndexStressTest, PersistenceMidSequence) {
  const auto& p = GetParam();
  PointSet ps = NastyPoints(p.n, p.dim, p.seed + 7);
  RTreeConfig config;
  config.leaf_capacity = p.leaf;
  config.fanout = p.fanout;
  config.split_choices = p.choices;
  auto tree = std::make_unique<CrackingRTree>(&ps, config);
  util::Rng rng(p.seed + 8);
  std::string path = TempPath("vkg_stress_" + std::to_string(p.seed));

  for (int step = 0; step < 12; ++step) {
    uint32_t anchor = static_cast<uint32_t>(rng.UniformIndex(ps.size()));
    Rect region = Rect::BoundingBoxOfBall(Point::FromSpan(ps.at(anchor)),
                                          rng.Uniform(0.1, 1.0));
    tree->Crack(region);
    if (step % 4 == 3) {
      // Round-trip through disk and continue on the loaded tree.
      ASSERT_TRUE(tree->Save(path).ok());
      auto loaded = CrackingRTree::Load(path, &ps);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      tree = std::move(loaded).value();
    }
    std::set<uint32_t> expected, got;
    for (uint32_t i = 0; i < ps.size(); ++i) {
      if (region.Contains(ps.at(i))) expected.insert(i);
    }
    tree->Search(region, [&](uint32_t id) { got.insert(id); });
    ASSERT_EQ(got, expected);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndexStressTest,
    ::testing::Values(StressCase{1000, 2, 8, 4, 1, 1},
                      StressCase{1500, 3, 16, 8, 1, 2},
                      StressCase{1500, 3, 16, 8, 2, 3},
                      StressCase{1200, 3, 4, 2, 4, 4},
                      StressCase{800, 5, 32, 16, 3, 5},
                      StressCase{2000, 8, 16, 8, 1, 6}),
    [](const ::testing::TestParamInfo<StressCase>& info) {
      const auto& p = info.param;
      return "n" + std::to_string(p.n) + "d" + std::to_string(p.dim) +
             "N" + std::to_string(p.leaf) + "M" + std::to_string(p.fanout) +
             "k" + std::to_string(p.choices);
    });

}  // namespace
}  // namespace vkg::index
