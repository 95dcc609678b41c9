// Tests for the bulk-loaded R-tree (Algorithm 1 run to completion):
// structural invariants and search equivalence against brute force,
// parameterized over sizes, dimensionalities, and node capacities.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "index/cracking_rtree.h"
#include "util/random.h"

namespace vkg::index {
namespace {

PointSet RandomPoints(size_t n, size_t dim, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> coords(n * dim);
  for (float& v : coords) v = static_cast<float>(rng.Gaussian());
  return PointSet(std::move(coords), dim);
}

// Recursively checks MBR containment and structural sanity.
void CheckSubtree(const CrackingRTree& tree, const Node& node,
                  const RTreeConfig& config) {
  if (node.kind == Node::Kind::kInternal) {
    EXPECT_FALSE(node.children.empty());
    EXPECT_LE(node.children.size(), config.fanout);
    size_t covered = 0;
    for (const auto& child : node.children) {
      EXPECT_EQ(child->height, node.height - 1);
      covered += child->size();
      // Child MBR within parent MBR.
      for (size_t d = 0; d < node.mbr.dim; ++d) {
        EXPECT_GE(child->mbr.lo[d], node.mbr.lo[d]);
        EXPECT_LE(child->mbr.hi[d], node.mbr.hi[d]);
      }
      CheckSubtree(tree, *child, config);
    }
    EXPECT_EQ(covered, node.size());
    return;
  }
  // Contour element: every point inside its MBR.
  for (uint32_t id : tree.ElementIds(node)) {
    EXPECT_TRUE(node.mbr.Contains(tree.points().at(id)));
  }
  if (node.kind == Node::Kind::kLeaf) {
    EXPECT_EQ(node.height, 0);
  }
}

struct RTreeCase {
  size_t n;
  size_t dim;
  size_t leaf_capacity;
  size_t fanout;
  uint64_t seed;
};

class BulkRTreeTest : public ::testing::TestWithParam<RTreeCase> {};

TEST_P(BulkRTreeTest, StructureIsValid) {
  const auto& p = GetParam();
  PointSet ps = RandomPoints(p.n, p.dim, p.seed);
  RTreeConfig config;
  config.leaf_capacity = p.leaf_capacity;
  config.fanout = p.fanout;
  CrackingRTree tree(&ps, config);
  tree.BuildFull();
  const Node& root = tree.root();
  CheckSubtree(tree, root, config);
  // Full build: no unsplit partitions remain.
  IndexStats stats = tree.Stats();
  EXPECT_EQ(stats.partitions, 0u);
  EXPECT_GT(stats.leaves, 0u);
  // Every leaf fits in a page.
  std::vector<const Node*> stack{&root};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n->kind == Node::Kind::kLeaf) {
      EXPECT_LE(n->size(), p.leaf_capacity);
    }
    for (const auto* c : n->children) stack.push_back(c);
  }
}

TEST_P(BulkRTreeTest, RangeSearchMatchesBruteForce) {
  const auto& p = GetParam();
  PointSet ps = RandomPoints(p.n, p.dim, p.seed + 1);
  RTreeConfig config;
  config.leaf_capacity = p.leaf_capacity;
  config.fanout = p.fanout;
  CrackingRTree tree(&ps, config);
  tree.BuildFull();

  util::Rng rng(p.seed + 2);
  for (int trial = 0; trial < 10; ++trial) {
    Rect region = Rect::Empty(p.dim);
    std::vector<float> a(p.dim), b(p.dim);
    for (size_t d = 0; d < p.dim; ++d) {
      a[d] = static_cast<float>(rng.Gaussian());
      b[d] = a[d] + static_cast<float>(rng.Uniform(0.1, 1.5));
    }
    region.ExpandToFit(a);
    region.ExpandToFit(b);

    std::set<uint32_t> expected;
    for (uint32_t i = 0; i < ps.size(); ++i) {
      if (region.Contains(ps.at(i))) expected.insert(i);
    }
    std::set<uint32_t> got;
    tree.Search(region, [&](uint32_t id) { got.insert(id); });
    EXPECT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BulkRTreeTest,
    ::testing::Values(RTreeCase{1, 2, 4, 4, 1}, RTreeCase{10, 2, 4, 4, 2},
                      RTreeCase{100, 2, 8, 4, 3},
                      RTreeCase{500, 3, 16, 8, 4},
                      RTreeCase{2000, 3, 32, 8, 5},
                      RTreeCase{777, 4, 8, 16, 6},
                      RTreeCase{256, 6, 4, 2, 7}),
    [](const ::testing::TestParamInfo<RTreeCase>& info) {
      const auto& p = info.param;
      return "n" + std::to_string(p.n) + "d" + std::to_string(p.dim) + "N" +
             std::to_string(p.leaf_capacity) + "M" +
             std::to_string(p.fanout);
    });

TEST(BulkRTreeEdgeTest, RStarSplitHeuristicIsEquivalentlyCorrect) {
  // Swapping in the R*-style split heuristic changes the tree shape but
  // never the query results (paper: "easily adapted for other variants
  // of R-tree index").
  PointSet ps = RandomPoints(1500, 3, 42);
  RTreeConfig config;
  config.leaf_capacity = 16;
  config.fanout = 8;
  config.split_algorithm = SplitAlgorithm::kRStar;
  CrackingRTree tree(&ps, config);
  tree.BuildFull();
  CheckSubtree(tree, tree.root(), config);
  EXPECT_EQ(tree.Stats().partitions, 0u);

  util::Rng rng(43);
  for (int trial = 0; trial < 8; ++trial) {
    Rect region = Rect::Empty(3);
    std::vector<float> a(3), b(3);
    for (size_t d = 0; d < 3; ++d) {
      a[d] = static_cast<float>(rng.Gaussian());
      b[d] = a[d] + static_cast<float>(rng.Uniform(0.1, 1.5));
    }
    region.ExpandToFit(a);
    region.ExpandToFit(b);
    std::set<uint32_t> expected, got;
    for (uint32_t i = 0; i < ps.size(); ++i) {
      if (region.Contains(ps.at(i))) expected.insert(i);
    }
    tree.Search(region, [&](uint32_t id) { got.insert(id); });
    EXPECT_EQ(got, expected);
  }
}

TEST(BulkRTreeEdgeTest, RStarCrackingAlsoCorrect) {
  PointSet ps = RandomPoints(1500, 3, 44);
  RTreeConfig config;
  config.leaf_capacity = 16;
  config.split_algorithm = SplitAlgorithm::kRStar;
  config.split_choices = 3;  // must silently degrade to greedy
  CrackingRTree tree(&ps, config);
  util::Rng rng(45);
  for (int i = 0; i < 6; ++i) {
    uint32_t anchor = static_cast<uint32_t>(rng.UniformIndex(ps.size()));
    Rect region = Rect::BoundingBoxOfBall(Point::FromSpan(ps.at(anchor)),
                                          rng.Uniform(0.2, 0.8));
    tree.Crack(region);
    std::set<uint32_t> expected, got;
    for (uint32_t j = 0; j < ps.size(); ++j) {
      if (region.Contains(ps.at(j))) expected.insert(j);
    }
    tree.Search(region, [&](uint32_t id) { got.insert(id); });
    EXPECT_EQ(got, expected);
  }
}

TEST(BulkRTreeEdgeTest, EmptyPointSet) {
  PointSet ps({}, 2);
  CrackingRTree tree(&ps, RTreeConfig{});
  tree.BuildFull();
  size_t count = 0;
  Rect all = Rect::Empty(2);
  all.ExpandToFit(std::vector<float>{-10, -10});
  all.ExpandToFit(std::vector<float>{10, 10});
  tree.Search(all, [&](uint32_t) { ++count; });
  EXPECT_EQ(count, 0u);
}

TEST(BulkRTreeEdgeTest, AllIdenticalPoints) {
  std::vector<float> coords(100 * 2, 0.5f);
  PointSet ps(std::move(coords), 2);
  RTreeConfig config;
  config.leaf_capacity = 8;
  config.fanout = 4;
  CrackingRTree tree(&ps, config);
  tree.BuildFull();
  size_t count = 0;
  Rect hit = Rect::Empty(2);
  hit.ExpandToFit(std::vector<float>{0.4f, 0.4f});
  hit.ExpandToFit(std::vector<float>{0.6f, 0.6f});
  tree.Search(hit, [&](uint32_t) { ++count; });
  EXPECT_EQ(count, 100u);
}

TEST(BulkRTreeEdgeTest, ProbeSmallestFindsContainingLeaf) {
  PointSet ps = RandomPoints(500, 3, 9);
  RTreeConfig config;
  config.leaf_capacity = 16;
  config.fanout = 4;
  CrackingRTree tree(&ps, config);
  tree.BuildFull();
  for (uint32_t i = 0; i < 20; ++i) {
    const Node* node = tree.ProbeSmallest(ps.at(i));
    ASSERT_NE(node, nullptr);
    EXPECT_TRUE(node->IsContourElement());
    // The probed element contains the query point (it exists in the set).
    auto ids = tree.ElementIds(*node);
    EXPECT_TRUE(std::find(ids.begin(), ids.end(), i) != ids.end());
  }
}

TEST(BulkRTreeEdgeTest, StatsAreConsistent) {
  PointSet ps = RandomPoints(1000, 3, 10);
  RTreeConfig config;
  config.leaf_capacity = 32;
  config.fanout = 8;
  CrackingRTree tree(&ps, config);
  tree.BuildFull();
  IndexStats s = tree.Stats();
  EXPECT_EQ(s.num_nodes, s.internals + s.leaves + s.partitions);
  EXPECT_GT(s.binary_splits, 0u);
  EXPECT_GT(s.node_bytes, 0u);
  EXPECT_GE(s.base_array_bytes, 3 * 1000 * sizeof(uint32_t));
}

}  // namespace
}  // namespace vkg::index
