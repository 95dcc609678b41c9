// Tests for the cracking, uneven R-tree (Section IV): contour invariants
// (Lemma 1), stopping conditions, search equivalence after arbitrary
// crack sequences, sparsity vs. the bulk-loaded tree, and the A* top-k
// splits variant (Algorithm 2), plus a structural-digest differential
// test that pins the exact trees cracks and the bulk load produce.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <set>
#include <string>

#include "index/cracking_rtree.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/math_util.h"
#include "util/random.h"

namespace vkg::index {
namespace {

PointSet ClusteredPoints(size_t n, size_t dim, uint64_t seed) {
  // A few Gaussian blobs, like the transformed embedding cloud.
  util::Rng rng(seed);
  const size_t kClusters = 8;
  std::vector<std::vector<float>> centers(kClusters,
                                          std::vector<float>(dim));
  for (auto& c : centers) {
    for (float& v : c) v = static_cast<float>(rng.Gaussian() * 2.0);
  }
  std::vector<float> coords(n * dim);
  for (size_t i = 0; i < n; ++i) {
    const auto& c = centers[rng.UniformIndex(kClusters)];
    for (size_t d = 0; d < dim; ++d) {
      coords[i * dim + d] =
          c[d] + static_cast<float>(rng.Gaussian(0.0, 0.3));
    }
  }
  return PointSet(std::move(coords), dim);
}

Rect RegionAround(const PointSet& ps, uint32_t center, double radius) {
  Point p = Point::FromSpan(ps.at(center));
  return Rect::BoundingBoxOfBall(p, radius);
}

// Collects the contour (all leaf/partition elements) of the whole tree.
std::vector<const Node*> Contour(const CrackingRTree& tree) {
  std::vector<const Node*> contour;
  std::vector<const Node*> stack{&tree.root()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n->kind == Node::Kind::kInternal) {
      for (const auto* c : n->children) stack.push_back(c);
    } else {
      contour.push_back(n);
    }
  }
  return contour;
}

struct CrackCase {
  size_t n;
  size_t dim;
  size_t split_choices;
  uint64_t seed;
};

class CrackingTest : public ::testing::TestWithParam<CrackCase> {};

TEST_P(CrackingTest, ContourPartitionsAllPoints) {
  // Lemma 1: contour elements are mutually exclusive and jointly cover
  // every data point — after any sequence of cracks.
  const auto& p = GetParam();
  PointSet ps = ClusteredPoints(p.n, p.dim, p.seed);
  RTreeConfig config;
  config.leaf_capacity = 16;
  config.fanout = 4;
  config.split_choices = p.split_choices;
  CrackingRTree tree(&ps, config);

  util::Rng rng(p.seed + 1);
  for (int q = 0; q < 8; ++q) {
    uint32_t anchor = static_cast<uint32_t>(rng.UniformIndex(ps.size()));
    tree.Crack(RegionAround(ps, anchor, rng.Uniform(0.2, 1.0)));

    std::set<uint32_t> seen;
    for (const Node* e : Contour(tree)) {
      for (uint32_t id : tree.ElementIds(*e)) {
        EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
      }
    }
    EXPECT_EQ(seen.size(), ps.size());
  }
}

TEST_P(CrackingTest, SearchMatchesBruteForceAfterCracks) {
  const auto& p = GetParam();
  PointSet ps = ClusteredPoints(p.n, p.dim, p.seed + 2);
  RTreeConfig config;
  config.leaf_capacity = 8;
  config.fanout = 4;
  config.split_choices = p.split_choices;
  CrackingRTree tree(&ps, config);

  util::Rng rng(p.seed + 3);
  for (int q = 0; q < 10; ++q) {
    uint32_t anchor = static_cast<uint32_t>(rng.UniformIndex(ps.size()));
    Rect region = RegionAround(ps, anchor, rng.Uniform(0.1, 0.8));
    tree.Crack(region);

    std::set<uint32_t> expected;
    for (uint32_t i = 0; i < ps.size(); ++i) {
      if (region.Contains(ps.at(i))) expected.insert(i);
    }
    std::set<uint32_t> got;
    tree.Search(region, [&](uint32_t id) { got.insert(id); });
    EXPECT_EQ(got, expected);
  }
}

TEST_P(CrackingTest, CrackingIsSparserThanBulk) {
  const auto& p = GetParam();
  PointSet ps = ClusteredPoints(p.n, p.dim, p.seed + 4);
  RTreeConfig config;
  config.leaf_capacity = 16;
  config.fanout = 8;
  config.split_choices = p.split_choices;

  CrackingRTree crack(&ps, config);
  util::Rng rng(p.seed + 5);
  for (int q = 0; q < 6; ++q) {
    uint32_t anchor = static_cast<uint32_t>(rng.UniformIndex(ps.size()));
    crack.Crack(RegionAround(ps, anchor, 0.3));
  }
  CrackingRTree bulk(&ps, config);
  bulk.BuildFull();
  EXPECT_LT(crack.Stats().binary_splits, bulk.Stats().binary_splits);
  EXPECT_LT(crack.Stats().num_nodes, bulk.Stats().num_nodes);
  EXPECT_LT(crack.Stats().node_bytes, bulk.Stats().node_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrackingTest,
    ::testing::Values(CrackCase{2000, 3, 1, 1}, CrackCase{2000, 3, 2, 2},
                      CrackCase{2000, 3, 4, 3}, CrackCase{1500, 2, 1, 4},
                      CrackCase{1500, 6, 3, 5}),
    [](const ::testing::TestParamInfo<CrackCase>& info) {
      const auto& p = info.param;
      return "n" + std::to_string(p.n) + "d" + std::to_string(p.dim) +
             "k" + std::to_string(p.split_choices);
    });

TEST(CrackingStopTest, IrrelevantRegionDoesNotSplit) {
  PointSet ps = ClusteredPoints(1000, 3, 11);
  RTreeConfig config;
  CrackingRTree tree(&ps, config);
  // A region far outside the data MBR: stopping condition |Q ∩ e| = 0.
  Point far = Point::FromSpan(std::vector<float>{100, 100, 100});
  tree.Crack(Rect::BoundingBoxOfBall(far, 0.5));
  EXPECT_EQ(tree.Stats().binary_splits, 0u);
  EXPECT_EQ(tree.Stats().num_nodes, 1u);  // still just the root
}

TEST(CrackingStopTest, FullCoverRegionDoesNotSplit) {
  PointSet ps = ClusteredPoints(1000, 3, 12);
  RTreeConfig config;
  CrackingRTree tree(&ps, config);
  // Q covers everything: ceil(|Q∩e|/N) == ceil(|e|/N) — nothing to gain.
  Rect everything = tree.root().mbr;
  tree.Crack(everything);
  EXPECT_EQ(tree.Stats().binary_splits, 0u);
}

TEST(CrackingStopTest, RepeatedQueryConverges) {
  PointSet ps = ClusteredPoints(3000, 3, 13);
  RTreeConfig config;
  config.leaf_capacity = 16;
  CrackingRTree tree(&ps, config);
  Rect region = RegionAround(ps, 42, 0.4);
  tree.Crack(region);
  size_t splits_after_first = tree.Stats().binary_splits;
  EXPECT_GT(splits_after_first, 0u);
  tree.Crack(region);
  // The same region again: index already fits it; no further splits.
  EXPECT_EQ(tree.Stats().binary_splits, splits_after_first);
}

TEST(CrackingStopTest, QueriedRegionGetsFinerThanRest) {
  PointSet ps = ClusteredPoints(4000, 3, 14);
  RTreeConfig config;
  config.leaf_capacity = 16;
  config.fanout = 8;
  CrackingRTree tree(&ps, config);
  Rect region = RegionAround(ps, 7, 0.3);
  tree.Crack(region);

  // Elements overlapping the region must be (mostly) smaller than the
  // untouched ones.
  size_t in_region_max = 0, out_region_max = 0;
  for (const Node* e : Contour(tree)) {
    if (e->mbr.Intersects(region)) {
      in_region_max = std::max(in_region_max, e->size());
    } else {
      out_region_max = std::max(out_region_max, e->size());
    }
  }
  EXPECT_LT(in_region_max, out_region_max);
}

TEST(TopKSplitsTest, AStarCostNeverWorseThanGreedy) {
  // For the same query, the A* plan's two-component cost must be <= the
  // greedy plan's cost (it explores a superset of plans).
  PointSet ps = ClusteredPoints(2000, 3, 15);
  for (uint64_t seed : {21u, 22u, 23u}) {
    util::Rng rng(seed);
    uint32_t anchor = static_cast<uint32_t>(rng.UniformIndex(ps.size()));
    Rect region = RegionAround(ps, anchor, 0.5);

    auto run = [&](size_t choices) {
      RTreeConfig config;
      config.leaf_capacity = 8;
      config.fanout = 4;
      config.split_choices = choices;
      CrackingRTree tree(&ps, config);
      tree.Crack(region);
      // Cost proxy: minimum leaf pages for the region (Lemma 3) over the
      // resulting contour.
      double cq = 0;
      for (const Node* e : Contour(tree)) {
        size_t count = 0;
        for (uint32_t id : tree.ElementIds(*e)) {
          if (region.Contains(ps.at(id))) ++count;
        }
        cq += static_cast<double>(util::CeilDiv(count, config.leaf_capacity));
      }
      return cq;
    };
    double greedy_cq = run(1);
    double astar_cq = run(4);
    // A* is optimal within each per-level chunking but greedy across
    // levels, so allow a one-page slack on the end-to-end contour cost.
    EXPECT_LE(astar_cq, greedy_cq + 1.0 + 1e-9) << "seed " << seed;
  }
}

TEST(TopKSplitsTest, AStarExpansionCapFallsBackGracefully) {
  PointSet ps = ClusteredPoints(3000, 3, 16);
  RTreeConfig config;
  config.leaf_capacity = 8;
  config.fanout = 8;
  config.split_choices = 4;
  config.max_astar_expansions = 2;  // force the greedy fallback
  CrackingRTree tree(&ps, config);
  Rect region = RegionAround(ps, 99, 0.5);
  tree.Crack(region);
  // Must still produce a valid index.
  std::set<uint32_t> expected, got;
  for (uint32_t i = 0; i < ps.size(); ++i) {
    if (region.Contains(ps.at(i))) expected.insert(i);
  }
  tree.Search(region, [&](uint32_t id) { got.insert(id); });
  EXPECT_EQ(got, expected);
}

TEST(CrackingEdgeTest, TinyDatasetIsSingleLeaf) {
  PointSet ps = ClusteredPoints(10, 2, 17);
  RTreeConfig config;
  config.leaf_capacity = 32;
  CrackingRTree tree(&ps, config);
  EXPECT_EQ(tree.root().height, 0);
  tree.Crack(tree.root().mbr);
  EXPECT_EQ(tree.Stats().num_nodes, 1u);
  size_t count = 0;
  tree.Search(tree.root().mbr, [&](uint32_t) { ++count; });
  EXPECT_EQ(count, 10u);
}

// ---- Structural digest ------------------------------------------------
//
// FNV-1a over every node in pre-order: kind, height, size, MBR float bits
// and the element's ids in every sort order. The expected values below
// were recorded from the reference implementation; any change to how a
// crack or the bulk load splits (or to which partitions it visits, in
// which order) moves them. Points and query regions come from integer
// Rng draws scaled by powers of two, so the inputs — and with them the
// digests — do not depend on the platform's libm.

class StructureDigest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

uint64_t DigestOf(const CrackingRTree& tree) {
  StructureDigest digest;
  const size_t num_orders = tree.orders().num_orders();
  std::vector<const Node*> stack{&tree.root()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    digest.Add(static_cast<uint64_t>(n->kind));
    digest.Add(static_cast<uint64_t>(n->height));
    digest.Add(n->size());
    for (size_t d = 0; d < n->mbr.dim; ++d) {
      digest.Add(std::bit_cast<uint32_t>(n->mbr.lo[d]));
      digest.Add(std::bit_cast<uint32_t>(n->mbr.hi[d]));
    }
    if (n->IsContourElement()) {
      for (size_t s = 0; s < num_orders; ++s) {
        for (uint32_t id : tree.ElementIds(*n, s)) digest.Add(id);
      }
    }
    digest.Add(n->children.size());
    for (auto it = n->children.rbegin(); it != n->children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return digest.value();
}

// Eight clusters on an integer grid, jittered by multiples of 1/32.
PointSet GridClusteredPoints(size_t n, size_t dim, uint64_t seed) {
  util::Rng rng(seed);
  const size_t kClusters = 8;
  std::vector<float> centers(kClusters * dim);
  for (float& v : centers) v = static_cast<float>(rng.NextU64() % 16);
  std::vector<float> coords(n * dim);
  for (size_t i = 0; i < n; ++i) {
    const size_t c = rng.NextU64() % kClusters;
    for (size_t d = 0; d < dim; ++d) {
      const int jitter = static_cast<int>(rng.NextU64() % 129) - 64;
      coords[i * dim + d] = centers[c * dim + d] + jitter / 32.0f;
    }
  }
  return PointSet(std::move(coords), dim);
}

struct DigestCase {
  size_t split_choices;
  uint64_t seed;
  uint64_t bulk;          // BuildFull on a fresh tree
  uint64_t cracked;       // after the 48-crack sequence
  uint64_t cracked_bulk;  // BuildFull over the cracked tree
};

class CrackDigestTest : public ::testing::TestWithParam<DigestCase> {
 protected:
  void TearDown() override { util::FailPointRegistry::Instance().Clear(); }
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST_P(CrackDigestTest, TreeStructureIsPinned) {
  const DigestCase& p = GetParam();
  PointSet ps = GridClusteredPoints(1500, 3, p.seed);
  RTreeConfig config;
  config.leaf_capacity = 8;
  config.fanout = 4;
  config.split_choices = p.split_choices;

  CrackingRTree bulk(&ps, config);
  bulk.BuildFull();
  EXPECT_EQ(Hex(DigestOf(bulk)), Hex(p.bulk)) << "bulk";
  EXPECT_EQ(bulk.Stats().partitions, 0u);

  // Unlimited cracks, a crack budgeted to two splits, and a crack whose
  // second split the cracking.split failpoint abandons; each throttled
  // crack is then retried unthrottled, which must not be coalesced away.
  CrackingRTree tree(&ps, config);
  util::Rng rng(p.seed + 100);
  Rect budgeted, failed;
  for (int q = 0; q < 48; ++q) {
    const uint32_t anchor = static_cast<uint32_t>(rng.NextU64() % ps.size());
    const double radius = static_cast<double>(1 + rng.NextU64() % 12) / 8.0;
    const Rect region = RegionAround(ps, anchor, radius);
    switch (q % 6) {
      case 1: {
        util::QueryControl control;
        util::ResourceBudget budget;
        budget.max_cracked_nodes = 2;
        control.set_budget(budget);
        tree.Crack(region, &control);
        budgeted = region;
        break;
      }
      case 2:
        ASSERT_TRUE(util::FailPointRegistry::Instance()
                        .Configure("cracking.split=1*off,1*fail,off")
                        .ok());
        tree.Crack(region);
        util::FailPointRegistry::Instance().Clear();
        failed = region;
        break;
      case 3:
        tree.Crack(budgeted);
        break;
      case 4:
        tree.Crack(failed);
        break;
      default:
        tree.Crack(region);
        break;
    }
  }
  EXPECT_EQ(Hex(DigestOf(tree)), Hex(p.cracked)) << "cracked";
  EXPECT_GT(tree.Stats().partitions, 0u);

  tree.BuildFull();
  EXPECT_EQ(Hex(DigestOf(tree)), Hex(p.cracked_bulk)) << "cracked + bulk";
  EXPECT_EQ(tree.Stats().partitions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, CrackDigestTest,
    ::testing::Values(
        DigestCase{1, 1, 0x6a64c420506e30af, 0x1b62e5987583f99f,
                   0x96e9693bba4d9ed6},
        DigestCase{1, 2, 0x8c909b295d3a504e, 0x9d841b02c744f0d6,
                   0x2c7f561ee2e0a22b},
        DigestCase{1, 3, 0x9309825965558863, 0x54746974011cc665,
                   0xdfd345d6634c76d2},
        DigestCase{2, 1, 0x6a64c420506e30af, 0x447a6ce852606dfd,
                   0x91b9ff4b46f59029},
        DigestCase{2, 2, 0x8c909b295d3a504e, 0x2846d491eeade751,
                   0x2450119669aa2f8b},
        DigestCase{2, 3, 0x9309825965558863, 0xa1e916bef769db73,
                   0x54dd9115dc53dd94}),
    [](const ::testing::TestParamInfo<DigestCase>& info) {
      return "k" + std::to_string(info.param.split_choices) + "seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace vkg::index
