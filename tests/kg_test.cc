// Unit tests for the knowledge-graph substrate: dictionaries, triple
// store, graph, attributes, and TSV I/O (including failure injection).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <span>
#include <tuple>

#include <unistd.h>

#include "kg/attributes.h"
#include "kg/dictionary.h"
#include "kg/graph.h"
#include "kg/io.h"
#include "kg/triple_store.h"

namespace vkg::kg {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- Dictionary --------------------------------------------------------------

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary d;
  uint32_t a = d.Intern("alice");
  uint32_t b = d.Intern("bob");
  EXPECT_NE(a, b);
  EXPECT_EQ(d.Intern("alice"), a);
  EXPECT_EQ(d.size(), 2u);
}

TEST(DictionaryTest, LookupAndName) {
  Dictionary d;
  uint32_t a = d.Intern("x");
  EXPECT_EQ(d.Lookup("x"), a);
  EXPECT_EQ(d.Lookup("y"), kInvalidEntity);
  EXPECT_EQ(d.Name(a), "x");
}

TEST(DictionaryTest, RequireReturnsNotFound) {
  Dictionary d;
  auto r = d.Require("ghost");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kNotFound);
  d.Intern("ghost");
  EXPECT_TRUE(d.Require("ghost").ok());
}

TEST(DictionaryTest, ManyNames) {
  Dictionary d;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(d.Intern("name" + std::to_string(i)),
              static_cast<uint32_t>(i));
  }
  EXPECT_EQ(d.Name(577), "name577");
  EXPECT_GT(d.MemoryBytes(), 0u);
}

// --- TripleStore ---------------------------------------------------------------

TEST(TripleStoreTest, AddAndContains) {
  TripleStore s;
  EXPECT_TRUE(s.Add({1, 0, 2}));
  EXPECT_FALSE(s.Add({1, 0, 2}));  // duplicate
  EXPECT_TRUE(s.Add({2, 0, 1}));  // direction matters
  EXPECT_TRUE(s.Contains({1, 0, 2}));
  EXPECT_FALSE(s.Contains({1, 1, 2}));
  EXPECT_EQ(s.size(), 2u);
}

TEST(TripleStoreTest, MaskRandomRemoves) {
  TripleStore s;
  for (uint32_t i = 0; i < 50; ++i) s.Add({i, 0, i + 1});
  util::Rng rng(9);
  auto removed = s.MaskRandom(10, rng);
  EXPECT_EQ(removed.size(), 10u);
  EXPECT_EQ(s.size(), 40u);
  for (const Triple& t : removed) EXPECT_FALSE(s.Contains(t));
}

TEST(TripleStoreTest, MaskMoreThanSize) {
  TripleStore s;
  s.Add({0, 0, 1});
  util::Rng rng(1);
  EXPECT_EQ(s.MaskRandom(5, rng).size(), 1u);
  EXPECT_TRUE(s.empty());
}

// Seeded random Add, duplicate Add and MaskRandom steps: after each one,
// every neighbour list equals the set derived from triples(), and
// Contains agrees with it.
TEST(TripleStoreTest, KnownTracksTriplesUnderMutation) {
  constexpr EntityId kEntities = 9;
  constexpr RelationId kRelations = 3;
  TripleStore s;
  util::Rng rng(31);
  for (int step = 0; step < 300; ++step) {
    const uint64_t op = rng.NextU64() % 10;
    if (op < 6) {
      const Triple t{static_cast<EntityId>(rng.NextU64() % kEntities),
                     static_cast<RelationId>(rng.NextU64() % kRelations),
                     static_cast<EntityId>(rng.NextU64() % kEntities)};
      const bool fresh = !s.Contains(t);
      EXPECT_EQ(s.Add(t), fresh);
    } else if (op < 8 && !s.empty()) {
      EXPECT_FALSE(s.Add(s.at(rng.UniformIndex(s.size()))));
    } else {
      s.MaskRandom(1 + rng.NextU64() % 3, rng);
    }

    std::set<std::tuple<EntityId, RelationId, EntityId>> facts;
    for (const Triple& t : s.triples()) {
      facts.emplace(t.head, t.relation, t.tail);
    }
    ASSERT_EQ(facts.size(), s.size()) << "step " << step;
    for (EntityId e = 0; e < kEntities; ++e) {
      for (RelationId r = 0; r < kRelations; ++r) {
        std::set<EntityId> tails, heads;
        for (EntityId x = 0; x < kEntities; ++x) {
          const bool out = facts.count({e, r, x}) > 0;
          const bool in = facts.count({x, r, e}) > 0;
          if (out) tails.insert(x);
          if (in) heads.insert(x);
          EXPECT_EQ(s.Contains({e, r, x}), out);
        }
        std::span<const EntityId> known_tails =
            s.Known(e, r, Direction::kTail);
        std::span<const EntityId> known_heads =
            s.Known(e, r, Direction::kHead);
        EXPECT_EQ(std::set<EntityId>(known_tails.begin(), known_tails.end()),
                  tails)
            << "step " << step << " e " << e << " r " << r;
        EXPECT_EQ(std::set<EntityId>(known_heads.begin(), known_heads.end()),
                  heads)
            << "step " << step << " e " << e << " r " << r;
        EXPECT_EQ(known_tails.size(), tails.size());
        EXPECT_EQ(known_heads.size(), heads.size());
      }
    }
  }
}

// --- KnowledgeGraph --------------------------------------------------------------

TEST(GraphTest, BuildSmallGraph) {
  KnowledgeGraph g;
  EntityId amy = g.AddEntity("Amy", "person");
  EntityId r1 = g.AddEntity("Restaurant 1", "restaurant");
  RelationId rates = g.AddRelation("rates-high");
  EXPECT_TRUE(g.AddEdge(amy, rates, r1));
  EXPECT_FALSE(g.AddEdge(amy, rates, r1));
  EXPECT_TRUE(g.HasEdge(amy, rates, r1));
  EXPECT_FALSE(g.HasEdge(r1, rates, amy));
  EXPECT_EQ(g.num_entities(), 2u);
  EXPECT_EQ(g.num_relations(), 1u);
  EXPECT_EQ(g.EntityTypeName(amy), "person");
}

TEST(GraphTest, AddEntitiesBulk) {
  KnowledgeGraph g;
  EntityId first = g.AddEntities(10, "user");
  EntityId second = g.AddEntities(5, "movie");
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, 10u);
  EXPECT_EQ(g.num_entities(), 15u);
  EXPECT_EQ(g.EntitiesOfType("user").size(), 10u);
  EXPECT_EQ(g.EntitiesOfType("movie").size(), 5u);
  EXPECT_TRUE(g.EntitiesOfType("ghost").empty());
}

TEST(GraphTest, DegreesAndStats) {
  KnowledgeGraph g;
  EntityId a = g.AddEntity("a");
  EntityId b = g.AddEntity("b");
  EntityId c = g.AddEntity("c");
  RelationId r = g.AddRelation("r");
  g.AddEdge(a, r, b);
  g.AddEdge(a, r, c);
  g.AddEdge(b, r, c);
  auto deg = g.Degrees();
  EXPECT_EQ(deg[a], 2u);
  EXPECT_EQ(deg[b], 2u);
  EXPECT_EQ(deg[c], 2u);
  GraphStats s = g.Stats();
  EXPECT_EQ(s.num_entities, 3u);
  EXPECT_EQ(s.num_edges, 3u);
  EXPECT_EQ(s.max_degree, 2u);
  EXPECT_DOUBLE_EQ(s.avg_out_degree, 1.0);
}

TEST(GraphTest, EmptyGraphStats) {
  KnowledgeGraph g;
  GraphStats s = g.Stats();
  EXPECT_EQ(s.num_entities, 0u);
  EXPECT_EQ(s.max_degree, 0u);
}

// --- AttributeTable -----------------------------------------------------------------

TEST(AttributeTest, SetAndGet) {
  AttributeTable t(5);
  t.Set("age", 2, 33.0);
  EXPECT_DOUBLE_EQ(t.Value("age", 2), 33.0);
  EXPECT_TRUE(AttributeTable::IsMissing(t.Value("age", 3)));
  EXPECT_TRUE(AttributeTable::IsMissing(t.Value("height", 2)));
  EXPECT_TRUE(t.Has("age"));
  EXPECT_FALSE(t.Has("height"));
}

TEST(AttributeTest, GetColumn) {
  AttributeTable t(3);
  t.Set("x", 0, 1.0);
  auto col = t.Get("x");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->size(), 3u);
  EXPECT_FALSE(t.Get("y").ok());
}

TEST(AttributeTest, ResizeKeepsValues) {
  AttributeTable t(2);
  t.Set("v", 1, 7.0);
  t.Resize(10);
  EXPECT_DOUBLE_EQ(t.Value("v", 1), 7.0);
  EXPECT_TRUE(AttributeTable::IsMissing(t.Value("v", 9)));
}

TEST(AttributeTest, NamesListsColumns) {
  AttributeTable t(1);
  t.Set("a", 0, 1);
  t.Set("b", 0, 2);
  auto names = t.Names();
  EXPECT_EQ(names.size(), 2u);
}

// --- IO ------------------------------------------------------------------------------

TEST(IoTest, TriplesRoundTrip) {
  KnowledgeGraph g;
  EntityId a = g.AddEntity("alpha");
  EntityId b = g.AddEntity("beta");
  RelationId r = g.AddRelation("rel");
  g.AddEdge(a, r, b);
  g.AddEdge(b, r, a);

  std::string path = TempPath("vkg_triples.tsv");
  ASSERT_TRUE(SaveTriplesTsv(g, path).ok());

  KnowledgeGraph g2;
  ASSERT_TRUE(LoadTriplesTsv(path, &g2).ok());
  EXPECT_EQ(g2.num_edges(), 2u);
  EntityId a2 = g2.entity_names().Lookup("alpha");
  EntityId b2 = g2.entity_names().Lookup("beta");
  RelationId r2 = g2.relation_names().Lookup("rel");
  EXPECT_TRUE(g2.HasEdge(a2, r2, b2));
  std::remove(path.c_str());
}

TEST(IoTest, MalformedTriplesRejected) {
  std::string path = TempPath("vkg_bad_triples.tsv");
  {
    std::ofstream out(path);
    out << "a\tb\n";  // only 2 fields
  }
  KnowledgeGraph g;
  util::Status s = LoadTriplesTsv(path, &g);
  EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(IoTest, AttributeLoading) {
  KnowledgeGraph g;
  g.AddEntity("e0");
  g.AddEntity("e1");
  std::string path = TempPath("vkg_attr.tsv");
  {
    std::ofstream out(path);
    out << "e0\t10.5\ne1\t20\n";
  }
  ASSERT_TRUE(LoadAttributeTsv(path, "score", &g).ok());
  EXPECT_DOUBLE_EQ(g.attributes().Value("score", 0), 10.5);
  EXPECT_DOUBLE_EQ(g.attributes().Value("score", 1), 20.0);
  std::remove(path.c_str());
}

TEST(IoTest, AttributeUnknownEntity) {
  KnowledgeGraph g;
  g.AddEntity("known");
  std::string path = TempPath("vkg_attr_unknown.tsv");
  {
    std::ofstream out(path);
    out << "mystery\t1\n";
  }
  EXPECT_EQ(LoadAttributeTsv(path, "a", &g).code(),
            util::StatusCode::kNotFound);
  EXPECT_TRUE(LoadAttributeTsv(path, "a", &g, /*skip_unknown=*/true).ok());
  std::remove(path.c_str());
}

TEST(IoTest, AttributeMalformedValue) {
  KnowledgeGraph g;
  g.AddEntity("e");
  std::string path = TempPath("vkg_attr_bad.tsv");
  {
    std::ofstream out(path);
    out << "e\tnot_a_number\n";
  }
  EXPECT_EQ(LoadAttributeTsv(path, "a", &g).code(),
            util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}


// --- OpenKE / FB15k benchmark layout -------------------------------------------

class OpenKeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("vkg_openke_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void WriteFile(const std::string& name, const std::string& content) {
    std::ofstream out(dir_ + "/" + name);
    out << content;
  }
  std::string dir_;
};

TEST_F(OpenKeTest, LoadsStandardLayout) {
  WriteFile("entity2id.txt", "3\n/m/alice\t0\n/m/bob\t1\n/m/carol\t2\n");
  WriteFile("relation2id.txt", "2\n/people/knows\t0\n/people/likes\t1\n");
  // OpenKE triple order is head tail relation.
  WriteFile("train2id.txt", "3\n0 1 0\n1 2 0\n0 2 1\n");
  KnowledgeGraph g;
  util::Status s = LoadOpenKeBenchmark(dir_, &g);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(g.num_entities(), 3u);
  EXPECT_EQ(g.num_relations(), 2u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.entity_names().Name(1), "/m/bob");
  EXPECT_TRUE(g.HasEdge(0, 0, 1));
  EXPECT_TRUE(g.HasEdge(0, 1, 2));
  EXPECT_FALSE(g.HasEdge(1, 1, 2));
}

TEST_F(OpenKeTest, RejectsSparseIds) {
  WriteFile("entity2id.txt", "3\n/m/a\t0\n/m/b\t2\n");  // id 1 missing
  WriteFile("relation2id.txt", "1\n/r\t0\n");
  WriteFile("train2id.txt", "0\n");
  KnowledgeGraph g;
  EXPECT_FALSE(LoadOpenKeBenchmark(dir_, &g).ok());
}

TEST_F(OpenKeTest, RejectsOutOfRangeTriples) {
  WriteFile("entity2id.txt", "2\n/m/a\t0\n/m/b\t1\n");
  WriteFile("relation2id.txt", "1\n/r\t0\n");
  WriteFile("train2id.txt", "1\n0 5 0\n");
  KnowledgeGraph g;
  EXPECT_EQ(LoadOpenKeBenchmark(dir_, &g).code(),
            util::StatusCode::kOutOfRange);
}

TEST_F(OpenKeTest, RejectsNonEmptyGraphAndMissingFiles) {
  KnowledgeGraph g;
  g.AddEntity("existing");
  EXPECT_EQ(LoadOpenKeBenchmark(dir_, &g).code(),
            util::StatusCode::kFailedPrecondition);
  KnowledgeGraph g2;
  EXPECT_EQ(LoadOpenKeBenchmark(dir_ + "/nope", &g2).code(),
            util::StatusCode::kIoError);
}

}  // namespace
}  // namespace vkg::kg
