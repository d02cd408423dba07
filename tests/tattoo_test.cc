#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_algos.h"
#include "graph/graph_builder.h"
#include "match/canonical.h"
#include "match/vf2.h"
#include "tattoo/distributed.h"
#include "tattoo/tattoo.h"
#include "tattoo/topology_candidates.h"
#include "truss/truss.h"

namespace vqi {
namespace {

Graph TestNetwork(uint64_t seed, size_t n = 400) {
  Rng rng(seed);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 5;
  // Watts-Strogatz gives triangles (G_T) plus rewired sparse parts (G_O).
  return gen::WattsStrogatz(n, 3, 0.15, labels, rng);
}

TEST(TopologyCandidatesTest, ChainsAreChains) {
  Graph g = TestNetwork(1);
  TopologyCandidateConfig config;
  Rng rng(2);
  for (const Graph& chain : ExtractChains(g, config, rng)) {
    EXPECT_TRUE(IsChain(chain)) << chain.DebugString();
    EXPECT_GE(chain.NumEdges(), config.min_edges);
    EXPECT_LE(chain.NumEdges(), config.max_edges);
    EXPECT_TRUE(ContainsSubgraph(g, chain));
  }
}

TEST(TopologyCandidatesTest, StarsAreStars) {
  Rng rng(3);
  gen::LabelConfig labels;
  Graph g = gen::BarabasiAlbert(300, 2, labels, rng);
  TopologyCandidateConfig config;
  auto stars = ExtractStars(g, config, rng);
  EXPECT_FALSE(stars.empty());
  for (const Graph& star : stars) {
    EXPECT_TRUE(IsStar(star)) << star.DebugString();
    EXPECT_TRUE(ContainsSubgraph(g, star));
  }
}

TEST(TopologyCandidatesTest, CyclesAreCycles) {
  Graph g = TestNetwork(4);
  TopologyCandidateConfig config;
  Rng rng(5);
  auto cycles = ExtractCycles(g, config, rng);
  for (const Graph& cycle : cycles) {
    EXPECT_TRUE(IsCycleGraph(cycle)) << cycle.DebugString();
    EXPECT_GE(cycle.NumEdges(), config.min_edges);
    EXPECT_LE(cycle.NumEdges(), config.max_edges);
    EXPECT_TRUE(ContainsSubgraph(g, cycle));
  }
}

TEST(TopologyCandidatesTest, PetalsArePetals) {
  // Dense graph so seed edges have many common neighbors.
  Rng rng(6);
  gen::LabelConfig labels;
  Graph g = gen::ErdosRenyi(60, 0.25, labels, rng);
  TopologyCandidateConfig config;
  auto petals = ExtractPetals(g, config, rng);
  EXPECT_FALSE(petals.empty());
  for (const Graph& petal : petals) {
    EXPECT_EQ(ClassifyTopology(petal), TopologyClass::kPetal)
        << petal.DebugString();
    MatchOptions ignore_labels;
    ignore_labels.match_vertex_labels = false;
    EXPECT_TRUE(ContainsSubgraph(g, petal, ignore_labels));
  }
}

TEST(TopologyCandidatesTest, FlowersContainHubTriangles) {
  Rng rng(7);
  gen::LabelConfig labels;
  Graph g = gen::ErdosRenyi(60, 0.25, labels, rng);
  TopologyCandidateConfig config;
  auto flowers = ExtractFlowers(g, config, rng);
  EXPECT_FALSE(flowers.empty());
  for (const Graph& flower : flowers) {
    EXPECT_EQ(ClassifyTopology(flower), TopologyClass::kFlower)
        << flower.DebugString();
    EXPECT_GT(CountTriangles(flower), 1u);
  }
}

TEST(TopologyCandidatesTest, PooledCandidatesDeduplicated) {
  Graph g = TestNetwork(8);
  TrussSplit split = SplitByTruss(g);
  TopologyCandidateConfig config;
  Rng rng(9);
  auto candidates = ExtractTopologyCandidates(split.truss_infested,
                                              split.truss_oblivious, config, rng);
  EXPECT_FALSE(candidates.empty());
  // Dedup check: no two isomorphic.
  for (size_t i = 0; i < candidates.size(); ++i) {
    for (size_t j = i + 1; j < candidates.size(); ++j) {
      EXPECT_FALSE(candidates[i].IdenticalTo(candidates[j]));
    }
  }
}

TEST(TattooTest, EndToEndProducesValidPatterns) {
  Graph g = TestNetwork(10);
  TattooConfig config;
  config.budget = 8;
  config.samples_per_class = 24;
  config.seed = 11;
  auto result = RunTattoo(g, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->patterns.empty());
  EXPECT_LE(result->patterns.size(), 8u);
  for (const Graph& p : result->patterns) {
    EXPECT_GE(p.NumEdges(), config.min_pattern_edges);
    EXPECT_LE(p.NumEdges(), config.max_pattern_edges);
    EXPECT_TRUE(IsConnected(p));
    EXPECT_TRUE(ContainsSubgraph(g, p)) << p.DebugString();
  }
}

TEST(TattooTest, StatsConsistent) {
  Graph g = TestNetwork(12);
  TattooConfig config;
  config.budget = 5;
  config.seed = 13;
  auto result = RunTattoo(g, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.infested_edges + result->stats.oblivious_edges,
            g.NumEdges());
  size_t selected = 0;
  for (const auto& [cls, count] : result->stats.selected_classes) {
    selected += count;
  }
  EXPECT_EQ(selected, result->patterns.size());
  EXPECT_GE(result->stats.num_candidates, result->patterns.size());
}

TEST(TattooTest, Deterministic) {
  Graph g = TestNetwork(14);
  TattooConfig config;
  config.budget = 6;
  config.seed = 15;
  auto a = RunTattoo(g, config);
  auto b = RunTattoo(g, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->patterns.size(), b->patterns.size());
  for (size_t i = 0; i < a->patterns.size(); ++i) {
    EXPECT_TRUE(a->patterns[i].IdenticalTo(b->patterns[i]));
  }
}

TEST(TattooTest, SelectionSpansMultipleTopologyClasses) {
  // Diversity pressure should yield at least two distinct shapes on a
  // network that offers chains, stars, cycles and petals.
  Graph g = TestNetwork(16, 600);
  TattooConfig config;
  config.budget = 8;
  config.samples_per_class = 32;
  config.seed = 17;
  auto result = RunTattoo(g, config);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->stats.selected_classes.size(), 2u);
}

TEST(DistributedTattooTest, ProducesValidPatterns) {
  Graph g = TestNetwork(30, 800);
  DistributedTattooConfig config;
  config.base.budget = 6;
  config.base.samples_per_class = 16;
  config.base.seed = 31;
  config.chunk_vertices = 200;
  auto result = RunDistributedTattoo(g, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.num_workers, 1u);
  EXPECT_FALSE(result->patterns.empty());
  for (const Graph& p : result->patterns) {
    EXPECT_TRUE(IsConnected(p));
    // Candidates come from chunk subgraphs, so they exist in the network.
    EXPECT_TRUE(ContainsSubgraph(g, p)) << p.DebugString();
  }
  // Perfect-parallel wall clock <= total worker time.
  EXPECT_LE(result->stats.worker_seconds_max,
            result->stats.worker_seconds_total + 1e-12);
}

TEST(DistributedTattooTest, QualityComparableToSingleNode) {
  Graph g = TestNetwork(32, 800);
  TattooConfig single;
  single.budget = 6;
  single.samples_per_class = 16;
  single.seed = 33;
  auto single_result = RunTattoo(g, single);
  ASSERT_TRUE(single_result.ok());

  DistributedTattooConfig dist;
  dist.base = single;
  dist.chunk_vertices = 200;
  auto dist_result = RunDistributedTattoo(g, dist);
  ASSERT_TRUE(dist_result.ok());

  NetworkCoverageOptions cov;
  double single_cov = NetworkSetCoverage(g, single_result->patterns, cov);
  double dist_cov = NetworkSetCoverage(g, dist_result->patterns, cov);
  // Sharded discovery must stay in the same quality ballpark.
  EXPECT_GE(dist_cov, 0.5 * single_cov);
}

TEST(DistributedTattooTest, WorkerCapRespected) {
  Graph g = TestNetwork(34, 600);
  DistributedTattooConfig config;
  config.base.budget = 4;
  config.base.seed = 35;
  config.chunk_vertices = 100;
  config.max_workers = 2;
  auto result = RunDistributedTattoo(g, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.num_workers, 2u);
}

TEST(DistributedTattooTest, RejectsBadInput) {
  DistributedTattooConfig config;
  EXPECT_FALSE(RunDistributedTattoo(Graph(), config).ok());
  Graph g = TestNetwork(36, 100);
  config.base.budget = 0;
  EXPECT_FALSE(RunDistributedTattoo(g, config).ok());
}

// What RunTattoo selects on one seeded network, pinned across builds:
// TattooTest.Deterministic compares two runs of one build, so it cannot see
// a change between builds. Trussness is uniquely defined, so a faster
// decomposition, region split or network index must leave all of it as is.
struct PinnedSelection {
  std::vector<std::string> codes;  // CanonicalCode of each pick, in order
  size_t infested_edges = 0;
  size_t oblivious_edges = 0;
  size_t num_candidates = 0;
  std::map<std::string, size_t> selected_classes;  // by TopologyClassName
};

// A CanonicalCode as its big-endian 32-bit words in decimal: the vertex
// count, the labels in canonical order, then the upper adjacency triangle.
std::string CodeWords(const std::string& code) {
  std::string words;
  for (size_t i = 0; i + 4 <= code.size(); i += 4) {
    uint32_t word = 0;
    for (size_t b = 0; b < 4; ++b) {
      word = word << 8 | static_cast<unsigned char>(code[i + b]);
    }
    if (!words.empty()) words += ' ';
    words += std::to_string(word);
  }
  return words;
}

void ExpectSelection(const Graph& network, uint64_t seed,
                     const PinnedSelection& pin) {
  TattooConfig config;
  config.budget = 8;
  config.max_pattern_edges = 8;
  config.seed = seed;
  auto result = RunTattoo(network, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<std::string> codes;
  for (const Graph& p : result->patterns) {
    codes.push_back(CodeWords(CanonicalCode(p)));
  }
  std::map<std::string, size_t> classes;
  for (const auto& [cls, count] : result->stats.selected_classes) {
    classes[TopologyClassName(cls)] = count;
  }
  EXPECT_EQ(codes, pin.codes);
  EXPECT_EQ(result->stats.infested_edges, pin.infested_edges);
  EXPECT_EQ(result->stats.oblivious_edges, pin.oblivious_edges);
  EXPECT_EQ(result->stats.num_candidates, pin.num_candidates);
  EXPECT_EQ(classes, pin.selected_classes);
}

TEST(TattooTest, PinnedSelectionBarabasiAlbert) {
  Rng rng(2401);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 5;
  Graph g = gen::BarabasiAlbert(2000, 3, labels, rng);
  PinnedSelection pin;
  pin.codes = {
      "5 0 1 1 2 3 1 0 1 0 1 0 0 0 1 0",
      "5 0 0 0 0 4 1 0 1 0 0 1 0 1 1 1",
      "5 1 1 2 2 2 0 0 0 1 0 0 1 0 1 1",
      "6 0 0 0 0 0 1 1 0 0 0 0 1 0 0 0 1 0 0 1 0 1",
      "7 0 0 1 1 1 2 3 0 1 0 0 0 0 0 1 1 0 0 0 0 1 0 0 1 0 0 1 0",
      "7 0 0 0 1 1 3 4 1 1 0 0 0 0 0 1 0 0 0 0 1 0 0 0 1 0 0 1 0",
      "6 0 0 0 0 2 4 1 1 0 0 0 0 1 0 0 0 1 0 0 1 0",
      "5 0 1 1 2 3 1 0 0 1 1 0 0 1 0 0"};
  pin.infested_edges = 666;
  pin.oblivious_edges = 5325;
  pin.num_candidates = 68;
  pin.selected_classes = {{"chain", 6}, {"flower", 1}, {"star", 1}};
  ExpectSelection(g, 2402, pin);
}

TEST(TattooTest, PinnedSelectionWattsStrogatz) {
  PinnedSelection pin;
  pin.codes = {
      "6 0 0 1 2 3 3 0 1 1 0 0 0 0 1 1 0 0 1 0 0 0",
      "4 0 0 1 1 1 0 1 1 1 1",
      "5 0 0 1 2 2 1 0 0 0 1 1 1 0 0 0",
      "5 0 0 0 1 3 0 1 1 0 1 0 1 1 1 0",
      "5 0 0 0 1 2 1 0 0 1 0 0 1 1 1 1",
      "7 0 0 1 1 2 3 4 0 0 0 1 0 0 0 1 0 1 0 0 0 0 1 1 0 0 0 0 1",
      "4 0 0 2 4 1 0 1 1 1 1",
      "5 0 1 1 1 2 0 0 1 0 0 1 0 1 0 1"};
  pin.infested_edges = 3648;
  pin.oblivious_edges = 852;
  pin.num_candidates = 78;
  pin.selected_classes = {
      {"chain", 2}, {"flower", 2}, {"petal", 2}, {"star", 2}};
  ExpectSelection(TestNetwork(2403, 1500), 2404, pin);
}

TEST(TattooTest, RejectsBadInput) {
  TattooConfig config;
  EXPECT_FALSE(RunTattoo(Graph(), config).ok());
  Graph g = TestNetwork(18, 100);
  config.budget = 0;
  EXPECT_FALSE(RunTattoo(g, config).ok());
  config.budget = 5;
  config.min_pattern_edges = 9;
  config.max_pattern_edges = 3;
  EXPECT_FALSE(RunTattoo(g, config).ok());
}

}  // namespace
}  // namespace vqi
