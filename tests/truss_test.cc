#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_algos.h"
#include "graph/graph_builder.h"
#include "match/candidate_index.h"
#include "naive_truss.h"
#include "truss/truss.h"

namespace vqi {
namespace {

TEST(TrussTest, TreeHasTrussnessTwo) {
  Graph tree = builder::Star(5);
  TrussDecomposition d = DecomposeTruss(tree);
  for (const Edge& e : tree.Edges()) {
    EXPECT_EQ(d.EdgeTrussness(e.u, e.v), 2);
  }
  EXPECT_EQ(d.max_trussness, 2);
}

TEST(TrussTest, TriangleIsThreeTruss) {
  Graph t = builder::Triangle();
  TrussDecomposition d = DecomposeTruss(t);
  for (const Edge& e : t.Edges()) {
    EXPECT_EQ(d.EdgeTrussness(e.u, e.v), 3);
  }
}

TEST(TrussTest, CliqueTrussness) {
  // Every edge of K_n has trussness n.
  for (size_t n : {4u, 5u, 6u}) {
    Graph k = builder::Clique(n);
    TrussDecomposition d = DecomposeTruss(k);
    for (const Edge& e : k.Edges()) {
      EXPECT_EQ(d.EdgeTrussness(e.u, e.v), static_cast<int>(n)) << "K" << n;
    }
    EXPECT_EQ(d.max_trussness, static_cast<int>(n));
  }
}

TEST(TrussTest, MixedGraph) {
  // Triangle with a pendant edge: triangle edges trussness 3, pendant 2.
  Graph g = builder::Triangle();
  VertexId tail = g.AddVertex(0);
  g.AddEdge(0, tail);
  TrussDecomposition d = DecomposeTruss(g);
  EXPECT_EQ(d.EdgeTrussness(0, 1), 3);
  EXPECT_EQ(d.EdgeTrussness(1, 2), 3);
  EXPECT_EQ(d.EdgeTrussness(0, tail), 2);
}

TEST(TrussTest, MissingEdgeZero) {
  Graph g = builder::Path(3);
  TrussDecomposition d = DecomposeTruss(g);
  EXPECT_EQ(d.EdgeTrussness(0, 2), 0);
}

TEST(TrussTest, EmptyGraph) {
  TrussDecomposition d = DecomposeTruss(Graph());
  EXPECT_EQ(d.max_trussness, 2);
  EXPECT_TRUE(d.trussness.empty());
}

TEST(TrussSplitTest, SeparatesDenseAndSparse) {
  // A K5 joined to a long path: K5 edges land in G_T, path edges in G_O.
  Graph g = builder::Clique(5);
  VertexId prev = 0;
  for (int i = 0; i < 6; ++i) {
    VertexId v = g.AddVertex(0);
    g.AddEdge(prev, v);
    prev = v;
  }
  TrussSplit split = SplitByTruss(g);
  EXPECT_EQ(split.truss_infested.NumEdges(), 10u);  // K5
  EXPECT_EQ(split.truss_oblivious.NumEdges(), 6u);  // path
  EXPECT_EQ(ClassifyTopology(split.truss_infested), TopologyClass::kOther);
}

TEST(TrussSplitTest, EdgePartitionComplete) {
  Rng rng(17);
  gen::LabelConfig labels;
  Graph g = gen::WattsStrogatz(120, 3, 0.2, labels, rng);
  TrussSplit split = SplitByTruss(g);
  EXPECT_EQ(split.truss_infested.NumEdges() + split.truss_oblivious.NumEdges(),
            g.NumEdges());
}

TEST(TrussSplitTest, ThresholdMonotone) {
  Rng rng(18);
  gen::LabelConfig labels;
  Graph g = gen::ErdosRenyi(80, 0.15, labels, rng);
  size_t prev_infested = g.NumEdges() + 1;
  for (int k = 2; k <= 5; ++k) {
    TrussSplit split = SplitByTruss(g, k);
    EXPECT_LE(split.truss_infested.NumEdges(), prev_infested);
    prev_infested = split.truss_infested.NumEdges();
  }
}

TEST(TrussTest, PeelingMatchesDefinitionOnRandomGraph) {
  // Verify the k-truss property: within the subgraph of edges with
  // trussness >= k, every edge participates in >= k-2 triangles.
  Rng rng(19);
  gen::LabelConfig labels;
  Graph g = gen::ErdosRenyi(40, 0.25, labels, rng);
  TrussDecomposition d = DecomposeTruss(g);
  for (int k = 3; k <= d.max_trussness; ++k) {
    std::vector<Edge> kept;
    for (const Edge& e : g.Edges()) {
      if (d.EdgeTrussness(e.u, e.v) >= k) kept.push_back(e);
    }
    Graph truss = SubgraphFromEdges(g, kept);
    for (const Edge& e : truss.Edges()) {
      // Count common neighbors within the truss.
      int common = 0;
      for (const Neighbor& nu : truss.Neighbors(e.u)) {
        if (truss.HasEdge(nu.vertex, e.v)) ++common;
      }
      EXPECT_GE(common, k - 2) << "k=" << k;
    }
  }
}

// --- The array kernel against the peeling oracle (tests/naive_truss.h) ----

// Every edge's trussness, read from either endpoint, and max_trussness equal
// the oracle's; a missing edge reads 0.
void ExpectMatchesOracle(const Graph& g, const std::string& what) {
  SCOPED_TRACE(what);
  const TrussDecomposition d = DecomposeTruss(g);
  const naive::Trussness oracle = naive::DecomposeTruss(g);
  EXPECT_EQ(d.max_trussness, oracle.max_trussness);
  EXPECT_EQ(d.trussness.size(), 2 * g.NumEdges());
  EXPECT_TRUE(d.Describes(g.NumVertices(), g.NumEdges()));
  size_t mismatches = 0;
  for (const Edge& e : g.Edges()) {
    const int want = oracle.EdgeTrussness(e.u, e.v);
    if (d.EdgeTrussness(e.u, e.v) != want ||
        d.EdgeTrussness(e.v, e.u) != want) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v = u; v < g.NumVertices() && v < u + 8; ++v) {
      if (!g.HasEdge(u, v)) {
        EXPECT_EQ(d.EdgeTrussness(u, v), 0);
      }
    }
  }
  EXPECT_EQ(d.EdgeTrussness(static_cast<VertexId>(g.NumVertices()), 0), 0);
}

// The graph shapes the oracle runs on, each seeded: ER at several densities,
// BA with m = 3 and m = 8, WS, forest fire, cliques, molecules and the
// degenerate cases.
std::vector<std::pair<std::string, Graph>> OracleGraphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  gen::LabelConfig labels;
  labels.num_vertex_labels = 5;
  uint64_t seed = 2400;
  for (double p : {0.02, 0.05, 0.1, 0.2, 0.4, 0.7}) {
    Rng rng(++seed);
    graphs.emplace_back("ER(60, " + std::to_string(p) + ")",
                        gen::ErdosRenyi(60, p, labels, rng));
  }
  for (size_t n : {50u, 500u, 2000u}) {
    Rng rng(++seed);
    graphs.emplace_back("BA(" + std::to_string(n) + ", 3)",
                        gen::BarabasiAlbert(n, 3, labels, rng));
  }
  {
    Rng rng(++seed);
    graphs.emplace_back("BA(1000, 8)",
                        gen::BarabasiAlbert(1000, 8, labels, rng));
  }
  for (double beta : {0.0, 0.1, 0.3}) {
    Rng rng(++seed);
    graphs.emplace_back("WS(300, 3, " + std::to_string(beta) + ")",
                        gen::WattsStrogatz(300, 3, beta, labels, rng));
  }
  {
    Rng rng(++seed);
    graphs.emplace_back("ForestFire(400)",
                        gen::ForestFire(400, 0.35, labels, rng));
  }
  for (size_t n = 2; n <= 8; ++n) {
    graphs.emplace_back("K" + std::to_string(n), builder::Clique(n));
  }
  graphs.emplace_back("star", builder::Star(9));
  graphs.emplace_back("path", builder::Path(12));
  graphs.emplace_back("empty", Graph());
  Graph edgeless;
  for (int i = 0; i < 5; ++i) edgeless.AddVertex(static_cast<Label>(i));
  graphs.emplace_back("edgeless", edgeless);
  // A K5 and a triangle with isolated vertices before, between and after.
  Graph isolated;
  isolated.AddVertex(0);
  for (int i = 0; i < 5; ++i) isolated.AddVertex(1);
  isolated.AddVertex(2);
  for (VertexId a = 1; a <= 5; ++a) {
    for (VertexId b = a + 1; b <= 5; ++b) isolated.AddEdge(a, b);
  }
  for (int i = 0; i < 3; ++i) isolated.AddVertex(3);
  isolated.AddEdge(7, 8);
  isolated.AddEdge(8, 9);
  isolated.AddEdge(7, 9);
  isolated.AddEdge(0, 9);
  isolated.AddVertex(4);
  graphs.emplace_back("isolated vertices", isolated);
  return graphs;
}

TEST(TrussOracleTest, MatchesPeelingOracle) {
  for (const auto& [name, g] : OracleGraphs()) ExpectMatchesOracle(g, name);
}

TEST(TrussOracleTest, MatchesPeelingOracleOnPerfbenchShapedNetwork) {
  // perfbench's networks: 6,250 vertices, m = 3, five vertex labels.
  Rng rng(2424);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 5;
  ExpectMatchesOracle(gen::BarabasiAlbert(6250, 3, labels, rng),
                      "BA(6250, 3)");
}

TEST(TrussOracleTest, MatchesPeelingOracleOnMolecules) {
  GraphDatabase db = gen::MoleculeDatabase(200, gen::MoleculeConfig{}, 2425);
  for (const Graph& g : db.graphs()) {
    ExpectMatchesOracle(g, "molecule " + std::to_string(g.id()));
  }
}

TEST(TrussOracleTest, ShellsFromADecompositionEqualTheIndexOwn) {
  for (const auto& [name, g] : OracleGraphs()) {
    SCOPED_TRACE(name);
    const MatchIndex own(g);
    const MatchIndex handed(g, DecomposeTruss(g));
    ASSERT_EQ(handed.candidates.has_truss(), own.candidates.has_truss());
    EXPECT_EQ(own.candidates.has_truss(), g.NumEdges() > 0);
    if (!own.candidates.has_truss()) continue;
    const naive::Trussness oracle = naive::DecomposeTruss(g);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      int shell = 0;  // max over incident edges, 0 when isolated
      for (const Neighbor& nb : g.Neighbors(v)) {
        shell = std::max(shell, oracle.EdgeTrussness(v, nb.vertex));
      }
      EXPECT_EQ(handed.candidates.Shell(v), own.candidates.Shell(v));
      EXPECT_EQ(own.candidates.Shell(v), shell) << "vertex " << v;
    }
  }
}

TEST(TrussOracleTest, SplitByADecompositionEqualsTheSplit) {
  for (const auto& [name, g] : OracleGraphs()) {
    const TrussDecomposition truss = DecomposeTruss(g);
    const naive::Trussness oracle = naive::DecomposeTruss(g);
    for (int k = 2; k <= 5; ++k) {
      SCOPED_TRACE(name + ", k=" + std::to_string(k));
      const TrussSplit handed = SplitByTruss(g, truss, k);
      const TrussSplit own = SplitByTruss(g, k);
      // The regions the oracle's trussness gives, built as SplitByTruss
      // always has: g.Edges() order, first-seen vertex numbering.
      std::vector<Edge> infested, oblivious;
      for (const Edge& e : g.Edges()) {
        (oracle.EdgeTrussness(e.u, e.v) >= k ? infested : oblivious)
            .push_back(e);
      }
      const Graph want_infested = SubgraphFromEdges(g, infested);
      const Graph want_oblivious = SubgraphFromEdges(g, oblivious);
      EXPECT_TRUE(handed.truss_infested.IdenticalTo(want_infested));
      EXPECT_TRUE(handed.truss_oblivious.IdenticalTo(want_oblivious));
      EXPECT_TRUE(own.truss_infested.IdenticalTo(want_infested));
      EXPECT_TRUE(own.truss_oblivious.IdenticalTo(want_oblivious));
    }
  }
}

}  // namespace
}  // namespace vqi
