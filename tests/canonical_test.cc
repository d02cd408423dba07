// CanonicalCode against the exhaustive search it replaced
// (tests/naive_canonical.h), byte for byte: twin pruning may skip only
// subtrees whose leaf codes an explored subtree already holds, and the flat
// kernel must order cells and encode leaves exactly as before. The codes are
// cache keys, IsomorphismSet entries and the words TATTOO's picks are pinned
// by, so any drift is a behaviour change.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "match/canonical.h"
#include "match/pattern_utils.h"
#include "naive_canonical.h"
#include "tattoo/topology_candidates.h"
#include "truss/truss.h"

namespace vqi {
namespace {

// `g` with its vertex ids shuffled.
Graph Relabelled(const Graph& g, Rng& rng) {
  std::vector<VertexId> perm(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) perm[v] = v;
  rng.Shuffle(perm);
  std::vector<Label> labels(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    labels[perm[v]] = g.VertexLabel(v);
  }
  Graph h;
  for (Label label : labels) h.AddVertex(label);
  for (const Edge& e : g.Edges()) h.AddEdge(perm[e.u], perm[e.v], e.label);
  return h;
}

// The library's code equals the oracle's, and two random relabellings of
// `g` get it too.
void ExpectOracleCode(const Graph& g, Rng& rng) {
  const std::string code = CanonicalCode(g);
  EXPECT_EQ(code, naive::CanonicalCode(g)) << g.DebugString();
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(CanonicalCode(Relabelled(g, rng)), code) << g.DebugString();
  }
}

// The disjoint union of `parts`, in order.
Graph Union(const std::vector<Graph>& parts) {
  Graph out;
  for (const Graph& part : parts) {
    const VertexId base = static_cast<VertexId>(out.NumVertices());
    for (VertexId v = 0; v < part.NumVertices(); ++v) {
      out.AddVertex(part.VertexLabel(v));
    }
    for (const Edge& e : part.Edges()) {
      out.AddEdge(base + e.u, base + e.v, e.label);
    }
  }
  return out;
}

// K2,k: two hubs, each joined to the same k vertices.
Graph CompleteBipartiteTwo(size_t k, Label hub_label = 0, Label label = 0) {
  Graph g;
  g.AddVertex(hub_label);
  g.AddVertex(hub_label);
  for (size_t i = 0; i < k; ++i) {
    const VertexId w = g.AddVertex(label);
    g.AddEdge(0, w);
    g.AddEdge(1, w);
  }
  return g;
}

Graph Isolated(size_t n, Label label = 0) {
  Graph g;
  for (size_t i = 0; i < n; ++i) g.AddVertex(label);
  return g;
}

TEST(CanonicalOracleTest, MoleculeSubgraphs) {
  Rng rng(2501);
  size_t checked = 0;
  for (int m = 0; m < 200; ++m) {
    const Graph molecule = gen::Molecule(gen::MoleculeConfig{}, rng);
    for (size_t edges = 3; edges <= 10; ++edges) {
      auto sub = RandomConnectedSubgraph(molecule, edges, rng);
      if (!sub.has_value()) continue;
      ExpectOracleCode(*sub, rng);
      ++checked;
    }
  }
  EXPECT_GE(checked, 1000u);
}

TEST(CanonicalOracleTest, RandomGraphs) {
  Rng rng(2502);
  for (size_t n = 1; n <= 10; ++n) {
    for (double p : {0.2, 0.35, 0.5, 0.8}) {
      for (size_t vertex_labels = 1; vertex_labels <= 3; ++vertex_labels) {
        for (size_t edge_labels = 1; edge_labels <= 2; ++edge_labels) {
          gen::LabelConfig labels;
          labels.num_vertex_labels = vertex_labels;
          labels.num_edge_labels = edge_labels;
          for (int trial = 0; trial < 4; ++trial) {
            ExpectOracleCode(gen::ErdosRenyi(n, p, labels, rng), rng);
          }
        }
      }
    }
  }
}

TEST(CanonicalOracleTest, TattooCandidatesOfABarabasiAlbertNetwork) {
  Rng rng(2503);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 5;
  const Graph network = gen::BarabasiAlbert(3000, 3, labels, rng);
  const TrussSplit split = SplitByTruss(network);
  TopologyCandidateConfig config;
  config.max_edges = 9;  // stars up to 10 vertices: the oracle's range
  const std::vector<Graph> candidates = ExtractTopologyCandidates(
      split.truss_infested, split.truss_oblivious, config, rng);
  size_t checked = 0;
  for (const Graph& c : candidates) {
    if (c.NumVertices() > 10) continue;
    ExpectOracleCode(c, rng);
    ++checked;
  }
  EXPECT_GE(checked, 40u);
}

TEST(CanonicalOracleTest, StarsAndCompleteBipartite) {
  Rng rng(2504);
  for (size_t k = 1; k <= 9; ++k) {
    ExpectOracleCode(builder::Star(k), rng);
    ExpectOracleCode(builder::Star(k, 1, 2), rng);
  }
  for (size_t k = 1; k <= 8; ++k) {
    ExpectOracleCode(CompleteBipartiteTwo(k), rng);
    ExpectOracleCode(CompleteBipartiteTwo(k, 1), rng);
    // A TATTOO petal: K2,k plus the edge between the hubs.
    Graph petal = CompleteBipartiteTwo(k, 1);
    petal.AddEdge(0, 1, 3);
    ExpectOracleCode(petal, rng);
  }
}

// The code of n vertices labelled `label` whose every pair reads
// `pair_value`: every ordering encodes alike.
std::string UniformCode(size_t n, Label label, uint32_t pair_value) {
  std::string code;
  naive::AppendU32(code, static_cast<uint32_t>(n));
  for (size_t i = 0; i < n; ++i) naive::AppendU32(code, label);
  for (size_t i = 0; i < n * (n - 1) / 2; ++i) {
    naive::AppendU32(code, pair_value);
  }
  return code;
}

// The oracle takes n! leaves on these, about 9 s at n = 10, so it checks
// them up to 8 vertices; at 9 and 10 their codes follow from the encoding.
TEST(CanonicalOracleTest, IsolatedVerticesCyclesAndCliques) {
  Rng rng(2505);
  for (size_t n = 1; n <= 8; ++n) {
    ExpectOracleCode(Isolated(n, 2), rng);
    ExpectOracleCode(builder::Clique(n, 2, 4), rng);
  }
  for (size_t n = 1; n <= 10; ++n) {
    EXPECT_EQ(CanonicalCode(Isolated(n, 2)), UniformCode(n, 2, 0));
    EXPECT_EQ(CanonicalCode(builder::Clique(n, 2, 4)), UniformCode(n, 2, 5));
  }
  for (size_t n = 3; n <= 10; ++n) ExpectOracleCode(builder::Cycle(n), rng);
}

TEST(CanonicalOracleTest, DisjointUnions) {
  Rng rng(2506);
  const Graph edge = builder::SingleEdge();
  for (size_t k = 1; k <= 5; ++k) {  // k disjoint edges: no twins across them
    ExpectOracleCode(Union(std::vector<Graph>(k, edge)), rng);
  }
  ExpectOracleCode(Union({builder::Triangle(), builder::Triangle()}), rng);
  ExpectOracleCode(
      Union({builder::Triangle(), builder::Triangle(), builder::Triangle()}),
      rng);
  ExpectOracleCode(Union({builder::Star(3), builder::Star(3)}), rng);
  ExpectOracleCode(Union({builder::Cycle(4), builder::Cycle(4)}), rng);
  ExpectOracleCode(Union({builder::Cycle(5), builder::Cycle(5)}), rng);
  ExpectOracleCode(Union({builder::Star(4), edge, Isolated(3)}), rng);
  ExpectOracleCode(Union({builder::Triangle(), edge, edge, Isolated(3)}),
                   rng);
  ExpectOracleCode(Union({builder::Path(4), builder::Path(4), Isolated(2)}),
                   rng);
  ExpectOracleCode(Union({builder::Clique(4), builder::Clique(4), edge}), rng);
  ExpectOracleCode(Union({CompleteBipartiteTwo(3), CompleteBipartiteTwo(3)}),
                   rng);
}

// Closure graphs label unmatched positions kDummyLabel; as a vertex label it
// is one more label.
TEST(CanonicalOracleTest, DummyVertexLabels) {
  Rng rng(2507);
  ExpectOracleCode(builder::Star(6, kDummyLabel), rng);
  ExpectOracleCode(Isolated(7, kDummyLabel), rng);
  ExpectOracleCode(Union({builder::Star(3, kDummyLabel), builder::Star(3)}),
                   rng);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 2;
  for (int trial = 0; trial < 40; ++trial) {
    Graph g = gen::ErdosRenyi(3 + trial % 8, 0.4, labels, rng);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (rng.Bernoulli(0.4)) g.SetVertexLabel(v, kDummyLabel);
    }
    ExpectOracleCode(g, rng);
  }
}

// An edge labelled kDummyLabel encodes as label + 1, which wraps to the
// value of a missing edge; such a graph's code carries where those edges
// are, so it is not mistaken for the graph without them.
TEST(CanonicalTest, DummyLabelledEdgeIsNotAMissingEdge) {
  const Graph triangle = builder::Triangle(0, kDummyLabel);
  EXPECT_NE(CanonicalCode(triangle), CanonicalCode(Isolated(3)));
  EXPECT_NE(CanonicalCode(builder::Path(4, 0, kDummyLabel)),
            CanonicalCode(builder::Path(4, 0, 1)));
  Graph path = builder::Path(4);
  path.RemoveEdge(1, 2);
  path.AddEdge(1, 2, kDummyLabel);
  Graph gap = builder::Path(4);
  gap.RemoveEdge(1, 2);
  EXPECT_NE(CanonicalCode(path), CanonicalCode(gap));
  EXPECT_FALSE(AreIsomorphic(path, gap));
  // Where the dummy edge sits still matters, and relabelling does not.
  Graph end = builder::Path(4);
  end.RemoveEdge(0, 1);
  end.AddEdge(0, 1, kDummyLabel);
  EXPECT_NE(CanonicalCode(path), CanonicalCode(end));
  Rng rng(2508);
  for (const Graph& g : {triangle, path, end}) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(CanonicalCode(Relabelled(g, rng)), CanonicalCode(g));
    }
  }
}

// A kDummyLabel edge and a missing edge read the same in the adjacency
// matrix, so twins must be found on edge presence: two vertices that differ
// only in whether they reach a third by a dummy edge are not interchangeable,
// and pruning one as the other's twin would make the code depend on which
// of them has the smaller id.
TEST(CanonicalTest, DummyLabelledEdgesDoNotMakeTwins) {
  Rng rng(2509);
  for (int trial = 0; trial < 200; ++trial) {
    Graph g;
    const size_t n = 4 + trial % 5;
    for (size_t v = 0; v < n; ++v) g.AddVertex(0);
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) {
        if (rng.Bernoulli(0.3)) {
          g.AddEdge(u, v, 0);
        } else if (rng.Bernoulli(0.3)) {
          g.AddEdge(u, v, kDummyLabel);
        }
      }
    }
    const std::string code = CanonicalCode(g);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(CanonicalCode(Relabelled(g, rng)), code) << g.DebugString();
    }
  }
}

// Twin classes cost one branch each: a star's leaves and a set of isolated
// vertices take one search path however many there are, where the
// exhaustive search took k! leaves (86 s at 11 leaves).
TEST(CanonicalTest, TwinClassesCostOnePath) {
  EXPECT_TRUE(CanonicalCodeWithin(builder::Star(63), 64).has_value());
  EXPECT_TRUE(CanonicalCodeWithin(Isolated(64), 64).has_value());
  EXPECT_TRUE(CanonicalCodeWithin(CompleteBipartiteTwo(40), 64).has_value());
  EXPECT_EQ(*CanonicalCodeWithin(builder::Star(12), 13),
            CanonicalCode(builder::Star(12)));
}

// The bounded search returns the same code within its budget and gives up
// past it; what twins leave (k disjoint edges reach k! leaves) runs over.
TEST(CanonicalTest, BoundedSearchGivesUpPastItsBudget) {
  const Graph edges = Union(std::vector<Graph>(6, builder::SingleEdge()));
  EXPECT_FALSE(CanonicalCodeWithin(edges, 100).has_value());
  auto code = CanonicalCodeWithin(edges, 1u << 20);
  ASSERT_TRUE(code.has_value());
  EXPECT_EQ(*code, CanonicalCode(edges));
  EXPECT_EQ(*code, naive::CanonicalCode(edges));
  EXPECT_FALSE(CanonicalCodeWithin(Isolated(5), 0).has_value());
  EXPECT_EQ(*CanonicalCodeWithin(Graph(), 0), CanonicalCode(Graph()));
}

}  // namespace
}  // namespace vqi
