#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_algos.h"
#include "graph/graph_builder.h"
#include "graph/graph_database.h"
#include "graph/graph_io.h"

namespace vqi {
namespace {

TEST(GraphTest, AddVertexAndEdge) {
  Graph g;
  VertexId a = g.AddVertex(1);
  VertexId b = g.AddVertex(2);
  EXPECT_TRUE(g.AddEdge(a, b, 7));
  EXPECT_EQ(g.NumVertices(), 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.HasEdge(a, b));
  EXPECT_TRUE(g.HasEdge(b, a));
  EXPECT_EQ(g.EdgeLabel(a, b).value(), 7u);
  EXPECT_EQ(g.VertexLabel(a), 1u);
}

TEST(GraphTest, NoSelfLoopsOrParallelEdges) {
  Graph g;
  VertexId a = g.AddVertex(0);
  VertexId b = g.AddVertex(0);
  EXPECT_FALSE(g.AddEdge(a, a));
  EXPECT_TRUE(g.AddEdge(a, b));
  EXPECT_FALSE(g.AddEdge(a, b));
  EXPECT_FALSE(g.AddEdge(b, a));
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(GraphTest, RemoveEdge) {
  Graph g = builder::Triangle();
  EXPECT_TRUE(g.RemoveEdge(0, 1));
  EXPECT_FALSE(g.RemoveEdge(0, 1));
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
}

TEST(GraphTest, AdjacencySorted) {
  Graph g;
  for (int i = 0; i < 5; ++i) g.AddVertex(0);
  g.AddEdge(0, 3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 4);
  g.AddEdge(0, 2);
  const auto& adj = g.Neighbors(0);
  for (size_t i = 1; i < adj.size(); ++i) {
    EXPECT_LT(adj[i - 1].vertex, adj[i].vertex);
  }
}

TEST(GraphTest, EdgesNormalized) {
  Graph g = builder::Cycle(4);
  auto edges = g.Edges();
  EXPECT_EQ(edges.size(), 4u);
  for (const Edge& e : edges) EXPECT_LT(e.u, e.v);
}

TEST(GraphTest, DensityAndAverageDegree) {
  Graph k4 = builder::Clique(4);
  EXPECT_DOUBLE_EQ(k4.Density(), 1.0);
  EXPECT_DOUBLE_EQ(k4.AverageDegree(), 3.0);
  Graph empty;
  EXPECT_DOUBLE_EQ(empty.Density(), 0.0);
  EXPECT_DOUBLE_EQ(empty.AverageDegree(), 0.0);
}

TEST(GraphTest, IdenticalTo) {
  Graph a = builder::Path(3);
  Graph b = builder::Path(3);
  EXPECT_TRUE(a.IdenticalTo(b));
  b.SetVertexLabel(0, 9);
  EXPECT_FALSE(a.IdenticalTo(b));
}

TEST(BuilderTest, Shapes) {
  EXPECT_EQ(builder::Path(5).NumEdges(), 4u);
  EXPECT_EQ(builder::Cycle(5).NumEdges(), 5u);
  EXPECT_EQ(builder::Star(6).NumVertices(), 7u);
  EXPECT_EQ(builder::Star(6).NumEdges(), 6u);
  EXPECT_EQ(builder::Clique(5).NumEdges(), 10u);
  EXPECT_EQ(builder::Triangle().NumEdges(), 3u);
}

TEST(BuilderTest, InducedSubgraph) {
  Graph k4 = builder::Clique(4);
  Graph sub = InducedSubgraph(k4, {0, 1, 2});
  EXPECT_EQ(sub.NumVertices(), 3u);
  EXPECT_EQ(sub.NumEdges(), 3u);
}

TEST(BuilderTest, SubgraphFromEdges) {
  Graph p5 = builder::Path(5);
  Graph sub = SubgraphFromEdges(p5, {{1, 2, 0}, {2, 3, 0}});
  EXPECT_EQ(sub.NumVertices(), 3u);
  EXPECT_EQ(sub.NumEdges(), 2u);
  EXPECT_TRUE(IsChain(sub));
}

// Vertices are numbered in order of first appearance, each edge's v before
// its u: TATTOO's regions and candidates, and so its pinned picks, depend on
// this numbering, whatever order a compiler evaluates arguments in.
TEST(BuilderTest, SubgraphFromEdgesNumbersVBeforeU) {
  Graph g;
  for (Label label : {10, 11, 12, 13, 14}) g.AddVertex(label);
  Graph sub = SubgraphFromEdges(g, {{0, 3, 7}, {1, 3, 8}, {2, 4, 9}});
  ASSERT_EQ(sub.NumVertices(), 5u);
  // 3 then 0, then 1 (3 is known), then 4 then 2.
  EXPECT_EQ(sub.VertexLabel(0), 13u);
  EXPECT_EQ(sub.VertexLabel(1), 10u);
  EXPECT_EQ(sub.VertexLabel(2), 11u);
  EXPECT_EQ(sub.VertexLabel(3), 14u);
  EXPECT_EQ(sub.VertexLabel(4), 12u);
  EXPECT_EQ(sub.EdgeLabel(0, 1), std::optional<Label>(7));
  EXPECT_EQ(sub.EdgeLabel(0, 2), std::optional<Label>(8));
  EXPECT_EQ(sub.EdgeLabel(3, 4), std::optional<Label>(9));
}

TEST(AlgosTest, ConnectedComponents) {
  Graph g;
  for (int i = 0; i < 6; ++i) g.AddVertex(0);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  int count = 0;
  auto comp = ConnectedComponents(g, &count);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[4]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[5], comp[0]);
}

TEST(AlgosTest, IsConnected) {
  EXPECT_TRUE(IsConnected(builder::Cycle(5)));
  Graph g;
  g.AddVertex(0);
  g.AddVertex(0);
  EXPECT_FALSE(IsConnected(g));
  EXPECT_TRUE(IsConnected(Graph()));
}

TEST(AlgosTest, ShortestPathAndDiameter) {
  Graph c6 = builder::Cycle(6);
  EXPECT_EQ(ShortestPathLength(c6, 0, 3), 3);
  EXPECT_EQ(ShortestPathLength(c6, 0, 5), 1);
  EXPECT_EQ(Diameter(c6), 3);
  Graph two;
  two.AddVertex(0);
  two.AddVertex(0);
  EXPECT_EQ(ShortestPathLength(two, 0, 1), -1);
}

TEST(AlgosTest, TreePredicates) {
  EXPECT_TRUE(IsTree(builder::Path(4)));
  EXPECT_TRUE(IsChain(builder::Path(4)));
  EXPECT_FALSE(IsChain(builder::Star(3)));
  EXPECT_TRUE(IsStar(builder::Star(3)));
  EXPECT_FALSE(IsStar(builder::Path(4)));
  EXPECT_TRUE(IsCycleGraph(builder::Cycle(7)));
  EXPECT_FALSE(IsCycleGraph(builder::Path(7)));
  EXPECT_FALSE(IsTree(builder::Cycle(4)));
}

TEST(AlgosTest, ClassifyTopology) {
  EXPECT_EQ(ClassifyTopology(builder::Path(5)), TopologyClass::kChain);
  EXPECT_EQ(ClassifyTopology(builder::Star(4)), TopologyClass::kStar);
  EXPECT_EQ(ClassifyTopology(builder::Cycle(5)), TopologyClass::kCycle);

  // Tree that is neither chain nor star: spider with a long leg.
  Graph t = builder::Star(3);
  VertexId extra = t.AddVertex(0);
  t.AddEdge(1, extra);
  EXPECT_EQ(ClassifyTopology(t), TopologyClass::kTree);

  // Petal: two vertices joined by three parallel 2-paths (theta graph).
  Graph theta;
  VertexId a = theta.AddVertex(0), b = theta.AddVertex(0);
  for (int i = 0; i < 3; ++i) {
    VertexId mid = theta.AddVertex(0);
    theta.AddEdge(a, mid);
    theta.AddEdge(mid, b);
  }
  EXPECT_EQ(ClassifyTopology(theta), TopologyClass::kPetal);

  // Flower: two triangles sharing one hub.
  Graph flower;
  VertexId hub = flower.AddVertex(0);
  for (int petal = 0; petal < 2; ++petal) {
    VertexId x = flower.AddVertex(0), y = flower.AddVertex(0);
    flower.AddEdge(hub, x);
    flower.AddEdge(x, y);
    flower.AddEdge(y, hub);
  }
  EXPECT_EQ(ClassifyTopology(flower), TopologyClass::kFlower);

  EXPECT_EQ(ClassifyTopology(builder::Clique(4)), TopologyClass::kOther);
}

TEST(AlgosTest, CountTriangles) {
  EXPECT_EQ(CountTriangles(builder::Triangle()), 1u);
  EXPECT_EQ(CountTriangles(builder::Clique(4)), 4u);
  EXPECT_EQ(CountTriangles(builder::Clique(5)), 10u);
  EXPECT_EQ(CountTriangles(builder::Cycle(5)), 0u);
}

TEST(AlgosTest, DegreeSequence) {
  auto seq = DegreeSequence(builder::Star(3));
  ASSERT_EQ(seq.size(), 4u);
  EXPECT_EQ(seq[0], 3u);
  EXPECT_EQ(seq[1], 1u);
}

TEST(DatabaseTest, AddGetRemove) {
  GraphDatabase db;
  GraphId id1 = db.Add(builder::Path(3));
  GraphId id2 = db.Add(builder::Triangle());
  EXPECT_EQ(db.size(), 2u);
  EXPECT_NE(id1, id2);
  EXPECT_EQ(db.Get(id2).NumEdges(), 3u);
  EXPECT_TRUE(db.Remove(id1));
  EXPECT_FALSE(db.Remove(id1));
  EXPECT_EQ(db.size(), 1u);
  EXPECT_FALSE(db.Contains(id1));
  EXPECT_TRUE(db.Contains(id2));
}

TEST(DatabaseTest, ExplicitIdsPreserved) {
  GraphDatabase db;
  Graph g = builder::Path(2);
  g.set_id(100);
  EXPECT_EQ(db.Add(std::move(g)), 100);
  // Next auto id goes past explicit ones.
  GraphId next = db.Add(builder::Path(2));
  EXPECT_GT(next, 100);
}

// Each copy edits id x (remove + re-add) to different content: the versions
// must differ, or a cache keyed by (id, version) would serve one copy's data
// for the other.
TEST(GraphDatabaseTest, CopiesEditingTheSameIdGetDistinctVersions) {
  GraphDatabase a;
  const GraphId x = a.Add(builder::Path(3));
  GraphDatabase b = a;
  EXPECT_EQ(a.ContentVersion(x), b.ContentVersion(x));
  ASSERT_TRUE(a.Remove(x));
  ASSERT_TRUE(b.Remove(x));
  Graph triangle = builder::Triangle();
  triangle.set_id(x);
  a.Add(std::move(triangle));
  Graph path = builder::Path(5);
  path.set_id(x);
  b.Add(std::move(path));
  EXPECT_NE(a.ContentVersion(x), b.ContentVersion(x));
  EXPECT_NE(a.ContentVersion(x), 0u);
  EXPECT_NE(b.ContentVersion(x), 0u);
}

// Version() names the whole collection's content: every edit moves it, a
// failed Remove (no edit) does not, and copies that diverge never share one.
TEST(GraphDatabaseTest, VersionMovesOnEveryEditAndNeverRepeatsAcrossCopies) {
  GraphDatabase a;
  EXPECT_EQ(a.Version(), 0u);

  const GraphId x = a.Add(builder::Path(3));
  const uint64_t after_add = a.Version();
  EXPECT_NE(after_add, 0u);
  EXPECT_EQ(after_add, a.ContentVersion(x));
  const GraphId y = a.Add(builder::Triangle());
  const uint64_t after_second_add = a.Version();
  EXPECT_NE(after_second_add, after_add);
  ASSERT_TRUE(a.Remove(x));
  const uint64_t after_remove = a.Version();
  EXPECT_NE(after_remove, after_second_add);
  EXPECT_NE(after_remove, after_add);
  EXPECT_FALSE(a.Remove(x));
  EXPECT_FALSE(a.Remove(12345));
  EXPECT_EQ(a.Version(), after_remove);

  GraphDatabase b = a;
  EXPECT_EQ(b.Version(), a.Version());
  ASSERT_TRUE(a.Remove(y));
  ASSERT_TRUE(b.Remove(y));
  EXPECT_NE(a.Version(), b.Version());
  a.Add(builder::Path(4));
  b.Add(builder::Path(4));
  EXPECT_NE(a.Version(), b.Version());
  EXPECT_NE(a.Version(), after_remove);
  EXPECT_NE(b.Version(), after_remove);
}

TEST(DatabaseTest, LabelStats) {
  GraphDatabase db;
  db.Add(builder::SingleEdge(1, 2, 9));
  db.Add(builder::SingleEdge(1, 1, 9));
  LabelStats stats = db.ComputeLabelStats();
  EXPECT_EQ(stats.vertex_label_counts[1], 3u);
  EXPECT_EQ(stats.vertex_label_counts[2], 1u);
  EXPECT_EQ(stats.edge_label_counts[9], 2u);
  EXPECT_EQ(db.TotalVertices(), 4u);
  EXPECT_EQ(db.TotalEdges(), 2u);
}

TEST(IoTest, GraphRoundTrip) {
  Graph g = builder::FromLists({1, 2, 3}, {{0, 1, 5}, {1, 2, 6}});
  g.set_id(7);
  std::string text = io::WriteGraph(g);
  auto parsed = io::ParseGraph(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->IdenticalTo(g));
  EXPECT_EQ(parsed->id(), 7);
}

TEST(IoTest, DatabaseRoundTrip) {
  GraphDatabase db;
  db.Add(builder::Path(4));
  db.Add(builder::Triangle());
  std::string text = io::WriteDatabase(db);
  std::istringstream in(text);
  auto parsed = io::ParseDatabase(in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 2u);
}

TEST(IoTest, ParseErrors) {
  EXPECT_FALSE(io::ParseGraph("v 0 1\n").ok());          // v before t
  EXPECT_FALSE(io::ParseGraph("t # 0\nv 1 0\n").ok());   // non-dense vertex
  EXPECT_FALSE(io::ParseGraph("t # 0\nv 0 0\ne 0 5 0\n").ok());  // bad edge
  EXPECT_FALSE(io::ParseGraph("t # 0\nx y z\n").ok());   // unknown directive
  EXPECT_FALSE(io::ParseGraph("t # 0\nv 0 0\nv 1 0\ne 0 1 0\ne 1 0 0\n").ok());
}

TEST(IoTest, CommentsAndBlankLinesIgnored) {
  auto parsed = io::ParseGraph("# header\n\nt # 3\nv 0 1\n\n# mid\nv 1 1\ne 0 1 0\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->NumEdges(), 1u);
}

TEST(IoTest, FileRoundTrip) {
  GraphDatabase db;
  db.Add(builder::Cycle(5));
  std::string path = testing::TempDir() + "/vqi_io_test.lg";
  ASSERT_TRUE(io::SaveDatabase(db, path).ok());
  auto loaded = io::LoadDatabase(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->graphs()[0].NumEdges(), 5u);
}

TEST(IoTest, MissingFileFails) {
  EXPECT_EQ(io::LoadDatabase("/nonexistent/nope.lg").status().code(),
            StatusCode::kIoError);
}

TEST(LabelDictionaryTest, InternAndName) {
  LabelDictionary dict;
  Label c = dict.Intern("C");
  Label n = dict.Intern("N");
  EXPECT_NE(c, n);
  EXPECT_EQ(dict.Intern("C"), c);
  EXPECT_EQ(dict.Name(c), "C");
  EXPECT_EQ(dict.Name(999), "L999");
  dict.SetName(5, "O");
  EXPECT_EQ(dict.Name(5), "O");
}

TEST(LabelDictionaryTest, SetNameReassignmentDropsStaleReverseMapping) {
  LabelDictionary dict;
  Label c = dict.Intern("C");
  dict.SetName(7, "C");  // "C" now belongs to label 7
  EXPECT_EQ(dict.Intern("C"), 7u);
  EXPECT_EQ(dict.Name(7), "C");
  // The old owner must not keep reporting a name that resolves elsewhere.
  EXPECT_EQ(dict.Name(c), "L" + std::to_string(c));
}

TEST(GeneratorsTest, ErdosRenyiEdgeCountNearExpectation) {
  Rng rng(11);
  gen::LabelConfig labels;
  Graph g = gen::ErdosRenyi(200, 0.05, labels, rng);
  double expected = 0.05 * 200 * 199 / 2;
  EXPECT_NEAR(static_cast<double>(g.NumEdges()), expected, expected * 0.3);
}

TEST(GeneratorsTest, BarabasiAlbertDegreesSkewed) {
  Rng rng(12);
  gen::LabelConfig labels;
  Graph g = gen::BarabasiAlbert(500, 2, labels, rng);
  EXPECT_TRUE(IsConnected(g));
  auto seq = DegreeSequence(g);
  // Hub much larger than median degree.
  EXPECT_GT(seq[0], 4 * seq[seq.size() / 2]);
}

TEST(GeneratorsTest, WattsStrogatzHighClustering) {
  Rng rng(13);
  gen::LabelConfig labels;
  Graph g = gen::WattsStrogatz(300, 3, 0.1, labels, rng);
  // A beta=0 lattice with k=3 has many triangles; with mild rewiring the
  // count stays high.
  EXPECT_GT(CountTriangles(g), 200u);
}

TEST(GeneratorsTest, ForestFireConnected) {
  Rng rng(14);
  gen::LabelConfig labels;
  Graph g = gen::ForestFire(200, 0.3, labels, rng);
  EXPECT_EQ(g.NumVertices(), 200u);
  EXPECT_TRUE(IsConnected(g));
  EXPECT_GE(g.NumEdges(), 199u);
}

TEST(GeneratorsTest, MoleculeConnectedAndLabeled) {
  gen::MoleculeConfig config;
  Rng rng(15);
  for (int i = 0; i < 20; ++i) {
    Graph m = gen::Molecule(config, rng);
    EXPECT_TRUE(IsConnected(m)) << m.DebugString();
    EXPECT_GE(m.NumVertices(), 2u);
    for (VertexId v = 0; v < m.NumVertices(); ++v) {
      EXPECT_LT(m.VertexLabel(v), config.num_atom_labels);
    }
  }
}

TEST(GeneratorsTest, MoleculeDatabaseDeterministic) {
  gen::MoleculeConfig config;
  GraphDatabase a = gen::MoleculeDatabase(10, config, 77);
  GraphDatabase b = gen::MoleculeDatabase(10, config, 77);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a.graphs()[i].IdenticalTo(b.graphs()[i]));
  }
  GraphDatabase c = gen::MoleculeDatabase(10, config, 78);
  bool all_same = true;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a.graphs()[i].IdenticalTo(c.graphs()[i])) all_same = false;
  }
  EXPECT_FALSE(all_same);
}

TEST(GeneratorsTest, ZipfLabelsSkewed) {
  Rng rng(16);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 6;
  Graph g = gen::ErdosRenyi(2000, 0.002, labels, rng);
  size_t label0 = 0, label5 = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.VertexLabel(v) == 0) ++label0;
    if (g.VertexLabel(v) == 5) ++label5;
  }
  EXPECT_GT(label0, 2 * label5);
}

}  // namespace
}  // namespace vqi
