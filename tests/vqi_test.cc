#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "metrics/coverage.h"
#include "vqi/builder.h"
#include "vqi/interface.h"
#include "vqi/maintainer.h"
#include "vqi/panels.h"
#include "vqi/serialize.h"

namespace vqi {
namespace {

TEST(AttributePanelTest, SortedByFrequency) {
  LabelStats stats;
  stats.vertex_label_counts = {{0, 5}, {1, 20}, {2, 10}};
  stats.edge_label_counts = {{0, 7}};
  AttributePanel panel = AttributePanel::FromStats(stats);
  ASSERT_EQ(panel.vertex_attributes().size(), 3u);
  EXPECT_EQ(panel.vertex_attributes()[0].label, 1u);
  EXPECT_EQ(panel.vertex_attributes()[1].label, 2u);
  EXPECT_EQ(panel.DominantVertexLabel(), 1u);
  EXPECT_EQ(panel.size(), 4u);
}

TEST(AttributePanelTest, NamesFromDictionary) {
  LabelStats stats;
  stats.vertex_label_counts = {{0, 1}};
  LabelDictionary dict;
  dict.SetName(0, "Carbon");
  AttributePanel panel = AttributePanel::FromStats(stats, &dict);
  EXPECT_EQ(panel.vertex_attributes()[0].name, "Carbon");
  AttributePanel anonymous = AttributePanel::FromStats(stats);
  EXPECT_EQ(anonymous.vertex_attributes()[0].name, "L0");
}

TEST(PatternPanelTest, BasicBeforeCanned) {
  PatternPanel panel;
  panel.AddCanned(builder::Star(4), 0.5);
  panel.AddBasic(builder::SingleEdge());
  panel.AddCanned(builder::Cycle(5), 0.3);
  panel.AddBasic(builder::Triangle());
  ASSERT_EQ(panel.size(), 4u);
  EXPECT_TRUE(panel.entries()[0].is_basic);
  EXPECT_TRUE(panel.entries()[1].is_basic);
  EXPECT_FALSE(panel.entries()[2].is_basic);
  EXPECT_EQ(panel.num_basic(), 2u);
  EXPECT_EQ(panel.num_canned(), 2u);
}

TEST(PatternPanelTest, ReplaceCannedKeepsBasics) {
  PatternPanel panel;
  panel.AddBasic(builder::SingleEdge());
  panel.AddCanned(builder::Star(4), 0.5);
  panel.ReplaceCanned({builder::Cycle(6), builder::Path(5)}, {0.4, 0.2});
  EXPECT_EQ(panel.num_basic(), 1u);
  EXPECT_EQ(panel.num_canned(), 2u);
  EXPECT_EQ(panel.CannedPatterns()[0].NumEdges(), 6u);
}

TEST(PatternPanelTest, DefaultBasics) {
  auto basics = PatternPanel::DefaultBasicPatterns(3);
  ASSERT_EQ(basics.size(), 3u);
  EXPECT_EQ(basics[0].NumEdges(), 1u);  // edge
  EXPECT_EQ(basics[1].NumEdges(), 2u);  // 2-path
  EXPECT_EQ(basics[2].NumEdges(), 3u);  // triangle
  for (const Graph& b : basics) {
    EXPECT_LE(b.NumEdges(), 3u);  // z <= 3
    EXPECT_EQ(b.VertexLabel(0), 3u);
  }
}

TEST(QueryPanelTest, EdgeAtATimeConstruction) {
  QueryPanel panel;
  size_t a = panel.AddVertex(1);
  size_t b = panel.AddVertex(2);
  EXPECT_TRUE(panel.AddEdge(a, b, 5));
  EXPECT_FALSE(panel.AddEdge(a, b, 5));  // dup
  EXPECT_FALSE(panel.AddEdge(a, a));     // self
  Graph q = panel.ToGraph();
  EXPECT_EQ(q.NumVertices(), 2u);
  EXPECT_EQ(q.NumEdges(), 1u);
  EXPECT_EQ(panel.StepCount(), 3u);  // 2 adds + 1 edge (failed ops not steps)
}

TEST(QueryPanelTest, PatternStampIsOneStep) {
  QueryPanel panel;
  auto handles = panel.AddPattern(builder::Cycle(6, 2));
  EXPECT_EQ(handles.size(), 6u);
  EXPECT_EQ(panel.StepCount(), 1u);
  Graph q = panel.ToGraph();
  EXPECT_EQ(q.NumEdges(), 6u);
  EXPECT_EQ(q.VertexLabel(0), 2u);
}

TEST(QueryPanelTest, MergeConnectsComponents) {
  QueryPanel panel;
  auto c1 = panel.AddPattern(builder::Triangle(1));
  auto c2 = panel.AddPattern(builder::Path(3, 1));
  EXPECT_TRUE(panel.MergeVertices(c1[0], c2[0]));
  Graph q = panel.ToGraph();
  EXPECT_EQ(q.NumVertices(), 5u);  // 3 + 3 - 1
  EXPECT_EQ(q.NumEdges(), 5u);
  EXPECT_TRUE(IsConnected(q));
}

TEST(QueryPanelTest, MergeDropsDuplicateAndSelfEdges) {
  QueryPanel panel;
  size_t a = panel.AddVertex(0);
  size_t b = panel.AddVertex(0);
  size_t c = panel.AddVertex(0);
  panel.AddEdge(a, b);
  panel.AddEdge(b, c);
  panel.AddEdge(a, c);
  // Merging c into b: edge (b,c) collapses; (a,c) becomes duplicate (a,b).
  EXPECT_TRUE(panel.MergeVertices(b, c));
  Graph q = panel.ToGraph();
  EXPECT_EQ(q.NumVertices(), 2u);
  EXPECT_EQ(q.NumEdges(), 1u);
}

TEST(QueryPanelTest, DeleteOperations) {
  QueryPanel panel;
  size_t a = panel.AddVertex(0);
  size_t b = panel.AddVertex(0);
  size_t c = panel.AddVertex(0);
  panel.AddEdge(a, b);
  panel.AddEdge(b, c);
  EXPECT_TRUE(panel.DeleteEdge(a, b));
  EXPECT_FALSE(panel.DeleteEdge(a, b));
  EXPECT_TRUE(panel.DeleteVertex(c));  // removes (b,c) too
  Graph q = panel.ToGraph();
  EXPECT_EQ(q.NumVertices(), 2u);
  EXPECT_EQ(q.NumEdges(), 0u);
  EXPECT_FALSE(panel.AddEdge(a, c));  // c is dead
}

TEST(QueryPanelTest, SetLabels) {
  QueryPanel panel;
  size_t a = panel.AddVertex(0);
  size_t b = panel.AddVertex(0);
  panel.AddEdge(a, b, 0);
  EXPECT_TRUE(panel.SetVertexLabel(a, 9));
  EXPECT_TRUE(panel.SetEdgeLabel(a, b, 4));
  EXPECT_FALSE(panel.SetEdgeLabel(a, 99, 4));
  Graph q = panel.ToGraph();
  EXPECT_EQ(q.VertexLabel(0), 9u);
  EXPECT_EQ(q.EdgeLabel(0, 1).value(), 4u);
}

TEST(ResultsPanelTest, DatabaseMatches) {
  GraphDatabase db;
  db.Add(builder::Triangle(1));
  db.Add(builder::Path(4, 1));
  db.Add(builder::Triangle(2));
  ResultsPanel panel;
  panel.PopulateFromDatabase(db, builder::Triangle(1));
  ASSERT_EQ(panel.size(), 1u);
  EXPECT_EQ(panel.results()[0].graph_id, 0);
  EXPECT_EQ(panel.results()[0].embedding.size(), 3u);
}

TEST(ResultsPanelTest, NetworkMatchesRespectLimit) {
  Graph network = builder::Clique(6, 0);
  ResultsPanel panel;
  panel.PopulateFromNetwork(network, builder::Triangle(0), 10);
  EXPECT_EQ(panel.size(), 10u);
  for (const ResultEntry& r : panel.results()) {
    EXPECT_EQ(r.graph_id, -1);
  }
}

TEST(VqiBuilderTest, DatabaseVqiComplete) {
  GraphDatabase db = gen::MoleculeDatabase(60, gen::MoleculeConfig{}, 41);
  CatapultConfig config;
  config.budget = 5;
  config.num_clusters = 4;
  config.tree_config.min_support = 5;
  config.walks_per_csg = 16;
  auto built = BuildVqiForDatabase(db, config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const VisualQueryInterface& vqi = built->vqi;
  EXPECT_EQ(vqi.kind(), DataSourceKind::kGraphCollection);
  EXPECT_GT(vqi.attribute_panel().size(), 0u);
  EXPECT_EQ(vqi.pattern_panel().num_basic(), 3u);
  EXPECT_GT(vqi.pattern_panel().num_canned(), 0u);
  // Canned coverages recorded and positive.
  for (const PatternEntry& e : vqi.pattern_panel().entries()) {
    if (!e.is_basic) {
      EXPECT_GT(e.coverage, 0.0);
    }
  }
  EXPECT_FALSE(built->catapult_state.cluster_members.empty());
}

TEST(VqiBuilderTest, CannedCoveragesEqualDbCoverage) {
  GraphDatabase db = gen::MoleculeDatabase(60, gen::MoleculeConfig{}, 47);
  CatapultConfig config;
  config.budget = 5;
  config.num_clusters = 4;
  config.tree_config.min_support = 5;
  config.walks_per_csg = 16;
  auto built = BuildVqiForDatabase(db, config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  size_t canned = 0;
  for (const PatternEntry& e : built->vqi.pattern_panel().entries()) {
    if (e.is_basic) continue;
    EXPECT_EQ(e.coverage, DbCoverage(db, e.graph));
    ++canned;
  }
  EXPECT_EQ(canned, built->catapult_state.patterns.size());
}

TEST(VqiBuilderTest, NetworkVqiComplete) {
  Rng rng(42);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 4;
  Graph network = gen::WattsStrogatz(300, 3, 0.1, labels, rng);
  TattooConfig config;
  config.budget = 5;
  config.samples_per_class = 16;
  auto built = BuildVqiForNetwork(network, config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->vqi.kind(), DataSourceKind::kSingleNetwork);
  EXPECT_GT(built->vqi.pattern_panel().num_canned(), 0u);
}

TEST(VqiBuilderTest, ManualBaselineHasOnlyBasics) {
  GraphDatabase db = gen::MoleculeDatabase(10, gen::MoleculeConfig{}, 43);
  VisualQueryInterface vqi = BuildManualBaselineVqi(
      db.ComputeLabelStats(), DataSourceKind::kGraphCollection);
  EXPECT_EQ(vqi.pattern_panel().num_canned(), 0u);
  EXPECT_EQ(vqi.pattern_panel().num_basic(), 3u);
}

TEST(VqiEndToEndTest, FormulateExecuteInspect) {
  GraphDatabase db = gen::MoleculeDatabase(40, gen::MoleculeConfig{}, 44);
  CatapultConfig config;
  config.budget = 4;
  config.num_clusters = 3;
  config.tree_config.min_support = 4;
  config.walks_per_csg = 16;
  auto built = BuildVqiForDatabase(db, config);
  ASSERT_TRUE(built.ok());
  VisualQueryInterface vqi = std::move(built->vqi);

  // Drag the first canned pattern into the query panel and run it.
  std::vector<Graph> canned = vqi.pattern_panel().CannedPatterns();
  ASSERT_FALSE(canned.empty());
  vqi.query_panel().AddPattern(canned[0]);
  vqi.ExecuteQuery(db);
  EXPECT_GT(vqi.results_panel().size(), 0u);
  EXPECT_NE(vqi.Summary().find("results"), std::string::npos);
}

TEST(VqiMaintainerTest, RefreshesPanels) {
  GraphDatabase db = gen::MoleculeDatabase(50, gen::MoleculeConfig{}, 45);
  CatapultConfig config;
  config.budget = 4;
  config.num_clusters = 4;
  config.tree_config.min_support = 4;
  config.walks_per_csg = 16;
  config.use_closed_trees = true;
  auto built = BuildVqiForDatabase(db, config);
  ASSERT_TRUE(built.ok());
  VisualQueryInterface vqi = std::move(built->vqi);

  MidasConfig midas;
  midas.base = config;
  midas.drift_threshold = 0.0;  // force the major path
  VqiMaintainer maintainer(std::move(built->catapult_state), midas);

  BatchUpdate update;
  Rng rng(46);
  for (int i = 0; i < 8; ++i) {
    update.additions.push_back(gen::Molecule(gen::MoleculeConfig{}, rng));
  }
  update.deletions = {0, 1, 2};
  auto report = maintainer.ApplyBatch(vqi, db, std::move(update));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->drift.type, ModificationType::kMajor);
  // Panels remain consistent: basics intact, canned patterns = state's.
  EXPECT_EQ(vqi.pattern_panel().num_basic(), 3u);
  EXPECT_EQ(vqi.pattern_panel().num_canned(),
            maintainer.state().patterns().size());
}

TEST(SerializeTest, RoundTrip) {
  LabelStats stats;
  stats.vertex_label_counts = {{0, 10}, {1, 5}};
  stats.edge_label_counts = {{0, 8}};
  LabelDictionary dict;
  dict.SetName(0, "Carbon atom");
  dict.SetName(1, "Oxygen");
  VisualQueryInterface vqi = BuildManualBaselineVqi(
      stats, DataSourceKind::kGraphCollection, &dict);
  vqi.pattern_panel().AddCanned(builder::Cycle(6, 0), 0.75);

  std::string text = SerializeVqi(vqi);
  auto parsed = ParseVqi(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind(), vqi.kind());
  EXPECT_EQ(parsed->attribute_panel().vertex_attributes().size(), 2u);
  EXPECT_EQ(parsed->attribute_panel().vertex_attributes()[0].name,
            "Carbon atom");
  EXPECT_EQ(parsed->pattern_panel().num_basic(), 3u);
  ASSERT_EQ(parsed->pattern_panel().num_canned(), 1u);
  EXPECT_TRUE(parsed->pattern_panel().CannedPatterns()[0].IdenticalTo(
      builder::Cycle(6, 0)));
  // Second round trip is byte-identical (canonical form).
  EXPECT_EQ(SerializeVqi(*parsed), text);
}

TEST(SerializeTest, FileRoundTrip) {
  LabelStats stats;
  stats.vertex_label_counts = {{0, 1}};
  VisualQueryInterface vqi = BuildManualBaselineVqi(
      stats, DataSourceKind::kSingleNetwork);
  std::string path = testing::TempDir() + "/vqi_serialize_test.vqi";
  ASSERT_TRUE(SaveVqi(vqi, path).ok());
  auto loaded = LoadVqi(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->kind(), DataSourceKind::kSingleNetwork);
}

class SerializeRoundTripTest : public testing::TestWithParam<uint64_t> {};

TEST_P(SerializeRoundTripTest, GeneratedVqisRoundTrip) {
  uint64_t seed = GetParam();
  GraphDatabase db = gen::MoleculeDatabase(30, gen::MoleculeConfig{}, seed);
  CatapultConfig config;
  config.budget = 4;
  config.num_clusters = 3;
  config.tree_config.min_support = 3;
  config.walks_per_csg = 12;
  config.seed = seed;
  auto built = BuildVqiForDatabase(db, config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  std::string text = SerializeVqi(built->vqi);
  auto parsed = ParseVqi(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // Structural equality of the panels.
  ASSERT_EQ(parsed->pattern_panel().size(), built->vqi.pattern_panel().size());
  for (size_t i = 0; i < parsed->pattern_panel().size(); ++i) {
    EXPECT_TRUE(parsed->pattern_panel().entries()[i].graph.IdenticalTo(
        built->vqi.pattern_panel().entries()[i].graph))
        << "pattern " << i;
    EXPECT_EQ(parsed->pattern_panel().entries()[i].is_basic,
              built->vqi.pattern_panel().entries()[i].is_basic);
  }
  EXPECT_EQ(parsed->attribute_panel().vertex_attributes().size(),
            built->vqi.attribute_panel().vertex_attributes().size());
  // Canonical serialization: a second trip is byte-identical.
  EXPECT_EQ(SerializeVqi(*parsed), text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeRoundTripTest,
                         testing::Values(101u, 202u, 303u, 404u));

TEST(SerializeTest, ParseErrors) {
  EXPECT_FALSE(ParseVqi("").ok());
  EXPECT_FALSE(ParseVqi("VQI1\nkind nonsense\n").ok());
  EXPECT_FALSE(ParseVqi("VQI1\nbogus directive\n").ok());
  EXPECT_FALSE(ParseVqi("VQI1\npattern canned 0.5\nt # 0\nv 0 0\n").ok());
  EXPECT_FALSE(ParseVqi("VQI1\nvattr x y z\n").ok());
}

}  // namespace
}  // namespace vqi
