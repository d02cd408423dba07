#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>

#include "cluster/agglomerative.h"
#include "cluster/closure.h"
#include "cluster/csg.h"
#include "cluster/features.h"
#include "cluster/kmedoids.h"
#include "cluster/similarity.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "match/vf2.h"
#include "mining/graphlets.h"
#include "mining/tree_miner.h"
#include "naive_clustering.h"

namespace vqi {
namespace {

constexpr DistanceMetric kMetrics[] = {
    DistanceMetric::kEuclidean, DistanceMetric::kCosine,
    DistanceMetric::kJaccard};

// Bit-for-bit equality; EXPECT_EQ would call -0.0 and 0.0 equal.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// A random feature vector: 0/1 entries, or non-negative reals whose
// magnitudes span several decades.
FeatureVector RandomVector(size_t dims, bool binary, Rng& rng) {
  FeatureVector v(dims);
  for (double& x : v) {
    x = binary ? static_cast<double>(rng.UniformInt(2))
               : rng.UniformDouble() *
                     std::pow(10.0, static_cast<double>(rng.UniformInt(5)) - 2);
  }
  return v;
}

TEST(SimilarityTest, DistanceIsSymmetricBitForBit) {
  Rng rng(17);
  for (int trial = 0; trial < 400; ++trial) {
    size_t dims = 1 + rng.UniformInt(64);
    FeatureVector a = RandomVector(dims, trial % 2 == 0, rng);
    FeatureVector b = RandomVector(dims, trial % 3 == 0, rng);
    if (trial % 10 == 0) std::fill(a.begin(), a.end(), 0.0);
    for (DistanceMetric metric : kMetrics) {
      double ab = Distance(a, b, metric), ba = Distance(b, a, metric);
      EXPECT_TRUE(SameBits(ab, ba))
          << "trial " << trial << " metric " << static_cast<int>(metric)
          << ": " << ab << " vs " << ba;
    }
  }
}

TEST(DistanceTableTest, EveryEntryIsDistanceBitForBitDiagonalIncluded) {
  Rng rng(23);
  std::vector<FeatureVector> points;
  for (int i = 0; i < 30; ++i) {
    points.push_back(RandomVector(9, i % 2 == 0, rng));
  }
  points.push_back(points[4]);
  points.emplace_back(9, 0.0);
  for (DistanceMetric metric : kMetrics) {
    const DistanceTable table(points, metric);
    for (size_t i = 0; i < points.size(); ++i) {
      for (size_t j = 0; j < points.size(); ++j) {
        EXPECT_TRUE(
            SameBits(table(i, j), Distance(points[i], points[j], metric)))
            << "metric " << static_cast<int>(metric) << " (" << i << ", "
            << j << ")";
      }
    }
  }
  // Cosine's 1 - n/(sqrt(n)*sqrt(n)) is not 0 at popcount 2, so no sum that
  // adds d(i, i) may assume a zero diagonal.
  const FeatureVector two = {1, 1, 0, 0};
  const DistanceTable cosine({two}, DistanceMetric::kCosine);
  EXPECT_TRUE(
      SameBits(cosine(0, 0), Distance(two, two, DistanceMetric::kCosine)));
  EXPECT_NE(cosine(0, 0), 0.0);
}

TEST(SimilarityTest, CosineBasics) {
  EXPECT_DOUBLE_EQ(CosineSimilarity({1, 0}, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity({1, 0}, {0, 1}), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity({0, 0}, {0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity({0, 0}, {1, 0}), 0.0);
  EXPECT_NEAR(CosineSimilarity({1, 1}, {1, 0}), 0.7071, 1e-3);
}

TEST(SimilarityTest, Distances) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}, DistanceMetric::kEuclidean), 5.0);
  EXPECT_DOUBLE_EQ(Distance({1, 0}, {1, 0}, DistanceMetric::kCosine), 0.0);
  EXPECT_DOUBLE_EQ(Distance({1, 1}, {1, 0}, DistanceMetric::kJaccard), 0.5);
  EXPECT_DOUBLE_EQ(Distance({}, {}, DistanceMetric::kJaccard), 0.0);
}

TEST(FeaturesTest, TreeFeaturesMatchSupports) {
  GraphDatabase db;
  db.Add(builder::FromLists({0, 1}, {{0, 1, 0}}));
  db.Add(builder::FromLists({0, 1, 1}, {{0, 1, 0}, {1, 2, 0}}));
  db.Add(builder::FromLists({2, 2}, {{0, 1, 0}}));
  TreeMinerConfig config;
  config.min_support = 1;
  config.max_edges = 1;
  auto basis = MineFrequentTrees(db, config);
  auto features = TreeFeatures(db, basis);
  ASSERT_EQ(features.size(), 3u);
  for (size_t i = 0; i < db.size(); ++i) {
    FeatureVector direct = TreeFeatureOf(db.graphs()[i], basis);
    EXPECT_EQ(features[i], direct) << "graph " << i;
  }
}

std::vector<FeatureVector> TwoBlobs() {
  // Two well-separated blobs in 2D.
  return {
      {0.0, 0.0}, {0.1, 0.0}, {0.0, 0.1}, {0.1, 0.1},
      {5.0, 5.0}, {5.1, 5.0}, {5.0, 5.1}, {5.1, 5.1},
  };
}

TEST(KMedoidsTest, SeparatesBlobs) {
  Rng rng(1);
  auto points = TwoBlobs();
  ClusteringResult result =
      KMedoids(points, 2, DistanceMetric::kEuclidean, rng);
  ASSERT_EQ(result.num_clusters(), 2u);
  // First four together, last four together.
  for (int i = 1; i < 4; ++i) EXPECT_EQ(result.assignment[i], result.assignment[0]);
  for (int i = 5; i < 8; ++i) EXPECT_EQ(result.assignment[i], result.assignment[4]);
  EXPECT_NE(result.assignment[0], result.assignment[4]);
  EXPECT_GT(MeanSilhouette(points, result, DistanceMetric::kEuclidean), 0.8);
}

TEST(KMedoidsTest, KClampedToN) {
  Rng rng(2);
  std::vector<FeatureVector> points = {{0.0}, {1.0}};
  ClusteringResult result =
      KMedoids(points, 10, DistanceMetric::kEuclidean, rng);
  EXPECT_EQ(result.num_clusters(), 2u);
  EXPECT_NEAR(result.cost, 0.0, 1e-12);
}

TEST(KMedoidsTest, EmptyInput) {
  Rng rng(3);
  ClusteringResult result = KMedoids({}, 3, DistanceMetric::kEuclidean, rng);
  EXPECT_EQ(result.num_clusters(), 0u);
  EXPECT_TRUE(result.assignment.empty());
}

TEST(KMedoidsTest, MedoidsAreMembers) {
  Rng rng(4);
  auto points = TwoBlobs();
  ClusteringResult result =
      KMedoids(points, 3, DistanceMetric::kEuclidean, rng);
  for (size_t c = 0; c < result.num_clusters(); ++c) {
    size_t medoid = result.medoids[c];
    ASSERT_LT(medoid, points.size());
  }
}

TEST(AgglomerativeTest, SeparatesBlobs) {
  auto points = TwoBlobs();
  ClusteringResult result =
      AgglomerativeAverageLinkage(points, 2, DistanceMetric::kEuclidean);
  ASSERT_EQ(result.num_clusters(), 2u);
  for (int i = 1; i < 4; ++i) EXPECT_EQ(result.assignment[i], result.assignment[0]);
  for (int i = 5; i < 8; ++i) EXPECT_EQ(result.assignment[i], result.assignment[4]);
  EXPECT_NE(result.assignment[0], result.assignment[4]);
}

TEST(AgglomerativeTest, KOneMergesAll) {
  auto points = TwoBlobs();
  ClusteringResult result =
      AgglomerativeAverageLinkage(points, 1, DistanceMetric::kEuclidean);
  EXPECT_EQ(result.num_clusters(), 1u);
  std::set<int> labels(result.assignment.begin(), result.assignment.end());
  EXPECT_EQ(labels.size(), 1u);
}

// One input of the differential tests below.
struct OracleCase {
  std::string name;
  std::vector<FeatureVector> points;
};

// Random rows where every third row repeats an earlier one (ties between
// candidates, zero distances between points) and row 1 is all zero (the
// zero-vector cases of cosine and Jaccard).
std::vector<FeatureVector> RandomPoints(size_t n, size_t dims, bool binary,
                                        Rng& rng) {
  std::vector<FeatureVector> points;
  for (size_t i = 0; i < n; ++i) {
    if (i == 1) {
      points.emplace_back(dims, 0.0);
    } else if (i >= 3 && i % 3 == 0) {
      points.push_back(points[rng.UniformInt(i)]);
    } else {
      points.push_back(RandomVector(dims, binary, rng));
    }
  }
  return points;
}

// Random real and 0/1 rows on both sides of KMedoids' 64-point sampled
// start, plus one molecule collection's tree features (0/1) and graphlet
// features (non-binary), the inputs CATAPULT and the modular pipeline
// cluster.
std::vector<OracleCase> OracleCases() {
  std::vector<OracleCase> cases;
  Rng rng(91);
  for (size_t n : {1u, 2u, 5u, 12u, 40u, 64u, 65u, 90u}) {
    cases.push_back({"real n=" + std::to_string(n),
                     RandomPoints(n, 6, /*binary=*/false, rng)});
  }
  for (size_t n : {3u, 12u, 40u, 64u, 65u, 90u}) {
    cases.push_back({"binary n=" + std::to_string(n),
                     RandomPoints(n, 10, /*binary=*/true, rng)});
  }
  GraphDatabase db = gen::MoleculeDatabase(100, gen::MoleculeConfig{}, 31);
  TreeMinerConfig trees;
  trees.min_support = 5;
  trees.max_edges = 2;
  cases.push_back(
      {"molecule trees", TreeFeatures(db, MineFrequentTrees(db, trees))});
  std::vector<FeatureVector> graphlets;
  for (const Graph& g : db.graphs()) {
    GraphletDistribution d = GraphletsOf(g);
    graphlets.emplace_back(d.freq.begin(), d.freq.end());
  }
  cases.push_back({"molecule graphlets", std::move(graphlets)});
  return cases;
}

// Every k in 1..n+2 on small inputs; on larger ones both ends of the range
// and a spread in between.
std::vector<size_t> KsFor(size_t n) {
  if (n <= 16) {
    std::vector<size_t> ks;
    for (size_t k = 1; k <= n + 2; ++k) ks.push_back(k);
    return ks;
  }
  size_t root =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  return {1, 2, 3, root, n / 4, n / 2, n - 1, n, n + 1, n + 2};
}

void ExpectSameClustering(const ClusteringResult& got,
                          const ClusteringResult& want) {
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.medoids, want.medoids);
  EXPECT_TRUE(SameBits(got.cost, want.cost))
      << got.cost << " vs " << want.cost;
}

TEST(ClusteringOracleTest, KMedoidsAndSilhouetteMatchPerPairCodeBitForBit) {
  for (const OracleCase& c : OracleCases()) {
    for (DistanceMetric metric : kMetrics) {
      for (size_t k : KsFor(c.points.size())) {
        SCOPED_TRACE(c.name + " metric " +
                     std::to_string(static_cast<int>(metric)) + " k " +
                     std::to_string(k));
        Rng rng(1000 + k), oracle_rng(1000 + k);
        ClusteringResult got = KMedoids(c.points, k, metric, rng);
        ClusteringResult want =
            naive::KMedoids(c.points, k, metric, oracle_rng);
        ExpectSameClustering(got, want);
        EXPECT_EQ(rng.Next(), oracle_rng.Next()) << "rng draws diverged";
        EXPECT_TRUE(SameBits(MeanSilhouette(c.points, got, metric),
                             naive::MeanSilhouette(c.points, want, metric)));
      }
    }
  }
}

TEST(ClusteringOracleTest, AverageLinkageMatchesPerPairCodeBitForBit) {
  for (const OracleCase& c : OracleCases()) {
    for (DistanceMetric metric : kMetrics) {
      for (size_t k : KsFor(c.points.size())) {
        SCOPED_TRACE(c.name + " metric " +
                     std::to_string(static_cast<int>(metric)) + " k " +
                     std::to_string(k));
        ClusteringResult got = AgglomerativeAverageLinkage(c.points, k, metric);
        ClusteringResult want =
            naive::AgglomerativeAverageLinkage(c.points, k, metric);
        ExpectSameClustering(got, want);
        EXPECT_TRUE(SameBits(MeanSilhouette(c.points, got, metric),
                             naive::MeanSilhouette(c.points, want, metric)));
      }
    }
  }
}

TEST(ClusterMembersTest, Partition) {
  auto members = ClusterMembers({0, 1, 0, 1, 2}, 3);
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].size(), 2u);
  EXPECT_EQ(members[2].size(), 1u);
}

TEST(ClosureTest, IdenticalGraphsAlignPerfectly) {
  Graph a = builder::FromLists({0, 1, 2}, {{0, 1, 0}, {1, 2, 0}});
  Graph closure = GraphClosure(a, a);
  EXPECT_EQ(closure.NumVertices(), a.NumVertices());
  EXPECT_EQ(closure.NumEdges(), a.NumEdges());
  for (VertexId v = 0; v < closure.NumVertices(); ++v) {
    EXPECT_NE(closure.VertexLabel(v), kDummyLabel);
  }
}

TEST(ClosureTest, DisjointLabelsCreateNewVertices) {
  Graph a = builder::SingleEdge(0, 1);
  Graph b = builder::SingleEdge(7, 8);
  Graph closure = GraphClosure(a, b);
  // Nothing aligns; closure holds both edges.
  EXPECT_EQ(closure.NumVertices(), 4u);
  EXPECT_EQ(closure.NumEdges(), 2u);
}

TEST(ClosureTest, EveryMemberRepresented) {
  // The closure must contain at least as many vertices/edges as each input.
  Rng rng(8);
  gen::MoleculeConfig config;
  for (int trial = 0; trial < 5; ++trial) {
    Graph a = gen::Molecule(config, rng);
    Graph b = gen::Molecule(config, rng);
    Graph closure = GraphClosure(a, b);
    EXPECT_GE(closure.NumVertices(), std::max(a.NumVertices(), b.NumVertices()));
    EXPECT_GE(closure.NumEdges(), std::max(a.NumEdges(), b.NumEdges()));
    EXPECT_LE(closure.NumVertices(), a.NumVertices() + b.NumVertices());
    EXPECT_LE(closure.NumEdges(), a.NumEdges() + b.NumEdges());
  }
}

TEST(CsgTest, SingleMemberIsItself) {
  Graph a = builder::FromLists({0, 1, 2}, {{0, 1, 5}, {1, 2, 6}});
  ClusterSummaryGraph csg = ClusterSummaryGraph::Build({&a});
  EXPECT_EQ(csg.num_members(), 1u);
  EXPECT_EQ(csg.graph().NumVertices(), 3u);
  EXPECT_EQ(csg.graph().NumEdges(), 2u);
  auto edges = csg.graph().Edges();
  for (const Edge& e : edges) {
    EXPECT_DOUBLE_EQ(csg.EdgeWeight(e.u, e.v), 1.0);
  }
}

TEST(CsgTest, SharedEdgesGetHigherWeight) {
  // Three graphs all containing labeled edge (0)-(1); only one has (1)-(2).
  Graph a = builder::FromLists({0, 1}, {{0, 1, 0}});
  Graph b = builder::FromLists({0, 1}, {{0, 1, 0}});
  Graph c = builder::FromLists({0, 1, 2}, {{0, 1, 0}, {1, 2, 0}});
  ClusterSummaryGraph csg = ClusterSummaryGraph::Build({&a, &b, &c});
  EXPECT_EQ(csg.num_members(), 3u);
  // Find the (0)-(1) edge and the (1)-(2) edge by endpoint labels.
  const Graph& g = csg.graph();
  double shared_weight = 0.0, rare_weight = 0.0;
  for (const Edge& e : g.Edges()) {
    Label lu = g.VertexLabel(e.u), lv = g.VertexLabel(e.v);
    if ((lu == 0 && lv == 1) || (lu == 1 && lv == 0)) {
      shared_weight = csg.EdgeWeight(e.u, e.v);
    }
    if ((lu == 1 && lv == 2) || (lu == 2 && lv == 1)) {
      rare_weight = csg.EdgeWeight(e.u, e.v);
    }
  }
  EXPECT_DOUBLE_EQ(shared_weight, 3.0);
  EXPECT_DOUBLE_EQ(rare_weight, 1.0);
}

TEST(CsgTest, MajorityLabelsKeepPatternsMatchable) {
  // Unlike a wildcard closure, the CSG must never emit kDummyLabel.
  Rng rng(9);
  gen::MoleculeConfig config;
  std::vector<Graph> members;
  for (int i = 0; i < 6; ++i) members.push_back(gen::Molecule(config, rng));
  std::vector<const Graph*> ptrs;
  for (const Graph& m : members) ptrs.push_back(&m);
  ClusterSummaryGraph csg = ClusterSummaryGraph::Build(ptrs);
  for (VertexId v = 0; v < csg.graph().NumVertices(); ++v) {
    EXPECT_NE(csg.graph().VertexLabel(v), kDummyLabel);
  }
  for (const Edge& e : csg.graph().Edges()) {
    EXPECT_NE(e.label, kDummyLabel);
  }
}

TEST(CsgTest, CsgSmallerThanMemberSum) {
  // Folding similar molecules should merge shared skeletons.
  GraphDatabase db = gen::MoleculeDatabase(8, gen::MoleculeConfig{}, 31);
  std::vector<const Graph*> ptrs;
  size_t total_vertices = 0;
  for (const Graph& g : db.graphs()) {
    ptrs.push_back(&g);
    total_vertices += g.NumVertices();
  }
  ClusterSummaryGraph csg = ClusterSummaryGraph::Build(ptrs);
  EXPECT_LT(csg.graph().NumVertices(), total_vertices);
}

}  // namespace
}  // namespace vqi
