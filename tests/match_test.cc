#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "match/canonical.h"
#include "match/candidate_index.h"
#include "match/csr_graph.h"
#include "match/pattern_utils.h"
#include "match/vf2.h"
#include "metrics/coverage.h"
#include "naive_matcher.h"
#include "truss/truss.h"

namespace vqi {
namespace {

TEST(Vf2Test, SingleEdgeInTriangle) {
  Graph triangle = builder::Triangle();
  Graph edge = builder::SingleEdge();
  EXPECT_TRUE(ContainsSubgraph(triangle, edge));
  // 3 edges x 2 orientations.
  EXPECT_EQ(CountEmbeddings(triangle, edge, 0), 6u);
}

TEST(Vf2Test, TriangleNotInPath) {
  Graph path = builder::Path(5);
  Graph triangle = builder::Triangle();
  EXPECT_FALSE(ContainsSubgraph(path, triangle));
}

TEST(Vf2Test, PathInCycle) {
  Graph cycle = builder::Cycle(6);
  Graph path = builder::Path(4);
  EXPECT_TRUE(ContainsSubgraph(cycle, path));
  // A 3-edge path embeds at 6 start points x 2 directions.
  EXPECT_EQ(CountEmbeddings(cycle, path, 0), 12u);
}

TEST(Vf2Test, VertexLabelsRespected) {
  Graph target = builder::SingleEdge(/*a=*/1, /*b=*/2);
  Graph same = builder::SingleEdge(1, 2);
  Graph different = builder::SingleEdge(1, 3);
  EXPECT_TRUE(ContainsSubgraph(target, same));
  EXPECT_FALSE(ContainsSubgraph(target, different));

  MatchOptions ignore_labels;
  ignore_labels.match_vertex_labels = false;
  EXPECT_TRUE(ContainsSubgraph(target, different, ignore_labels));
}

TEST(Vf2Test, EdgeLabelsRespected) {
  Graph target = builder::SingleEdge(0, 0, /*elabel=*/5);
  Graph wrong = builder::SingleEdge(0, 0, /*elabel=*/6);
  EXPECT_FALSE(ContainsSubgraph(target, wrong));
  MatchOptions ignore;
  ignore.match_edge_labels = false;
  EXPECT_TRUE(ContainsSubgraph(target, wrong, ignore));
}

TEST(Vf2Test, InducedVsNonInduced) {
  // A 2-path (3 vertices) occurs in a triangle non-induced but not induced.
  Graph triangle = builder::Triangle();
  Graph path3 = builder::Path(3);
  EXPECT_TRUE(ContainsSubgraph(triangle, path3));
  MatchOptions induced;
  induced.induced = true;
  EXPECT_FALSE(ContainsSubgraph(triangle, path3, induced));
}

TEST(Vf2Test, CountCapRespected) {
  Graph clique = builder::Clique(6);
  Graph edge = builder::SingleEdge();
  // 15 edges x 2 = 30 embeddings, capped at 7.
  EXPECT_EQ(CountEmbeddings(clique, edge, 7), 7u);
}

TEST(Vf2Test, StarInStar) {
  Graph big = builder::Star(5);
  Graph small = builder::Star(3);
  EXPECT_TRUE(ContainsSubgraph(big, small));
  // Hub fixed, choose+order 3 of 5 leaves: 5*4*3 = 60.
  EXPECT_EQ(CountEmbeddings(big, small, 0), 60u);
}

TEST(Vf2Test, FindOneReturnsValidEmbedding) {
  Graph cycle = builder::Cycle(8);
  Graph path = builder::Path(3);
  SubgraphMatcher matcher(path, cycle);
  auto embedding = matcher.FindOne();
  ASSERT_TRUE(embedding.has_value());
  ASSERT_EQ(embedding->size(), 3u);
  // Consecutive path vertices must map to adjacent cycle vertices.
  EXPECT_TRUE(cycle.HasEdge((*embedding)[0], (*embedding)[1]));
  EXPECT_TRUE(cycle.HasEdge((*embedding)[1], (*embedding)[2]));
  // Injective.
  EXPECT_NE((*embedding)[0], (*embedding)[2]);
}

TEST(Vf2Test, EnumerateEarlyStop) {
  Graph clique = builder::Clique(5);
  Graph edge = builder::SingleEdge();
  SubgraphMatcher matcher(edge, clique);
  uint64_t seen = 0;
  matcher.Enumerate([&](const Embedding&) {
    ++seen;
    return seen < 3;
  });
  EXPECT_EQ(seen, 3u);
}

TEST(Vf2Test, StepLimitReported) {
  Graph big = builder::Clique(9);
  Graph pattern = builder::Clique(5);
  MatchOptions opts;
  opts.max_steps = 10;
  SubgraphMatcher matcher(pattern, big, opts);
  matcher.CountEmbeddings();
  EXPECT_TRUE(matcher.hit_step_limit());
}

TEST(Vf2Test, StepLimitFlagResetsBetweenRuns) {
  // A matcher that hit the limit once must not report a stale flag for a
  // later run that completed within budget.
  Graph big = builder::Clique(9);
  Graph pattern = builder::Clique(5);
  MatchOptions opts;
  opts.max_steps = 10;
  SubgraphMatcher matcher(pattern, big, opts);
  matcher.CountEmbeddings();
  ASSERT_TRUE(matcher.hit_step_limit());
  matcher.set_max_steps(0);  // unlimited
  EXPECT_TRUE(matcher.Exists());
  EXPECT_FALSE(matcher.hit_step_limit());
}

TEST(Vf2Test, PatternLargerThanTargetFailsFast) {
  Graph small = builder::Triangle();
  Graph big = builder::Clique(4);
  EXPECT_FALSE(ContainsSubgraph(small, big));
}

// Brute force triangle counter used as an oracle below.
size_t CountTrianglesBrute(const Graph& g) {
  size_t count = 0;
  for (VertexId a = 0; a < g.NumVertices(); ++a)
    for (VertexId b = a + 1; b < g.NumVertices(); ++b)
      for (VertexId c = b + 1; c < g.NumVertices(); ++c)
        if (g.HasEdge(a, b) && g.HasEdge(b, c) && g.HasEdge(a, c)) ++count;
  return count;
}

TEST(Vf2Test, EmbeddingCountsOnRandomGraphsMatchBruteForce) {
  // Cross-check VF2 triangle counts against the combinatorial counter.
  Rng rng(42);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 1;
  for (int trial = 0; trial < 5; ++trial) {
    Graph g = gen::ErdosRenyi(12, 0.3, labels, rng);
    Graph triangle = builder::Triangle();
    // Each triangle has 6 automorphic embeddings.
    uint64_t expected = 6 * CountTrianglesBrute(g);
    EXPECT_EQ(CountEmbeddings(g, triangle, 0), expected);
  }
}

TEST(CanonicalTest, IsomorphicRelabeledGraphsShareCode) {
  // Same triangle-with-tail, two vertex numberings.
  Graph a = builder::FromLists({0, 0, 0, 1}, {{0, 1, 0}, {1, 2, 0}, {0, 2, 0}, {2, 3, 0}});
  Graph b = builder::FromLists({1, 0, 0, 0}, {{1, 2, 0}, {2, 3, 0}, {1, 3, 0}, {3, 0, 0}});
  EXPECT_EQ(CanonicalCode(a), CanonicalCode(b));
  EXPECT_TRUE(AreIsomorphic(a, b));
}

TEST(CanonicalTest, DifferentStructuresDiffer) {
  EXPECT_NE(CanonicalCode(builder::Path(4)), CanonicalCode(builder::Star(3)));
  EXPECT_NE(CanonicalCode(builder::Cycle(4)), CanonicalCode(builder::Path(4)));
  EXPECT_FALSE(AreIsomorphic(builder::Cycle(6), builder::Path(6)));
}

TEST(CanonicalTest, LabelsDistinguish) {
  Graph a = builder::SingleEdge(0, 1);
  Graph b = builder::SingleEdge(0, 2);
  EXPECT_NE(CanonicalCode(a), CanonicalCode(b));
  Graph c = builder::SingleEdge(0, 1, /*elabel=*/0);
  Graph d = builder::SingleEdge(0, 1, /*elabel=*/1);
  EXPECT_NE(CanonicalCode(c), CanonicalCode(d));
}

TEST(CanonicalTest, SymmetricUnlabeledGraphs) {
  // Highly symmetric cases exercise the individualization search.
  EXPECT_EQ(CanonicalCode(builder::Cycle(8)), CanonicalCode(builder::Cycle(8)));
  EXPECT_NE(CanonicalCode(builder::Cycle(8)), CanonicalCode(builder::Cycle(9)));
  EXPECT_EQ(CanonicalCode(builder::Clique(5)), CanonicalCode(builder::Clique(5)));
}

TEST(CanonicalTest, RandomPermutationInvariance) {
  Rng rng(7);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 3;
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = gen::ErdosRenyi(9, 0.35, labels, rng);
    // Random relabeling of vertex ids.
    std::vector<VertexId> perm(g.NumVertices());
    for (VertexId v = 0; v < g.NumVertices(); ++v) perm[v] = v;
    rng.Shuffle(perm);
    Graph h;
    std::vector<VertexId> where(g.NumVertices());
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      where[perm[v]] = v;  // h vertex perm[v] corresponds to g vertex v
    }
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      h.AddVertex(g.VertexLabel(where[v]));
    }
    for (const Edge& e : g.Edges()) {
      h.AddEdge(perm[e.u], perm[e.v], e.label);
    }
    EXPECT_EQ(CanonicalCode(g), CanonicalCode(h)) << g.DebugString();
  }
}

TEST(PatternUtilsTest, DedupIsomorphic) {
  std::vector<Graph> graphs;
  graphs.push_back(builder::Path(3));
  graphs.push_back(builder::Path(3));
  graphs.push_back(builder::Triangle());
  graphs.push_back(builder::FromLists({0, 0, 0}, {{0, 1, 0}, {1, 2, 0}}));  // = path3
  std::vector<Graph> unique = DedupIsomorphic(std::move(graphs));
  EXPECT_EQ(unique.size(), 2u);
}

TEST(PatternUtilsTest, IsomorphismSet) {
  IsomorphismSet set;
  EXPECT_TRUE(set.Insert(builder::Path(3)));
  EXPECT_FALSE(set.Insert(builder::Path(3)));
  EXPECT_TRUE(set.Insert(builder::Star(3)));
  EXPECT_TRUE(set.Contains(builder::Path(3)));
  EXPECT_FALSE(set.Contains(builder::Cycle(5)));
  EXPECT_EQ(set.size(), 2u);
}

TEST(PatternUtilsTest, RandomConnectedSubgraphProperties) {
  Rng rng(123);
  gen::LabelConfig labels;
  Graph g = gen::BarabasiAlbert(60, 3, labels, rng);
  for (size_t edges = 1; edges <= 8; ++edges) {
    auto sub = RandomConnectedSubgraph(g, edges, rng);
    ASSERT_TRUE(sub.has_value());
    EXPECT_EQ(sub->NumEdges(), edges);
    EXPECT_TRUE(ContainsSubgraph(g, *sub));
  }
}

TEST(PatternUtilsTest, RandomConnectedSubgraphTooLarge) {
  Rng rng(5);
  Graph tiny = builder::Path(3);  // 2 edges
  EXPECT_FALSE(RandomConnectedSubgraph(tiny, 10, rng).has_value());
}

TEST(CsrGraphTest, RoundTripMatchesGraphAdjacency) {
  Rng rng(0xC5A0);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 5;
  labels.num_edge_labels = 3;
  std::vector<Graph> graphs = {
      gen::ErdosRenyi(40, 0.1, labels, rng),
      gen::BarabasiAlbert(60, 3, labels, rng),
      gen::WattsStrogatz(50, 4, 0.2, labels, rng),
      gen::Molecule({}, rng),
      Graph(),                 // empty
      builder::Star(5),        // hub + leaves
  };
  for (const Graph& g : graphs) {
    CsrGraph csr(g);
    ASSERT_EQ(csr.NumVertices(), g.NumVertices());
    ASSERT_EQ(csr.NumEdges(), g.NumEdges());
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      EXPECT_EQ(csr.VertexLabel(v), g.VertexLabel(v));
      ASSERT_EQ(csr.Degree(v), g.Degree(v));
      // Rows must be byte-identical to the sorted Graph adjacency: the
      // matcher visits anchored candidates in this order, which fixes the
      // order embeddings are delivered in.
      const std::vector<Neighbor>& row = g.Neighbors(v);
      ASSERT_TRUE(std::equal(csr.NeighborsBegin(v), csr.NeighborsEnd(v),
                             row.begin(), row.end()));
    }
    // Both directions of every ordered pair: presence and labels agree.
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        EXPECT_EQ(csr.HasEdge(u, v), g.HasEdge(u, v));
        EXPECT_EQ(csr.EdgeLabel(u, v), g.EdgeLabel(u, v));
      }
    }
  }
}

TEST(CandidateIndexTest, NeverPrunesATrueEmbeddingVertex) {
  // Soundness against brute force: every filter the index applies (label
  // bucket membership with min-degree cutoff, signature subsumption, truss
  // shell dominance) must admit the image of every pattern vertex in every
  // real embedding the independent naive oracle finds.
  Rng rng(0x50F7);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 4;
  labels.num_edge_labels = 2;
  size_t embeddings_checked = 0;
  for (int round = 0; round < 8; ++round) {
    Graph target = gen::ErdosRenyi(24, 0.15, labels, rng);
    CsrGraph csr(target);
    CandidateIndex index = CandidateIndex::Build(target, csr);
    for (int p = 0; p < 4; ++p) {
      auto pattern = RandomConnectedSubgraph(target, 2 + rng.UniformInt(3), rng);
      if (!pattern.has_value()) continue;
      // Pattern-side data the matcher precomputes, rebuilt here by hand.
      TrussDecomposition pattern_truss = DecomposeTruss(*pattern);
      for (const Embedding& emb :
           naive::AllEmbeddings(*pattern, target, MatchOptions{})) {
        ++embeddings_checked;
        for (VertexId u = 0; u < pattern->NumVertices(); ++u) {
          VertexId tv = emb[u];
          // Bucket membership with the min-degree cutoff.
          CandidateIndex::Range range = index.CandidatesForLabel(
              pattern->VertexLabel(u),
              static_cast<uint32_t>(pattern->Degree(u)));
          EXPECT_TRUE(std::find(range.begin, range.end, tv) != range.end);
          // Signature subsumption: base mask and the >=2x repeat mask.
          uint64_t pattern_sig = 0;
          uint64_t pattern_repeat = 0;
          for (const Neighbor& nb : pattern->Neighbors(u)) {
            uint64_t bit =
                CandidateIndex::LabelBit(pattern->VertexLabel(nb.vertex));
            pattern_repeat |= pattern_sig & bit;
            pattern_sig |= bit;
          }
          EXPECT_TRUE(CandidateIndex::SignatureSubsumes(
              pattern_sig, index.NeighborhoodSignature(tv)));
          EXPECT_TRUE(CandidateIndex::SignatureSubsumes(
              pattern_repeat, index.NeighborhoodRepeatSignature(tv)));
          // Truss shell dominance.
          int pattern_shell = 0;
          for (const Neighbor& nb : pattern->Neighbors(u)) {
            pattern_shell = std::max(
                pattern_shell, pattern_truss.EdgeTrussness(u, nb.vertex));
          }
          EXPECT_TRUE(index.has_truss());
          EXPECT_GE(index.Shell(tv), pattern_shell);
        }
      }
    }
  }
  EXPECT_GT(embeddings_checked, 100u);
}

TEST(CandidateIndexTest, TrussShellsAreMonotoneUnderEdgeAddition) {
  // Trussness only grows when edges are added (more triangles, never fewer),
  // so vertex shells must be monotone too — the property that makes the
  // shell filter safe to compare across pattern (sub)graphs.
  Rng rng(0x7A55);
  gen::LabelConfig labels;
  Graph g = gen::WattsStrogatz(30, 4, 0.1, labels, rng);
  CsrGraph csr(g);
  CandidateIndex before = CandidateIndex::Build(g, csr);
  for (int added = 0; added < 20;) {
    VertexId u = static_cast<VertexId>(rng.UniformInt(g.NumVertices()));
    VertexId v = static_cast<VertexId>(rng.UniformInt(g.NumVertices()));
    if (u == v || g.HasEdge(u, v)) continue;
    ASSERT_TRUE(g.AddEdge(u, v));
    ++added;
    CsrGraph dense_csr(g);
    CandidateIndex after = CandidateIndex::Build(g, dense_csr);
    for (VertexId w = 0; w < g.NumVertices(); ++w) {
      EXPECT_GE(after.Shell(w), before.Shell(w));
      // Any vertex with an edge sits in a shell of at least 2.
      if (g.Degree(w) > 0) {
        EXPECT_GE(after.Shell(w), 2);
      }
    }
    before = std::move(after);
  }
}

TEST(Vf2Test, RepeatedRunsGiveIdenticalResultsAndStepCounts) {
  // Regression for the hoisted pattern-side precomputation: one matcher must
  // be reusable — two consecutive runs see identical counts AND identical
  // step counts, through a private and a shared index alike.
  Rng rng(0x2E9);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 3;
  Graph target = gen::BarabasiAlbert(50, 2, labels, rng);
  auto pattern = RandomConnectedSubgraph(target, 4, rng);
  ASSERT_TRUE(pattern.has_value());
  const PatternPlan plan(*pattern);
  const MatchIndex index(target);
  SubgraphMatcher private_matcher(*pattern, target);
  SubgraphMatcher shared_matcher(plan, index);
  for (SubgraphMatcher* matcher_ptr : {&private_matcher, &shared_matcher}) {
    SubgraphMatcher& matcher = *matcher_ptr;
    uint64_t count1 = matcher.CountEmbeddings();
    uint64_t steps1 = matcher.steps();
    uint64_t count2 = matcher.CountEmbeddings();
    uint64_t steps2 = matcher.steps();
    EXPECT_GT(count1, 0u);
    EXPECT_EQ(count1, count2);
    EXPECT_EQ(steps1, steps2);
    // And a third run through Enumerate agrees too.
    uint64_t count3 = matcher.Enumerate([](const Embedding&) { return true; });
    EXPECT_EQ(count1, count3);
    EXPECT_EQ(steps1, matcher.steps());
  }
}

TEST(Vf2Test, SharedMatchIndexMatchesPrivateIndex) {
  // A prebuilt (cached) MatchIndex must find exactly what the private
  // one-off index finds. The shared index carries truss shells and the
  // private one does not, so the shared search may only be smaller.
  Rng rng(0x1D0);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 4;
  Graph target = gen::WattsStrogatz(40, 4, 0.1, labels, rng);
  auto pattern = RandomConnectedSubgraph(target, 3, rng);
  ASSERT_TRUE(pattern.has_value());
  std::shared_ptr<const MatchIndex> shared = MatchIndex::Build(target);
  const PatternPlan plan(*pattern);
  SubgraphMatcher with_private(*pattern, target);
  SubgraphMatcher with_shared(plan, *shared);
  const uint64_t count = with_private.CountEmbeddings();
  EXPECT_GT(count, 0u);
  EXPECT_EQ(with_shared.CountEmbeddings(), count);
  EXPECT_LE(with_shared.steps(), with_private.steps());
}

// Checks the plan's order rows: each is a permutation starting at its seed,
// and every anchor names an earlier position holding a pattern neighbor.
// Returns how many positions after the seed have no anchor.
size_t CheckPlanOrders(const Graph& pattern) {
  const PatternPlan plan(pattern);
  const size_t n = pattern.NumVertices();
  size_t unanchored = 0;
  for (VertexId start = 0; start < n; ++start) {
    const VertexId* order = plan.Order(start);
    const int* anchors = plan.Anchors(start);
    EXPECT_EQ(order[0], start);
    EXPECT_EQ(anchors[0], -1);
    std::vector<VertexId> sorted(order, order + n);
    std::sort(sorted.begin(), sorted.end());
    for (VertexId v = 0; v < n; ++v) EXPECT_EQ(sorted[v], v);
    for (size_t i = 1; i < n; ++i) {
      if (anchors[i] < 0) {
        ++unanchored;
        continue;
      }
      EXPECT_LT(anchors[i], static_cast<int>(i));
      EXPECT_TRUE(pattern.HasEdge(order[i], order[anchors[i]]));
    }
  }
  return unanchored;
}

// Two copies of a database each replace id x with different content; an
// index built from one copy must rebuild for the other, not share the
// first copy's entry.
TEST(CollectionIndexTest, IndexBuiltFromOneCopyRebuildsForTheOther) {
  GraphDatabase a;
  const GraphId x = a.Add(builder::Path(3));
  GraphDatabase b = a;
  ASSERT_TRUE(a.Remove(x));
  ASSERT_TRUE(b.Remove(x));
  Graph triangle = builder::Triangle();
  triangle.set_id(x);
  a.Add(std::move(triangle));
  Graph path = builder::Path(5);
  path.set_id(x);
  b.Add(std::move(path));

  const CollectionIndex index_a(a, kNoTrussShells);
  const CollectionIndex index_b(index_a, b);
  const MatchIndex* from_a = index_a.Find(x);
  const MatchIndex* from_b = index_b.Find(x);
  ASSERT_NE(from_a, nullptr);
  ASSERT_NE(from_b, nullptr);
  EXPECT_EQ(index_a.builds() + index_b.builds(), 2u);
  EXPECT_EQ(from_a->csr.NumVertices(), 3u);
  EXPECT_EQ(from_b->csr.NumVertices(), 5u);
  PatternPlan triangle_plan(builder::Triangle(), kNoTrussShells);
  EXPECT_TRUE(SubgraphMatcher(triangle_plan, *from_a).Exists());
  EXPECT_FALSE(SubgraphMatcher(triangle_plan, *from_b).Exists());
}

// After a rewrite, a removal (which reorders graphs()) and an addition, the
// copy-on-write constructor shares the very same index of every unchanged
// id, builds the rewritten and the added ids, drops the removed one, and
// keeps the database's graphs() order.
TEST(CollectionIndexTest, CopyOnWriteSharesUnchangedIdsAndBuildsTheRest) {
  GraphDatabase db;
  for (size_t n = 2; n < 8; ++n) db.Add(builder::Path(n));
  const CollectionIndex before(db, kNoTrussShells);
  EXPECT_EQ(before.builds(), db.size());
  EXPECT_EQ(before.version(), db.Version());

  const GraphId rewritten = db.graphs()[1].id();
  const GraphId removed = db.graphs()[3].id();
  ASSERT_TRUE(db.Remove(rewritten));
  Graph triangle = builder::Triangle();
  triangle.set_id(rewritten);
  db.Add(std::move(triangle));
  ASSERT_TRUE(db.Remove(removed));
  const GraphId added = db.Add(builder::Star(3));

  const CollectionIndex after(before, db);
  EXPECT_EQ(after.builds(), 2u);  // the rewritten and the added id
  EXPECT_EQ(after.version(), db.Version());
  EXPECT_FALSE(after.options().use_truss);
  EXPECT_NE(before.Find(removed), nullptr);
  EXPECT_EQ(after.Find(removed), nullptr);
  ASSERT_EQ(after.size(), db.size());
  size_t shared = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    const Graph& g = db.graphs()[i];
    EXPECT_EQ(after.id(i), g.id());
    EXPECT_EQ(&after.at(i), after.Find(g.id()));
    EXPECT_EQ(after.at(i).csr.NumVertices(), g.NumVertices());
    EXPECT_EQ(after.at(i).csr.NumEdges(), g.NumEdges());
    if (g.id() == rewritten || g.id() == added) {
      EXPECT_NE(after.Find(g.id()), before.Find(g.id()));
    } else {
      EXPECT_EQ(after.Find(g.id()), before.Find(g.id()));
      ++shared;
    }
  }
  EXPECT_EQ(shared, after.size() - 2);
  PatternPlan triangle_plan(builder::Triangle(), kNoTrussShells);
  EXPECT_FALSE(SubgraphMatcher(triangle_plan, *before.Find(rewritten)).Exists());
  EXPECT_TRUE(SubgraphMatcher(triangle_plan, *after.Find(rewritten)).Exists());
}

TEST(PatternPlanTest, OrdersFromEverySeedAnchorAtEarlierNeighbors) {
  // A connected pattern is bound neighbor by neighbor from any seed, so only
  // the seed itself scans every target vertex.
  Rng rng(0xDE5);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 3;
  Graph source = gen::BarabasiAlbert(60, 2, labels, rng);
  for (size_t edges : {1, 4, 9}) {
    auto pattern = RandomConnectedSubgraph(source, edges, rng);
    ASSERT_TRUE(pattern.has_value());
    EXPECT_EQ(CheckPlanOrders(*pattern), 0u);
  }
  // Two disjoint edges: from each seed, the other component starts once.
  Graph two_edges;
  for (int i = 0; i < 4; ++i) two_edges.AddVertex(0);
  two_edges.AddEdge(0, 1);
  two_edges.AddEdge(2, 3);
  EXPECT_EQ(CheckPlanOrders(two_edges), 4u);
}

TEST(Vf2Test, EmptyPatternHasOneEmbeddingEverywhere) {
  // The empty mapping embeds the empty pattern in every target, the empty
  // one included. All four entry points, the one-off helpers, collection
  // coverage and the oracle agree on it.
  const Graph empty;
  for (const Graph& target : {Graph(), builder::Triangle()}) {
    SubgraphMatcher matcher(empty, target);
    EXPECT_TRUE(matcher.Exists());
    std::optional<Embedding> one = matcher.FindOne();
    ASSERT_TRUE(one.has_value());
    EXPECT_TRUE(one->empty());
    EXPECT_EQ(matcher.CountEmbeddings(), 1u);
    EXPECT_EQ(matcher.steps(), 1u);  // the search root
    std::vector<Embedding> delivered;
    EXPECT_EQ(matcher.Enumerate([&](const Embedding& e) {
      delivered.push_back(e);
      return true;
    }),
              1u);
    EXPECT_EQ(delivered, std::vector<Embedding>{Embedding{}});
    EXPECT_TRUE(ContainsSubgraph(target, empty));
    EXPECT_EQ(CountEmbeddings(target, empty, 0), 1u);
    EXPECT_EQ(naive::AllEmbeddings(empty, target, MatchOptions{}),
              std::vector<Embedding>{Embedding{}});
  }
  GraphDatabase db;
  db.Add(builder::Triangle());
  db.Add(builder::Path(3, /*vlabel=*/1));
  EXPECT_DOUBLE_EQ(DbCoverage(db, empty), 1.0);
}

// One Exists through a shared plan and index, so a test can read the step
// count and the census verdict beside the answer.
struct CensusProbe {
  bool found = false;
  uint64_t steps = 0;
  bool census_fits = false;  // ungated: vertex buckets, edge buckets too
};

CensusProbe ProbeExists(const Graph& pattern, const Graph& target,
                        const MatchOptions& options = {}) {
  const PatternPlan plan(pattern, kNoTrussShells);
  const MatchIndex index(target, kNoTrussShells);
  SubgraphMatcher matcher(plan, index, options);
  CensusProbe probe;
  probe.found = matcher.Exists();
  probe.steps = matcher.steps();
  probe.census_fits = plan.census.FitsIn(index.census, /*edge_labels=*/true);
  return probe;
}

TEST(LabelCensusTest, RulesOutMissingLabelsAndEdgeTypesAtZeroSteps) {
  // Both patterns are smaller than the target, but it has only one label-4
  // vertex and no bond-2 edge, so neither pair is searched at any budget.
  const Graph target =
      builder::FromLists({4, 5, 5, 5}, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}});
  const Graph two_fours = builder::FromLists({4, 5, 4}, {{0, 1, 1}, {1, 2, 1}});
  const Graph double_bond = builder::FromLists({4, 5}, {{0, 1, 2}});
  const MatchIndex index(target);
  for (const Graph* pattern : {&two_fours, &double_bond}) {
    const PatternPlan plan(*pattern);
    EXPECT_FALSE(plan.census.FitsIn(index.census, /*edge_labels=*/true));
    for (uint64_t budget : {0u, 1u, 1000u}) {
      MatchOptions options;
      options.max_steps = budget;
      SubgraphMatcher matcher(plan, index, options);
      EXPECT_FALSE(matcher.Exists());
      EXPECT_FALSE(matcher.FindOne().has_value());
      EXPECT_EQ(matcher.CountEmbeddings(), 0u);
      EXPECT_EQ(matcher.steps(), 0u);
      EXPECT_FALSE(matcher.hit_step_limit());
    }
  }
}

TEST(LabelCensusTest, SaturatedCountsNeverRejectAStar) {
  // 300 same-label leaves saturate the hub graph's counts at 255. A 3-leaf
  // star still fits, and so does a 260-leaf star, saturated on both sides.
  // Counts that wrapped instead (300 -> 44) would reject the 60-leaf star.
  const Graph hub = builder::Star(300, /*vlabel=*/7, /*elabel=*/1);
  for (size_t leaves : {3u, 60u, 260u}) {
    SCOPED_TRACE(leaves);
    CensusProbe probe = ProbeExists(builder::Star(leaves, 7, 1), hub);
    EXPECT_TRUE(probe.census_fits);
    EXPECT_TRUE(probe.found);
  }
}

TEST(LabelCensusTest, LabelsSharingABucketNeverCauseARejection) {
  // l and l + 64k fall in one bucket of any fold by 32 or 64. Each pattern
  // below is checked against the oracle over targets that mix such labels,
  // with small, large and kDummyLabel labels (compared exactly here).
  for (Label l : {Label{3}, Label{40}, Label{0xFFFFFF00u}}) {
    SCOPED_TRACE(l);
    const Graph target = builder::FromLists(
        {l, l + 64, l + 128, kDummyLabel, l},
        {{0, 1, 1}, {1, 2, 65}, {2, 3, 1}, {3, 4, kDummyLabel}});
    const std::vector<Graph> patterns = {
        builder::FromLists({l + 64, l + 128}, {{0, 1, 65}}),
        builder::FromLists({l, l + 64, l + 128}, {{0, 1, 1}, {1, 2, 65}}),
        builder::FromLists({l + 128, kDummyLabel, l},
                           {{0, 1, 1}, {1, 2, kDummyLabel}}),
        // Folded alike but absent: the census merges the labels, so only
        // the search can tell l + 64 from l + 128 here.
        builder::FromLists({l + 64, l + 64}, {}),
        builder::FromLists({l + 128, l + 128, l + 128}, {}),
    };
    for (const Graph& pattern : patterns) {
      const bool embeds =
          !naive::AllEmbeddings(pattern, target, MatchOptions{}).empty();
      CensusProbe probe = ProbeExists(pattern, target);
      EXPECT_EQ(probe.found, embeds);
      if (embeds) {
        EXPECT_TRUE(probe.census_fits);
      }
    }
    // The merged-but-absent pairs fit the census and are searched.
    EXPECT_GT(ProbeExists(patterns[3], target).steps, 0u);
  }
}

TEST(LabelCensusTest, GatedOffWhenLabelsAreNotMatchedExactly) {
  // Each pattern fails the census, so the default options rule it out at
  // 0 steps; under the option that stops matching those labels exactly, it
  // embeds.
  const Graph target = builder::FromLists({1, 2, 2}, {{0, 1, 5}, {1, 2, 5}});
  MatchOptions ignore_bonds;
  ignore_bonds.match_edge_labels = false;
  MatchOptions ignore_atoms;
  ignore_atoms.match_vertex_labels = false;
  MatchOptions wildcard;
  wildcard.dummy_is_wildcard = true;
  const std::vector<std::pair<Graph, MatchOptions>> cases = {
      {builder::FromLists({1, 2, 2}, {{0, 1, 6}, {1, 2, 6}}), ignore_bonds},
      {builder::Path(3, /*vlabel=*/9, /*elabel=*/5), ignore_atoms},
      {builder::Path(3, kDummyLabel, /*elabel=*/5), wildcard},
  };
  for (const auto& [pattern, options] : cases) {
    CensusProbe strict = ProbeExists(pattern, target);
    EXPECT_FALSE(strict.census_fits);
    EXPECT_FALSE(strict.found);
    EXPECT_EQ(strict.steps, 0u);
    CensusProbe gated = ProbeExists(pattern, target, options);
    EXPECT_TRUE(gated.found);
    EXPECT_GT(gated.steps, 0u);
    EXPECT_EQ(CountEmbeddings(target, pattern, 0, options),
              naive::AllEmbeddings(pattern, target, options).size());
  }
}

// `g` with vertex label i replaced by vertex_pool[i] and edge label i by
// edge_pool[i].
Graph Relabeled(const Graph& g, const std::vector<Label>& vertex_pool,
                const std::vector<Label>& edge_pool) {
  std::vector<Label> labels;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    labels.push_back(vertex_pool[g.VertexLabel(v)]);
  }
  std::vector<Edge> edges = g.Edges();
  for (Edge& e : edges) e.label = edge_pool[e.label];
  return builder::FromLists(labels, edges);
}

TEST(LabelCensusTest, AdmitsEveryPairTheOracleMatches) {
  // Random pairs over alphabets whose labels collide in the census buckets.
  // Half the patterns come from the target itself, half from a sibling
  // graph; every pair the oracle matches must fit the census.
  const std::vector<Label> vertex_pool = {0, 1, 32, 33, 64, 0xFFFFFFE0u,
                                          kDummyLabel};
  const std::vector<Label> edge_pool = {0, 64, 7, kDummyLabel};
  Rng rng(0xCE45);
  size_t matched_pairs = 0;
  for (int round = 0; round < 100; ++round) {
    gen::LabelConfig labels;
    labels.num_vertex_labels = 2 + round % 6;
    labels.num_edge_labels = 1 + round % 4;
    const Graph target = Relabeled(
        gen::ErdosRenyi(14 + round % 8, 0.2, labels, rng), vertex_pool,
        edge_pool);
    const Graph sibling = Relabeled(gen::ErdosRenyi(12, 0.25, labels, rng),
                                    vertex_pool, edge_pool);
    const MatchIndex index(target, kNoTrussShells);
    for (const Graph* source : {&target, &target, &sibling, &sibling}) {
      std::optional<Graph> pattern =
          RandomConnectedSubgraph(*source, 1 + rng.UniformInt(4), rng);
      if (!pattern.has_value()) continue;
      if (naive::AllEmbeddings(*pattern, target, MatchOptions{}).empty()) {
        continue;
      }
      ++matched_pairs;
      const PatternPlan plan(*pattern, kNoTrussShells);
      EXPECT_TRUE(plan.census.FitsIn(index.census, /*edge_labels=*/true));
      EXPECT_TRUE(SubgraphMatcher(plan, index).Exists());
    }
  }
  EXPECT_GE(matched_pairs, 200u);
}

// --- Pinned matcher behaviour ----------------------------------------------
// The figures below were read off the engine before the admission column,
// the per-class seed probe and the anchor-edge shortcut landed, which must
// not move a step, an embedding or a budget verdict.

// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xFFu;
      hash_ *= 0x100000001B3ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

// Per-corpus totals and a digest of every pair's runs.
struct CorpusTally {
  size_t pairs = 0;
  uint64_t steps = 0;
  uint64_t embeddings = 0;
  uint64_t limit_hits = 0;
  Digest digest;
};

constexpr uint64_t kPinnedBudgets[] = {0, 1, 7, 64};

// Runs one pair under every pinned budget and folds into `tally` each run's
// steps, embedding count, hit_step_limit and first embedding (Enumerate),
// and each Exists run's answer, steps and hit_step_limit.
void TallyPair(const PatternPlan& plan, const MatchIndex& index,
               MatchOptions options, CorpusTally* tally) {
  ++tally->pairs;
  for (uint64_t budget : kPinnedBudgets) {
    options.max_steps = budget;
    SubgraphMatcher matcher(plan, index, options);
    Embedding first;
    const uint64_t count = matcher.Enumerate([&first](const Embedding& e) {
      if (first.empty()) first = e;
      return true;
    });
    tally->steps += matcher.steps();
    tally->embeddings += count;
    tally->limit_hits += matcher.hit_step_limit() ? 1 : 0;
    tally->digest.Add(matcher.steps());
    tally->digest.Add(count);
    tally->digest.Add(matcher.hit_step_limit());
    tally->digest.Add(first.size());
    for (VertexId v : first) tally->digest.Add(v);
    const bool found = matcher.Exists();
    tally->steps += matcher.steps();
    tally->digest.Add(found);
    tally->digest.Add(matcher.steps());
    tally->digest.Add(matcher.hit_step_limit());
  }
}

TEST(MatcherPinTest, MoleculePatternsAgainstMolecules) {
  // Serving-style: the targets carry truss shells, as the view's do.
  const GraphDatabase molecules = gen::MoleculeDatabase(70, {}, 0x30E1);
  Rng rng(0x30E2);
  std::vector<Graph> patterns;
  for (size_t i = 40; i < molecules.size(); ++i) {
    std::optional<Graph> pattern = RandomConnectedSubgraph(
        molecules.graphs()[i], 2 + rng.UniformInt(8), rng);
    if (pattern.has_value()) patterns.push_back(std::move(*pattern));
  }
  MatchOptions options;
  options.max_embeddings = 1000;
  CorpusTally tally;
  for (const Graph& pattern : patterns) {
    const PatternPlan plan(pattern);
    for (size_t g = 0; g < 40; ++g) {
      TallyPair(plan, MatchIndex(molecules.graphs()[g]), options, &tally);
    }
  }
  EXPECT_EQ(tally.pairs, 1120u);
  EXPECT_EQ(tally.steps, 78527u);
  EXPECT_EQ(tally.embeddings, 5126u);
  EXPECT_EQ(tally.limit_hits, 982u);
  EXPECT_EQ(tally.digest.value(), 14395642791489853495ull);
}

TEST(MatcherPinTest, ErdosRenyiPairsWithOneToThreeLabels) {
  // Offline-style targets without shells, with induced and
  // edge-label-insensitive runs mixed in.
  Rng rng(0xE12);
  MatchOptions induced;
  induced.induced = true;
  MatchOptions ignore_bonds;
  ignore_bonds.match_edge_labels = false;
  const MatchOptions variants[] = {MatchOptions{}, induced, ignore_bonds};
  CorpusTally tally;
  for (int round = 0; round < 90; ++round) {
    gen::LabelConfig labels;
    labels.num_vertex_labels = 1 + round % 3;
    labels.num_edge_labels = 1 + round % 2;
    const Graph target = gen::ErdosRenyi(16 + round % 9, 0.22, labels, rng);
    const Graph sibling = gen::ErdosRenyi(14, 0.25, labels, rng);
    const MatchIndex index(target, kNoTrussShells);
    for (const Graph* source : {&target, &sibling}) {
      std::optional<Graph> pattern =
          RandomConnectedSubgraph(*source, 2 + rng.UniformInt(5), rng);
      if (!pattern.has_value()) continue;
      MatchOptions options = variants[round % 3];
      options.max_embeddings = 1000;
      TallyPair(PatternPlan(*pattern, kNoTrussShells), index, options,
                &tally);
    }
  }
  EXPECT_EQ(tally.pairs, 180u);
  EXPECT_EQ(tally.steps, 160718u);
  EXPECT_EQ(tally.embeddings, 35252u);
  EXPECT_EQ(tally.limit_hits, 481u);
  EXPECT_EQ(tally.digest.value(), 12187960258287489272ull);
}

TEST(MatcherPinTest, NetworkPatternsUnderTattooCoverageOptions) {
  // TATTOO's budgeted coverage: a labelled BA network with truss shells on
  // both sides, capped at its embedding budget.
  Rng rng(0xBA7);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 4;
  const Graph network = gen::BarabasiAlbert(400, 3, labels, rng);
  const MatchIndex index(network);
  const NetworkCoverageOptions coverage;
  MatchOptions options;
  options.match_vertex_labels = coverage.match_vertex_labels;
  options.max_embeddings = coverage.max_embeddings;
  CorpusTally tally;
  for (int draw = 0; draw < 40; ++draw) {
    std::optional<Graph> pattern =
        RandomConnectedSubgraph(network, 3 + rng.UniformInt(6), rng);
    if (!pattern.has_value()) continue;
    TallyPair(PatternPlan(*pattern), index, options, &tally);
  }
  EXPECT_EQ(tally.pairs, 40u);
  EXPECT_EQ(tally.steps, 29946u);
  EXPECT_EQ(tally.embeddings, 11114u);
  EXPECT_EQ(tally.limit_hits, 120u);
  EXPECT_EQ(tally.digest.value(), 13646799202662274612ull);
}

TEST(MatcherPinTest, PairWhoseSeedClassHasNoTargetVertexStopsAtTheRoot) {
  // Each pattern fits the target's size and census, but its rarest vertex
  // class has no target vertex: a 3-leaf star in a 6-cycle (no vertex of
  // degree 3), and a 1-2-1 path in a target whose label-2 vertices have
  // degree 1. The search ends at its root, at every budget.
  const Graph cycle = builder::Cycle(6);
  const Graph labelled = builder::FromLists(
      {1, 2, 1, 1, 2}, {{0, 1, 0}, {2, 3, 0}, {3, 4, 0}, {0, 2, 0}});
  const std::vector<std::pair<Graph, const Graph*>> pairs = {
      {builder::Star(3), &cycle},
      {builder::FromLists({2, 1, 1}, {{0, 1, 0}, {0, 2, 0}}), &labelled},
  };
  for (const auto& [pattern, target] : pairs) {
    const PatternPlan plan(pattern);
    const MatchIndex index(*target);
    ASSERT_TRUE(plan.census.FitsIn(index.census, /*edge_labels=*/true));
    EXPECT_TRUE(naive::AllEmbeddings(pattern, *target, MatchOptions{}).empty());
    for (uint64_t budget : {0u, 1u}) {
      MatchOptions options;
      options.max_steps = budget;
      SubgraphMatcher matcher(plan, index, options);
      EXPECT_FALSE(matcher.Exists());
      EXPECT_EQ(matcher.steps(), 1u);
      EXPECT_FALSE(matcher.hit_step_limit());
      EXPECT_EQ(matcher.CountEmbeddings(), 0u);
      EXPECT_EQ(matcher.steps(), 1u);
      EXPECT_FALSE(matcher.hit_step_limit());
      EXPECT_FALSE(matcher.FindOne().has_value());
      EXPECT_EQ(matcher.steps(), 1u);
    }
  }
}

// CoverageBits over `index` against the oracle, for every graph of `db`.
void ExpectCoverageEqualsOracle(const CollectionIndex& index,
                                const GraphDatabase& db,
                                const std::vector<Graph>& patterns) {
  ASSERT_EQ(index.size(), db.size());
  for (size_t p = 0; p < patterns.size(); ++p) {
    const Bitset bits = CoverageBits(index, patterns[p]);
    for (size_t g = 0; g < db.size(); ++g) {
      const bool embeds =
          !naive::AllEmbeddings(patterns[p], db.graphs()[g], {}).empty();
      EXPECT_EQ(bits.Test(g), embeds) << "pattern " << p << " graph " << g;
    }
  }
}

TEST(CollectionIndexTest, CoverageFollowsRemoveAddAndCopyOnWrite) {
  // Remove reorders graphs(), so an admission column out of step with the
  // entries would test one graph's census against another's search.
  GraphDatabase molecules = gen::MoleculeDatabase(60, {}, 0xC0A7);
  GraphDatabase db;
  for (size_t i = 0; i < 30; ++i) db.Add(molecules.graphs()[i]);
  Rng rng(0xC0A8);
  std::vector<Graph> patterns;
  for (size_t i = 30; i < molecules.size(); ++i) {
    std::optional<Graph> pattern = RandomConnectedSubgraph(
        molecules.graphs()[i], 1 + rng.UniformInt(5), rng);
    if (pattern.has_value()) patterns.push_back(std::move(*pattern));
  }
  for (const CandidateIndexOptions& options :
       {kNoTrussShells, CandidateIndexOptions{}}) {
    GraphDatabase edited = db;
    const CollectionIndex before(edited, options);
    ExpectCoverageEqualsOracle(before, edited, patterns);
    ASSERT_TRUE(edited.Remove(edited.graphs()[2].id()));
    ASSERT_TRUE(edited.Remove(edited.graphs()[11].id()));
    const GraphId rewritten = edited.graphs()[5].id();
    ASSERT_TRUE(edited.Remove(rewritten));
    Graph replacement = molecules.graphs()[45];
    replacement.set_id(rewritten);
    edited.Add(std::move(replacement));
    edited.Add(molecules.graphs()[50]);
    edited.Add(builder::Star(5));
    const CollectionIndex after(before, edited);
    EXPECT_EQ(after.builds(), 3u);
    ExpectCoverageEqualsOracle(after, edited, patterns);
    ExpectCoverageEqualsOracle(CollectionIndex(edited, options), edited,
                               patterns);
  }
}

}  // namespace
}  // namespace vqi
