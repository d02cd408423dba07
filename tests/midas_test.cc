#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "graph/generators.h"
#include "match/pattern_utils.h"
#include "metrics/coverage.h"
#include "midas/drift.h"
#include "midas/midas.h"
#include "midas/swap_selector.h"
#include "metrics/diversity.h"
#include "vqi/builder.h"
#include "vqi/maintainer.h"

namespace vqi {
namespace {

TEST(DriftTest, ClassifiesByThreshold) {
  GraphletDistribution a, b;
  a.freq[kG3Triangle] = 1.0;
  b.freq[kG3Path] = 1.0;
  DriftResult big = ClassifyDrift(a, b, 0.1);
  EXPECT_EQ(big.type, ModificationType::kMajor);
  EXPECT_GT(big.distance, 1.0);
  DriftResult none = ClassifyDrift(a, a, 0.1);
  EXPECT_EQ(none.type, ModificationType::kMinor);
  EXPECT_NEAR(none.distance, 0.0, 1e-12);
  EXPECT_STREQ(ModificationTypeName(big.type), "major");
  EXPECT_STREQ(ModificationTypeName(none.type), "minor");
}

ScoredCandidate Cand(size_t universe, std::vector<size_t> bits, double load,
                     double feature_x) {
  ScoredCandidate c;
  c.coverage = Bitset(universe);
  for (size_t b : bits) c.coverage.Set(b);
  c.feature = {feature_x, 1.0 - feature_x, 0.2};
  c.load = load;
  return c;
}

TEST(SwapSelectorTest, ScoreNeverDecreases) {
  size_t universe = 16;
  std::vector<ScoredCandidate> current = {
      Cand(universe, {0, 1}, 0.5, 0.1),
      Cand(universe, {2}, 0.6, 0.15),
  };
  std::vector<ScoredCandidate> candidates = {
      Cand(universe, {0, 1, 2, 3, 4, 5}, 0.3, 0.9),
      Cand(universe, {6, 7, 8}, 0.2, 0.5),
  };
  SwapConfig config;
  SwapReport report = MultiScanSwap(current, candidates, universe, config);
  EXPECT_GE(report.score_after, report.score_before);
  EXPECT_GT(report.swaps_applied, 0u);
}

TEST(SwapSelectorTest, CoverageNeverShrinks) {
  size_t universe = 12;
  std::vector<ScoredCandidate> current = {
      Cand(universe, {0, 1, 2, 3}, 0.4, 0.2),
      Cand(universe, {4, 5}, 0.4, 0.8),
  };
  Bitset before(universe);
  for (const auto& c : current) before.UnionWith(c.coverage);
  std::vector<ScoredCandidate> candidates = {
      Cand(universe, {0, 1}, 0.1, 0.5),   // smaller coverage, lower load
      Cand(universe, {4, 5, 6}, 0.3, 0.6),
  };
  SwapConfig config;
  MultiScanSwap(current, candidates, universe, config);
  Bitset after(universe);
  for (const auto& c : current) after.UnionWith(c.coverage);
  EXPECT_GE(after.Count(), before.Count());
}

TEST(SwapSelectorTest, UselessCandidatesPruned) {
  size_t universe = 10;
  std::vector<ScoredCandidate> current = {
      Cand(universe, {0, 1, 2, 3, 4}, 0.4, 0.2),
      Cand(universe, {5, 6, 7}, 0.4, 0.7),
  };
  // Candidate covers nothing new and less than any unique contribution.
  std::vector<ScoredCandidate> candidates = {
      Cand(universe, {0}, 0.1, 0.4),
  };
  SwapConfig config;
  SwapReport report = MultiScanSwap(current, candidates, universe, config);
  EXPECT_EQ(report.swaps_applied, 0u);
  EXPECT_EQ(report.candidates_pruned, 1u);
}

TEST(SwapSelectorTest, EmptyInputsSafe) {
  std::vector<ScoredCandidate> current;
  SwapConfig config;
  SwapReport report = MultiScanSwap(current, {}, 10, config);
  EXPECT_EQ(report.swaps_applied, 0u);
}

class MidasTest : public testing::Test {
 protected:
  MidasConfig Config() {
    MidasConfig config;
    config.base.budget = 5;
    config.base.num_clusters = 4;
    config.base.tree_config.min_support = 5;
    config.base.tree_config.max_edges = 2;
    config.base.walks_per_csg = 16;
    config.base.seed = 21;
    config.drift_threshold = 0.01;
    return config;
  }
};

TEST_F(MidasTest, InitializeUsesClosedTrees) {
  GraphDatabase db = gen::MoleculeDatabase(60, gen::MoleculeConfig{}, 22);
  auto state = InitializeMidas(db, Config());
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_TRUE(state->catapult.config.use_closed_trees);
  EXPECT_FALSE(state->patterns().empty());
}

TEST_F(MidasTest, MinorUpdateKeepsPatterns) {
  GraphDatabase db = gen::MoleculeDatabase(80, gen::MoleculeConfig{}, 23);
  MidasConfig config = Config();
  config.drift_threshold = 10.0;  // force every batch to classify as minor
  auto state = InitializeMidas(db, config);
  ASSERT_TRUE(state.ok());
  std::vector<Graph> before = state->patterns();

  BatchUpdate update;
  Rng rng(24);
  for (int i = 0; i < 4; ++i) {
    update.additions.push_back(gen::Molecule(gen::MoleculeConfig{}, rng));
  }
  update.deletions = {0, 1};
  auto report = ApplyBatchAndMaintain(*state, db, std::move(update), config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->drift.type, ModificationType::kMinor);
  EXPECT_FALSE(report->patterns_updated);
  ASSERT_EQ(state->patterns().size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(state->patterns()[i].IdenticalTo(before[i]));
  }
  EXPECT_EQ(db.size(), 80u - 2 + 4);
}

TEST_F(MidasTest, MajorUpdateMaintainsQuality) {
  GraphDatabase db = gen::MoleculeDatabase(60, gen::MoleculeConfig{}, 25);
  MidasConfig config = Config();
  config.drift_threshold = 0.0;  // force major
  auto state = InitializeMidas(db, config);
  ASSERT_TRUE(state.ok());

  // A structurally different batch: dense ER graphs instead of molecules.
  BatchUpdate update;
  Rng rng(26);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 4;
  for (int i = 0; i < 12; ++i) {
    update.additions.push_back(gen::ErdosRenyi(12, 0.4, labels, rng));
  }
  for (GraphId id = 0; id < 10; ++id) update.deletions.push_back(id);

  auto report = ApplyBatchAndMaintain(*state, db, std::move(update), config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->drift.type, ModificationType::kMajor);
  // The maintenance guarantee: score on the updated DB is >= before.
  EXPECT_GE(report->score_after, report->score_before - 1e-9);
  EXPECT_GE(report->coverage_after, 0.0);
  EXPECT_GT(report->clusters_touched, 0u);
}

TEST_F(MidasTest, ClusterBookkeepingStaysConsistent) {
  GraphDatabase db = gen::MoleculeDatabase(50, gen::MoleculeConfig{}, 27);
  MidasConfig config = Config();
  auto state = InitializeMidas(db, config);
  ASSERT_TRUE(state.ok());

  BatchUpdate update;
  Rng rng(28);
  for (int i = 0; i < 6; ++i) {
    update.additions.push_back(gen::Molecule(gen::MoleculeConfig{}, rng));
  }
  update.deletions = {3, 4, 5};
  auto report = ApplyBatchAndMaintain(*state, db, std::move(update), config);
  ASSERT_TRUE(report.ok());

  // Every cluster member id exists in the db; every db graph belongs to
  // exactly one cluster.
  size_t total = 0;
  for (const auto& members : state->catapult.cluster_members) {
    for (GraphId id : members) {
      EXPECT_TRUE(db.Contains(id));
    }
    total += members.size();
  }
  EXPECT_EQ(total, db.size());
}

TEST_F(MidasTest, UninitializedStateRejected) {
  MidasState state;
  GraphDatabase db = gen::MoleculeDatabase(5, gen::MoleculeConfig{}, 1);
  auto report = ApplyBatchAndMaintain(state, db, BatchUpdate{}, Config());
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

// Batch `b` of the differential sequence. Every fourth batch swaps 15% of
// the collection for dense random graphs, which drifts the graphlet
// distribution; the others swap 5% for molecules. Batch 3 also deletes one
// id and re-adds it, in the same batch, with a different graph.
BatchUpdate SequenceBatch(const GraphDatabase& db, size_t b, Rng& rng) {
  const bool drifting = b % 4 == 1;
  const size_t count = db.size() * (drifting ? 15 : 5) / 100;
  BatchUpdate update;
  std::vector<GraphId> ids = db.Ids();
  rng.Shuffle(ids);
  ids.resize(count);
  update.deletions = ids;
  gen::LabelConfig labels;
  labels.num_vertex_labels = 4;
  for (size_t i = 0; i < count; ++i) {
    update.additions.push_back(drifting
                                   ? gen::ErdosRenyi(12, 0.4, labels, rng)
                                   : gen::Molecule(gen::MoleculeConfig{}, rng));
  }
  if (b == 3) {
    Graph replacement = gen::ErdosRenyi(10, 0.3, labels, rng);
    replacement.set_id(ids.front());
    update.additions.push_back(std::move(replacement));
  }
  return update;
}

// Out-of-band edit between batches: id `id` gets different content.
void EditOutOfBand(GraphDatabase& db, GraphId id, Rng& rng) {
  ASSERT_TRUE(db.Remove(id));
  gen::LabelConfig labels;
  labels.num_vertex_labels = 3;
  Graph replacement = gen::ErdosRenyi(9, 0.45, labels, rng);
  replacement.set_id(id);
  db.Add(std::move(replacement));
}

// Asserts that a batch's report equals what library calls that never read
// the MIDAS records compute from scratch: `gfd_before` is the database's
// graphlet distribution after the previous batch, `patterns_before` the
// pattern set the batch started from.
void ExpectMatchesFromScratch(const GraphDatabase& db,
                              const GraphletDistribution& gfd_before,
                              const std::vector<Graph>& patterns_before,
                              const std::vector<Graph>& patterns_after,
                              const CatapultConfig& config,
                              const MaintenanceReport& report) {
  EXPECT_EQ(report.drift.distance,
            gfd_before.DistanceTo(GraphletsOfDatabase(db)));
  PatternSetEvaluator before(db.size(), config.weights);
  for (const ScoredCandidate& c :
       ScoreCandidates(db, patterns_before, config.load_model)) {
    before.Add(c);
  }
  EXPECT_EQ(report.score_before, before.CurrentScore());
  EXPECT_EQ(report.coverage_before, before.coverage_fraction());
  PatternSetEvaluator after(db.size(), config.weights);
  for (const ScoredCandidate& c :
       ScoreCandidates(db, patterns_after, config.load_model)) {
    after.Add(c);
  }
  EXPECT_EQ(report.score_after, after.CurrentScore());
  EXPECT_EQ(report.coverage_after, after.coverage_fraction());
  ASSERT_EQ(report.pattern_coverages.size(), patterns_after.size());
  for (size_t j = 0; j < patterns_after.size(); ++j) {
    EXPECT_EQ(report.pattern_coverages[j], DbCoverage(db, patterns_after[j]))
        << "pattern " << j;
  }
}

TEST_F(MidasTest, IncrementalBatchesMatchFromScratchRecomputation) {
  GraphDatabase db = gen::MoleculeDatabase(60, gen::MoleculeConfig{}, 31);
  MidasConfig config = Config();
  auto state = InitializeMidas(db, config);
  ASSERT_TRUE(state.ok());
  Rng rng(32);
  GraphletDistribution gfd = GraphletsOfDatabase(db);
  size_t minor = 0, major = 0, swapped = 0;
  for (size_t b = 0; b < 14; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    if (b == 6) EditOutOfBand(db, db.Ids()[7], rng);
    if (b == 8) {
      // A direct edit of the pattern set: one pattern replaced, one dropped.
      std::vector<Graph>& patterns = state->catapult.patterns;
      ASSERT_GE(patterns.size(), 2u);
      auto sample = RandomConnectedSubgraph(db.graphs()[3], 4, rng);
      ASSERT_TRUE(sample.has_value());
      patterns.front() = std::move(*sample);
      patterns.pop_back();
    }
    const std::vector<Graph> patterns_before = state->patterns();
    auto report = ApplyBatchAndMaintain(*state, db, SequenceBatch(db, b, rng),
                                        config);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ExpectMatchesFromScratch(db, gfd, patterns_before, state->patterns(),
                             state->catapult.config, *report);
    gfd = GraphletsOfDatabase(db);
    ++(report->drift.type == ModificationType::kMajor ? major : minor);
    swapped += report->patterns_updated;
  }
  EXPECT_GT(minor, 0u);
  EXPECT_GT(major, 0u);
  EXPECT_GT(swapped, 0u);
}

TEST_F(MidasTest, MaintainedPanelCoveragesMatchFromScratch) {
  GraphDatabase db = gen::MoleculeDatabase(60, gen::MoleculeConfig{}, 33);
  MidasConfig config = Config();
  config.base.use_closed_trees = true;
  auto built = BuildVqiForDatabase(db, config.base);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  VisualQueryInterface vqi = std::move(built->vqi);
  VqiMaintainer maintainer(std::move(built->catapult_state), config);
  Rng rng(34);
  GraphletDistribution gfd = GraphletsOfDatabase(db);
  for (size_t b = 0; b < 12; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    if (b == 6) EditOutOfBand(db, db.Ids()[11], rng);
    const std::vector<Graph> patterns_before = maintainer.state().patterns();
    auto report = maintainer.ApplyBatch(vqi, db, SequenceBatch(db, b, rng));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const std::vector<Graph>& patterns = maintainer.state().patterns();
    ExpectMatchesFromScratch(db, gfd, patterns_before, patterns,
                             maintainer.state().catapult.config, *report);
    gfd = GraphletsOfDatabase(db);
    std::vector<double> panel;
    for (const PatternEntry& e : vqi.pattern_panel().entries()) {
      if (!e.is_basic) panel.push_back(e.coverage);
    }
    ASSERT_EQ(panel.size(), patterns.size());
    for (size_t j = 0; j < patterns.size(); ++j) {
      EXPECT_EQ(panel[j], DbCoverage(db, patterns[j])) << "pattern " << j;
    }
  }
}

TEST_F(MidasTest, RescansOnlyTheGraphsWhoseContentChanged) {
  GraphDatabase db = gen::MoleculeDatabase(50, gen::MoleculeConfig{}, 35);
  MidasConfig config = Config();
  auto state = InitializeMidas(db, config);
  ASSERT_TRUE(state.ok());
  Rng rng(36);

  BatchUpdate update;
  for (int i = 0; i < 6; ++i) {
    update.additions.push_back(gen::Molecule(gen::MoleculeConfig{}, rng));
  }
  update.deletions = {3, 4, 5};
  auto report = ApplyBatchAndMaintain(*state, db, std::move(update), config);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->graphs_rescanned, 6u);

  report = ApplyBatchAndMaintain(*state, db, BatchUpdate{}, config);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->graphs_rescanned, 0u);

  EditOutOfBand(db, 10, rng);
  EditOutOfBand(db, 11, rng);
  BatchUpdate next;
  for (int i = 0; i < 4; ++i) {
    next.additions.push_back(gen::Molecule(gen::MoleculeConfig{}, rng));
  }
  next.deletions = {20};
  report = ApplyBatchAndMaintain(*state, db, std::move(next), config);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->graphs_rescanned, 4u + 2u);
}

TEST_F(MidasTest, MaintenanceFasterThanRerunOnMinorBatch) {
  GraphDatabase db = gen::MoleculeDatabase(100, gen::MoleculeConfig{}, 29);
  MidasConfig config = Config();
  config.drift_threshold = 10.0;  // minor path
  auto state = InitializeMidas(db, config);
  ASSERT_TRUE(state.ok());

  BatchUpdate update;
  Rng rng(30);
  for (int i = 0; i < 2; ++i) {
    update.additions.push_back(gen::Molecule(gen::MoleculeConfig{}, rng));
  }
  Stopwatch maintain_watch;
  auto report = ApplyBatchAndMaintain(*state, db, std::move(update), config);
  double maintain_seconds = maintain_watch.ElapsedSeconds();
  ASSERT_TRUE(report.ok());

  Stopwatch rerun_watch;
  auto rerun = RunCatapult(db, state->catapult.config);
  double rerun_seconds = rerun_watch.ElapsedSeconds();
  ASSERT_TRUE(rerun.ok());
  // The headline MIDAS claim, on the minor path: maintenance beats rerun.
  EXPECT_LT(maintain_seconds, rerun_seconds);
}

}  // namespace
}  // namespace vqi
