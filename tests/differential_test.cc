// Differential harness for the matcher: on every seeded (pattern, target)
// pair, the engine's answers are checked against tests/naive_matcher.h, an
// independent backtracker over the public Graph API that shares no code with
// src/match/. Every pair runs through both index kinds the engine sees in
// production — a shared MatchIndex with truss shells (serving, coverage
// loops) and the private truss-free index of the one-off form — and pins:
//
//  1. Identical embedding sets to the oracle (sorted), on unbudgeted runs.
//  2. One embedding sequence: both index kinds deliver the same embeddings
//     in the same order, and truss shells only prune (shared steps <=
//     private steps).
//  3. The step-budget contract: for B in {steps/2, steps-1, steps}, a run
//     budgeted at B delivers exactly the first k embeddings of the
//     unbudgeted run, in order, and hit_step_limit() holds iff steps > B.
//
//  4. Census admission: a pair whose labels cannot fit (the engine's label
//     census, under exact label matching) is answered with no embedding at
//     0 steps, without hitting any budget.
//
// Pairs are drawn from the BA / WS / molecule generators at mixed label
// alphabet sizes, with induced and edge-label-insensitive variants mixed in,
// plus wildcard-dummy variants. Cross pairs match patterns of one graph
// against another of a different alphabet, so many have no embedding and
// the census rules them out. Everything is seeded — failures reproduce
// deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_database.h"
#include "match/candidate_index.h"
#include "match/pattern_utils.h"
#include "match/vf2.h"
#include "metrics/coverage.h"
#include "naive_matcher.h"

namespace vqi {
namespace {

// Full-run safety budget: pairs whose enumeration exceeds this are skipped
// (tallied below; the seeds keep this rare).
constexpr uint64_t kStepBudget = 300000;
// Embedding sequences are recorded up to this length; longer answers are
// compared by count beyond it.
constexpr size_t kSetCap = 30000;

struct TestPair {
  std::string name;
  Graph pattern;
  Graph target;
  MatchOptions options;  // budget fields overridden per run below
};

// The two index kinds a search can run over.
enum class IndexKind { kShared, kPrivate };

struct RunResult {
  uint64_t count = 0;
  uint64_t steps = 0;
  bool hit_limit = false;
  std::vector<Embedding> embeddings;  // delivery order, first kSetCap
};

RunResult RunEngine(const TestPair& pair, IndexKind kind, uint64_t max_steps) {
  MatchOptions options = pair.options;
  options.max_steps = max_steps;
  options.max_embeddings = 0;
  RunResult run;
  auto record = [&run](const Embedding& e) {
    if (run.embeddings.size() < kSetCap) run.embeddings.push_back(e);
    return true;
  };
  if (kind == IndexKind::kShared) {
    const PatternPlan plan(pair.pattern);
    const MatchIndex index(pair.target);
    SubgraphMatcher matcher(plan, index, options);
    run.count = matcher.Enumerate(record);
    run.steps = matcher.steps();
    run.hit_limit = matcher.hit_step_limit();
  } else {
    SubgraphMatcher matcher(pair.pattern, pair.target, options);
    run.count = matcher.Enumerate(record);
    run.steps = matcher.steps();
    run.hit_limit = matcher.hit_step_limit();
  }
  return run;
}

std::vector<Embedding> Sorted(std::vector<Embedding> embeddings) {
  std::sort(embeddings.begin(), embeddings.end());
  return embeddings;
}

// Contracts 1 and 2 for one pair. Returns false when the pair is too
// expensive to enumerate fully at kStepBudget.
bool CheckAgainstOracle(const TestPair& pair) {
  RunResult shared = RunEngine(pair, IndexKind::kShared, kStepBudget);
  RunResult owned = RunEngine(pair, IndexKind::kPrivate, kStepBudget);
  if (shared.hit_limit || owned.hit_limit) return false;
  EXPECT_LE(shared.steps, owned.steps);
  EXPECT_EQ(shared.count, owned.count);
  EXPECT_EQ(shared.embeddings, owned.embeddings);
  std::vector<Embedding> expected =
      naive::AllEmbeddings(pair.pattern, pair.target, pair.options);
  EXPECT_EQ(shared.count, expected.size());
  if (expected.size() <= kSetCap) {
    EXPECT_EQ(Sorted(shared.embeddings), expected);
  }
  return true;
}

std::vector<TestPair> MakePairs() {
  std::vector<TestPair> pairs;
  Rng rng(0xD1FFE7E57ull);

  auto add_patterns = [&](const Graph& target, const std::string& base,
                          size_t count, size_t min_edges, size_t max_edges) {
    for (size_t i = 0; i < count; ++i) {
      size_t edges = min_edges + rng.UniformInt(max_edges - min_edges + 1);
      std::optional<Graph> pattern;
      for (int attempt = 0; attempt < 5 && !pattern.has_value(); ++attempt) {
        pattern = RandomConnectedSubgraph(target, edges, rng);
      }
      if (!pattern.has_value()) continue;
      TestPair pair;
      pair.name = base + "/p" + std::to_string(i);
      pair.pattern = std::move(*pattern);
      pair.target = target;
      // Mix matching semantics across the corpus: every 5th pair induced,
      // every 7th ignoring edge labels.
      pair.options.induced = pairs.size() % 5 == 4;
      pair.options.match_edge_labels = pairs.size() % 7 != 6;
      pairs.push_back(std::move(pair));
    }
  };

  // BA and WS targets in generation order; consecutive ones differ in
  // alphabet size, which the cross pairs below rely on.
  std::vector<std::pair<std::string, Graph>> networks;

  // Barabási–Albert: heavy-tailed degrees, mixed label alphabets.
  for (size_t n : {40u, 90u, 150u}) {
    for (size_t m : {2u, 3u}) {
      for (size_t num_labels : {2u, 5u, 9u}) {
        gen::LabelConfig labels;
        labels.num_vertex_labels = num_labels;
        labels.num_edge_labels = num_labels >= 5 ? 3 : 1;
        Graph target = gen::BarabasiAlbert(n, m, labels, rng);
        std::string name = "ba/n" + std::to_string(n) + "m" +
                           std::to_string(m) + "l" +
                           std::to_string(num_labels);
        add_patterns(target, name, 6, 2, 6);
        networks.emplace_back(std::move(name), std::move(target));
      }
    }
  }

  // Watts–Strogatz: high clustering (exercises the truss filter).
  for (size_t n : {40u, 120u}) {
    for (size_t k : {4u, 6u}) {
      for (size_t num_labels : {3u, 8u}) {
        gen::LabelConfig labels;
        labels.num_vertex_labels = num_labels;
        labels.num_edge_labels = 2;
        Graph target = gen::WattsStrogatz(n, k, 0.1, labels, rng);
        std::string name = "ws/n" + std::to_string(n) + "k" +
                           std::to_string(k) + "l" +
                           std::to_string(num_labels);
        add_patterns(target, name, 6, 2, 6);
        networks.emplace_back(std::move(name), std::move(target));
      }
    }
  }

  // Molecules: skewed atom/bond alphabets; half the patterns come from a
  // *different* molecule, so empty and near-empty result sets are covered.
  GraphDatabase molecules = gen::MoleculeDatabase(24, {}, 0xBEEF);
  const std::vector<Graph>& mols = molecules.graphs();
  for (size_t i = 0; i < mols.size(); ++i) {
    add_patterns(mols[i], "mol/self" + std::to_string(i), 1, 2, 5);
    const Graph& other = mols[(i + 7) % mols.size()];
    std::optional<Graph> cross;
    for (int attempt = 0; attempt < 5 && !cross.has_value(); ++attempt) {
      cross = RandomConnectedSubgraph(other, 2 + rng.UniformInt(4), rng);
    }
    if (cross.has_value()) {
      TestPair pair;
      pair.name = "mol/cross" + std::to_string(i);
      pair.pattern = std::move(*cross);
      pair.target = mols[i];
      pairs.push_back(std::move(pair));
    }
  }

  // Network cross pairs: a pattern of each target against the next target
  // and one against the previous, whose alphabets differ, cycling through
  // default, induced, edge-label-insensitive and wildcard-dummy semantics.
  for (size_t i = 0; i < networks.size(); ++i) {
    const auto& [source_name, source] = networks[i];
    for (size_t draw = 0; draw < 2; ++draw) {
      const size_t neighbor =
          (i + (draw == 0 ? 1 : networks.size() - 1)) % networks.size();
      const auto& [target_name, target] = networks[neighbor];
      std::optional<Graph> pattern;
      for (int attempt = 0; attempt < 5 && !pattern.has_value(); ++attempt) {
        pattern = RandomConnectedSubgraph(source, 2 + rng.UniformInt(5), rng);
      }
      if (!pattern.has_value()) continue;
      TestPair pair;
      pair.name = "cross/" + source_name + "->" + target_name + "/p" +
                  std::to_string(draw);
      switch ((2 * i + draw) % 4) {
        case 1:
          pair.options.induced = true;
          break;
        case 2:
          pair.options.match_edge_labels = false;
          break;
        case 3:
          pattern->SetVertexLabel(
              static_cast<VertexId>(rng.UniformInt(pattern->NumVertices())),
              kDummyLabel);
          pair.options.dummy_is_wildcard = true;
          break;
        default:
          break;
      }
      pair.pattern = std::move(*pattern);
      pair.target = target;
      pairs.push_back(std::move(pair));
    }
  }
  return pairs;
}

// True when the engine's label census rules `pair` out before any search:
// labels are matched exactly and some census bucket of the pattern exceeds
// the target's.
bool CensusRulesOut(const TestPair& pair) {
  if (!pair.options.match_vertex_labels || pair.options.dummy_is_wildcard) {
    return false;
  }
  return !PatternPlan(pair.pattern)
              .census.FitsIn(MatchIndex(pair.target).census,
                             pair.options.match_edge_labels);
}

TEST(DifferentialTest, CorpusHasTargetSize) {
  // The harness is only meaningful at volume; guard against generator
  // changes silently shrinking the corpus.
  EXPECT_GE(MakePairs().size(), 245u);
}

TEST(DifferentialTest, EngineMatchesNaiveOracleOnSeededCorpus) {
  std::vector<TestPair> pairs = MakePairs();
  size_t verified = 0;
  size_t skipped_over_budget = 0;
  for (const TestPair& pair : pairs) {
    SCOPED_TRACE(pair.name);
    if (CheckAgainstOracle(pair)) {
      ++verified;
    } else {
      ++skipped_over_budget;
    }
  }
  // The corpus must stay overwhelmingly verifiable at full depth.
  EXPECT_GE(verified, 150u);
  EXPECT_LE(skipped_over_budget, pairs.size() / 10);
}

TEST(DifferentialTest, BudgetedRunIsPrefixOfFullRun) {
  std::vector<TestPair> pairs = MakePairs();
  size_t checked = 0;
  for (const TestPair& pair : pairs) {
    SCOPED_TRACE(pair.name);
    for (IndexKind kind : {IndexKind::kShared, IndexKind::kPrivate}) {
      SCOPED_TRACE(kind == IndexKind::kShared ? "shared" : "private");
      RunResult full = RunEngine(pair, kind, kStepBudget);
      if (full.hit_limit) continue;
      const uint64_t steps = full.steps;
      // A budget of 0 means unlimited, so only positive budgets apply.
      for (uint64_t budget : {steps / 2, steps - 1, steps}) {
        if (budget == 0) continue;
        SCOPED_TRACE("budget " + std::to_string(budget));
        RunResult clipped = RunEngine(pair, kind, budget);
        EXPECT_EQ(clipped.hit_limit, steps > budget);
        EXPECT_LE(clipped.steps, budget);
        ASSERT_LE(clipped.count, full.count);
        if (!clipped.hit_limit) {
          EXPECT_EQ(clipped.count, full.count);
        }
        // Exactly the first k embeddings of the full run, in order.
        ASSERT_LE(clipped.embeddings.size(), full.embeddings.size());
        EXPECT_TRUE(std::equal(clipped.embeddings.begin(),
                               clipped.embeddings.end(),
                               full.embeddings.begin()));
      }
      ++checked;
    }
  }
  EXPECT_GE(checked, 300u);
}

TEST(DifferentialTest, RuledOutPairsCostNoStepsAtAnyBudget) {
  // Contract 4. The oracle agreement above shows the census never rules out
  // a pair with an embedding; this pins the cost of the pairs it does, and
  // that the option gate matters: some pairs fail the census when it is
  // applied regardless of options, yet embed under their own.
  size_t ruled_out = 0;
  size_t ruled_out_cross = 0;
  size_t kept_by_gate = 0;
  for (const TestPair& pair : MakePairs()) {
    SCOPED_TRACE(pair.name);
    if (!CensusRulesOut(pair)) {
      const bool fits = PatternPlan(pair.pattern)
                            .census.FitsIn(MatchIndex(pair.target).census,
                                           /*edge_labels=*/true);
      if (!fits && !naive::AllEmbeddings(pair.pattern, pair.target,
                                         pair.options)
                        .empty()) {
        ++kept_by_gate;
      }
      continue;
    }
    ++ruled_out;
    if (pair.name.rfind("cross/", 0) == 0) ++ruled_out_cross;
    for (IndexKind kind : {IndexKind::kShared, IndexKind::kPrivate}) {
      for (uint64_t budget : {uint64_t{0}, uint64_t{1}, kStepBudget}) {
        RunResult run = RunEngine(pair, kind, budget);
        EXPECT_EQ(run.count, 0u);
        EXPECT_EQ(run.steps, 0u);
        EXPECT_FALSE(run.hit_limit);
      }
    }
  }
  EXPECT_GE(ruled_out, 30u);
  EXPECT_GE(ruled_out_cross, 14u);
  EXPECT_GE(kept_by_gate, 3u);
}

TEST(DifferentialTest, WildcardDummySemanticsAgree) {
  // Closure-graph semantics: dummy labels match anything, which disables the
  // index's label filters — degree and truss pruning must still agree with
  // the oracle.
  Rng rng(0x5EED);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 4;
  Graph target = gen::BarabasiAlbert(60, 2, labels, rng);
  size_t verified = 0;
  for (size_t i = 0; i < 10; ++i) {
    std::optional<Graph> pattern =
        RandomConnectedSubgraph(target, 3 + rng.UniformInt(3), rng);
    if (!pattern.has_value()) continue;
    // Blank out one pattern vertex per draw.
    pattern->SetVertexLabel(
        static_cast<VertexId>(rng.UniformInt(pattern->NumVertices())),
        kDummyLabel);
    TestPair pair;
    pair.name = "wildcard/p" + std::to_string(i);
    SCOPED_TRACE(pair.name);
    pair.pattern = std::move(*pattern);
    pair.target = target;
    pair.options.dummy_is_wildcard = true;
    ASSERT_TRUE(CheckAgainstOracle(pair));
    ++verified;
  }
  EXPECT_GE(verified, 8u);
}

TEST(CoverageTest, BitsEqualOracleOnCollection) {
  // Collection coverage, the scoring CATAPULT and MIDAS run, against the
  // oracle. Patterns come from molecules outside the collection, so most
  // (pattern, graph) pairs have no embedding and many fail the census.
  GraphDatabase molecules = gen::MoleculeDatabase(100, {}, 0xC0FE);
  GraphDatabase collection;
  for (size_t i = 0; i < 60; ++i) collection.Add(molecules.graphs()[i]);
  const CollectionIndex coverage(collection, kNoTrussShells);
  Rng rng(0xB175);
  size_t patterns = 0;
  size_t covered = 0;
  for (size_t i = 60; i < molecules.size(); ++i) {
    for (int draw = 0; draw < 2; ++draw) {
      std::optional<Graph> pattern = RandomConnectedSubgraph(
          molecules.graphs()[i], 2 + rng.UniformInt(6), rng);
      if (!pattern.has_value()) continue;
      ++patterns;
      const Bitset bits = CoverageBits(coverage, *pattern);
      for (size_t g = 0; g < collection.size(); ++g) {
        const bool embeds = !naive::AllEmbeddings(
                                 *pattern, collection.graphs()[g], {})
                                 .empty();
        EXPECT_EQ(bits.Test(g), embeds) << "pattern " << patterns << " graph "
                                        << g;
        covered += embeds ? 1 : 0;
      }
    }
  }
  EXPECT_GE(patterns, 40u);
  EXPECT_GT(covered, 0u);
  EXPECT_LT(covered, patterns * collection.size());
}

}  // namespace
}  // namespace vqi
