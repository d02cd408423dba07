#include "catapult/catapult.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "match/pattern_utils.h"
#include "metrics/coverage.h"
#include "metrics/diversity.h"

namespace vqi {

std::vector<ScoredCandidate> ScoreCandidates(const GraphDatabase& db,
                                             std::vector<Graph> candidates,
                                             const CognitiveLoadModel& model) {
  std::vector<ScoredCandidate> scored;
  scored.reserve(candidates.size());
  const CollectionIndex index(db, kNoTrussShells);
  for (Graph& pattern : candidates) {
    ScoredCandidate c;
    c.coverage = CoverageBits(index, pattern);
    c.feature = PatternStructureFeature(pattern);
    c.load = CognitiveLoad(pattern, model);
    c.pattern = std::move(pattern);
    scored.push_back(std::move(c));
  }
  return scored;
}

StatusOr<CatapultResult> RunCatapult(const GraphDatabase& db,
                                     const CatapultConfig& config) {
  if (db.empty()) {
    return Status::InvalidArgument("CATAPULT requires a non-empty database");
  }
  if (config.min_pattern_edges > config.max_pattern_edges ||
      config.min_pattern_edges == 0) {
    return Status::InvalidArgument("bad canned pattern size range");
  }
  if (config.budget == 0) {
    return Status::InvalidArgument("budget must be positive");
  }

  CatapultResult result;
  result.state.config = config;
  Rng rng(config.seed);
  Stopwatch watch;

  // Stage 1: mine tree features.
  result.state.feature_basis =
      config.use_closed_trees
          ? MineClosedTrees(db, config.tree_config)
          : MineFrequentTrees(db, config.tree_config);
  result.stats.num_features = result.state.feature_basis.size();
  result.stats.mine_seconds = watch.ElapsedSeconds();
  watch.Restart();

  // Stage 2: cluster the collection on tree-feature vectors.
  std::vector<FeatureVector> features =
      TreeFeatures(db, result.state.feature_basis);
  if (result.state.feature_basis.empty()) {
    // Degenerate input (e.g. all graphs unique single edges): fall back to
    // graphlet features so clustering still has signal.
    features.clear();
    for (const Graph& g : db.graphs()) {
      GraphletDistribution d = GraphletsOf(g);
      features.emplace_back(d.freq.begin(), d.freq.end());
    }
  }
  size_t k = config.num_clusters;
  if (k == 0) {
    k = static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(db.size()))));
  }
  k = std::max<size_t>(1, std::min(k, db.size()));
  ClusteringResult clustering = KMedoids(features, k, config.metric, rng);
  result.stats.num_clusters = clustering.num_clusters();
  result.stats.cluster_seconds = watch.ElapsedSeconds();
  watch.Restart();

  // Stage 3: summarize each cluster into a CSG.
  std::vector<std::vector<size_t>> members =
      ClusterMembers(clustering.assignment, clustering.num_clusters());
  result.state.cluster_members.resize(members.size());
  result.state.medoid_features.resize(members.size());
  for (size_t c = 0; c < members.size(); ++c) {
    std::vector<const Graph*> graphs;
    for (size_t index : members[c]) {
      graphs.push_back(&db.graphs()[index]);
      result.state.cluster_members[c].push_back(db.graphs()[index].id());
    }
    result.state.medoid_features[c] = features[clustering.medoids[c]];
    result.state.csgs.push_back(ClusterSummaryGraph::Build(graphs));
  }
  result.stats.csg_seconds = watch.ElapsedSeconds();
  watch.Restart();

  // Stage 4: weighted-random-walk candidate generation.
  CandidateGenConfig gen;
  gen.min_edges = config.min_pattern_edges;
  gen.max_edges = config.max_pattern_edges;
  gen.walks = config.walks_per_csg;
  // One set deduplicates the walks and the direct samples below, so each
  // candidate's canonical code is computed once.
  IsomorphismSet seen;
  std::vector<Graph> candidates =
      GenerateCandidates(result.state.csgs, gen, rng, &seen);
  // The greedy-alignment CSG is an approximation of the true closure, so a
  // walk can stitch together edges that co-occur in no single member graph.
  // Guarantee a floor of realizable candidates by also sampling connected
  // subgraphs directly from member graphs (coverage >= 1 by construction).
  size_t direct_samples = std::max<size_t>(8, config.walks_per_csg / 2);
  for (size_t c = 0; c < result.state.cluster_members.size(); ++c) {
    const auto& ids = result.state.cluster_members[c];
    if (ids.empty()) continue;
    for (size_t s = 0; s < direct_samples; ++s) {
      const Graph& source = db.Get(ids[rng.UniformInt(ids.size())]);
      size_t target = config.min_pattern_edges;
      if (config.max_pattern_edges > config.min_pattern_edges) {
        target += static_cast<size_t>(rng.UniformInt(
            config.max_pattern_edges - config.min_pattern_edges + 1));
      }
      if (source.NumEdges() < target) continue;
      auto sample = RandomConnectedSubgraph(source, target, rng);
      if (sample.has_value() && seen.Insert(*sample)) {
        candidates.push_back(std::move(*sample));
      }
    }
  }
  result.stats.num_candidates = candidates.size();
  result.stats.candidate_seconds = watch.ElapsedSeconds();
  watch.Restart();

  // Stage 5: greedy scored selection under the budget.
  std::vector<ScoredCandidate> scored =
      ScoreCandidates(db, std::move(candidates), config.load_model);
  std::vector<size_t> picked =
      GreedySelect(scored, config.budget, db.size(), config.weights);
  std::vector<ScoredCandidate> selected;
  for (size_t index : picked) selected.push_back(std::move(scored[index]));
  result.stats.select_seconds = watch.ElapsedSeconds();

  // MIDAS's drift baseline and per-graph records, from the graphlet counts
  // and the selected patterns' coverage bits.
  GraphletCounts total;
  result.state.records.reserve(db.size());
  for (const Graph& g : db.graphs()) {
    GraphRecord& record = result.state.records[g.id()];
    record.version = db.ContentVersion(g.id());
    record.graphlets = CountGraphlets(g);
    total += record.graphlets;
  }
  result.state.gfd = NormalizeGraphlets(total);
  RecordSelection(result.state, db, selected);
  return result;
}

void RecordSelection(CatapultState& state, const GraphDatabase& db,
                     const std::vector<ScoredCandidate>& selected) {
  state.patterns.clear();
  for (const ScoredCandidate& c : selected) state.patterns.push_back(c.pattern);
  state.recorded_patterns = state.patterns;
  for (size_t i = 0; i < db.size(); ++i) {
    Bitset& covered = state.records.at(db.graphs()[i].id()).covered;
    covered = Bitset(selected.size());
    for (size_t j = 0; j < selected.size(); ++j) {
      if (selected[j].coverage.Test(i)) covered.Set(j);
    }
  }
}

std::vector<double> RecordedCoverages(const CatapultState& state) {
  std::vector<size_t> counts(state.recorded_patterns.size(), 0);
  for (const auto& [id, record] : state.records) {
    for (size_t j = 0; j < counts.size(); ++j) {
      counts[j] += record.covered.Test(j);
    }
  }
  std::vector<double> fractions(counts.size(), 0.0);
  if (state.records.empty()) return fractions;
  for (size_t j = 0; j < counts.size(); ++j) {
    fractions[j] = static_cast<double>(counts[j]) /
                   static_cast<double>(state.records.size());
  }
  return fractions;
}

}  // namespace vqi
