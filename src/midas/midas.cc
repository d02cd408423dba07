#include "midas/midas.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <unordered_set>

#include "cluster/similarity.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "match/candidate_index.h"
#include "match/vf2.h"
#include "metrics/diversity.h"

namespace vqi {

StatusOr<MidasState> InitializeMidas(const GraphDatabase& db,
                                     const MidasConfig& config) {
  CatapultConfig base = config.base;
  base.use_closed_trees = true;
  StatusOr<CatapultResult> result = RunCatapult(db, base);
  if (!result.ok()) return result.status();
  MidasState state;
  state.catapult = std::move(result->state);
  return state;
}

namespace {

// Rebuilds the CSG of cluster `c` from its current member ids.
void RebuildCsg(CatapultState& state, const GraphDatabase& db, size_t c) {
  std::vector<const Graph*> members;
  for (GraphId id : state.cluster_members[c]) {
    if (db.Contains(id)) members.push_back(&db.Get(id));
  }
  state.csgs[c] = ClusterSummaryGraph::Build(members);
}

// Brings the records in line with `db` and the current patterns: drops the
// records of ids that left, recounts and re-matches every graph whose
// content version moved, and re-matches every graph when the patterns were
// edited since the bits were computed. Returns the number recounted.
size_t RefreshRecords(CatapultState& state, const GraphDatabase& db) {
  for (auto it = state.records.begin(); it != state.records.end();) {
    it = db.Contains(it->first) ? std::next(it) : state.records.erase(it);
  }
  const bool rematch_all = !std::equal(
      state.patterns.begin(), state.patterns.end(),
      state.recorded_patterns.begin(), state.recorded_patterns.end(),
      [](const Graph& a, const Graph& b) { return a.IdenticalTo(b); });
  std::vector<PatternPlan> plans;
  plans.reserve(state.patterns.size());
  for (const Graph& p : state.patterns) plans.emplace_back(p, kNoTrussShells);
  size_t recounted = 0;
  for (const Graph& g : db.graphs()) {
    GraphRecord& record = state.records[g.id()];
    const uint64_t version = db.ContentVersion(g.id());
    if (record.version != version) {
      record.version = version;
      record.graphlets = CountGraphlets(g);
      ++recounted;
    } else if (!rematch_all) {
      continue;
    }
    const MatchIndex index(g, kNoTrussShells);
    record.covered = Bitset(plans.size());
    for (size_t j = 0; j < plans.size(); ++j) {
      if (SubgraphMatcher(plans[j], index).Exists()) record.covered.Set(j);
    }
  }
  if (rematch_all) state.recorded_patterns = state.patterns;
  return recounted;
}

// The current patterns as selection candidates, their coverage over
// db.graphs() order read from the records.
std::vector<ScoredCandidate> RecordedCandidates(const CatapultState& state,
                                                const GraphDatabase& db) {
  std::vector<ScoredCandidate> current(state.patterns.size());
  for (size_t j = 0; j < current.size(); ++j) {
    current[j].pattern = state.patterns[j];
    current[j].coverage = Bitset(db.size());
    current[j].feature = PatternStructureFeature(state.patterns[j]);
    current[j].load = CognitiveLoad(state.patterns[j], state.config.load_model);
  }
  for (size_t i = 0; i < db.size(); ++i) {
    const Bitset& covered = state.records.at(db.graphs()[i].id()).covered;
    for (size_t j = 0; j < current.size(); ++j) {
      if (covered.Test(j)) current[j].coverage.Set(i);
    }
  }
  return current;
}

}  // namespace

StatusOr<MaintenanceReport> ApplyBatchAndMaintain(MidasState& state,
                                                  GraphDatabase& db,
                                                  BatchUpdate update,
                                                  const MidasConfig& config) {
  MaintenanceReport report;
  Stopwatch watch;
  CatapultState& cat = state.catapult;
  if (cat.cluster_members.empty()) {
    return Status::FailedPrecondition("MIDAS state is uninitialized");
  }

  // --- Apply the batch to the database, recording concrete ids. ----------
  std::unordered_set<GraphId> deleted;
  for (GraphId id : update.deletions) {
    if (db.Remove(id)) deleted.insert(id);
  }
  std::vector<GraphId> added_ids;
  for (Graph& g : update.additions) {
    added_ids.push_back(db.Add(std::move(g)));
  }
  // Normalize the update descriptor for FCT maintenance.
  BatchUpdate applied;
  applied.deletions.assign(deleted.begin(), deleted.end());
  for (GraphId id : added_ids) applied.additions.push_back(db.Get(id));

  // --- 1. Cluster bookkeeping. --------------------------------------------
  std::unordered_set<size_t> touched;
  for (size_t c = 0; c < cat.cluster_members.size(); ++c) {
    auto& members = cat.cluster_members[c];
    size_t before = members.size();
    members.erase(std::remove_if(members.begin(), members.end(),
                                 [&](GraphId id) { return deleted.count(id); }),
                  members.end());
    if (members.size() != before) touched.insert(c);
  }
  for (GraphId id : added_ids) {
    FeatureVector f = TreeFeatureOf(db.Get(id), cat.feature_basis);
    size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < cat.medoid_features.size(); ++c) {
      if (cat.medoid_features[c].size() != f.size()) continue;
      double d = Distance(f, cat.medoid_features[c], cat.config.metric);
      if (d < best_d) {
        best_d = d;
        best = c;
      }
    }
    cat.cluster_members[best].push_back(id);
    touched.insert(best);
  }
  report.clusters_touched = touched.size();

  // --- 2. FCT maintenance. -------------------------------------------------
  cat.feature_basis = MaintainClosedTrees(std::move(cat.feature_basis), db,
                                          applied, cat.config.tree_config);

  // --- 3. Per-graph records. ----------------------------------------------
  report.graphs_rescanned = RefreshRecords(cat, db);

  // --- 4. Drift classification. --------------------------------------------
  GraphletCounts total;
  for (const auto& [id, record] : cat.records) total += record.graphlets;
  GraphletDistribution gfd_after = NormalizeGraphlets(total);
  report.drift = ClassifyDrift(cat.gfd, gfd_after, config.drift_threshold);
  cat.gfd = gfd_after;

  // --- 5. On major drift, pattern swaps. -----------------------------------
  // Score the existing patterns against the updated database either way, so
  // the report shows quality before/after.
  std::vector<ScoredCandidate> current = RecordedCandidates(cat, db);
  {
    PatternSetEvaluator eval(db.size(), cat.config.weights);
    for (const auto& c : current) eval.Add(c);
    report.score_before = eval.CurrentScore();
    report.coverage_before = eval.coverage_fraction();
  }
  report.score_after = report.score_before;
  report.coverage_after = report.coverage_before;

  if (report.drift.type == ModificationType::kMajor && !current.empty()) {
    // Candidates from the touched clusters' summary graphs, rebuilt from
    // their current members.
    Rng rng(cat.config.seed ^ 0x0001DA5ull);
    std::vector<ClusterSummaryGraph> touched_csgs;
    for (size_t c : touched) {
      RebuildCsg(cat, db, c);
      touched_csgs.push_back(cat.csgs[c]);
    }
    CandidateGenConfig gen;
    gen.min_edges = cat.config.min_pattern_edges;
    gen.max_edges = cat.config.max_pattern_edges;
    gen.walks = cat.config.walks_per_csg;
    std::vector<Graph> raw = GenerateCandidates(touched_csgs, gen, rng);
    report.candidates_generated = raw.size();
    std::vector<ScoredCandidate> candidates =
        ScoreCandidates(db, std::move(raw), cat.config.load_model);

    SwapConfig swap;
    swap.max_scans = config.max_scans;
    swap.weights = cat.config.weights;
    report.swap = MultiScanSwap(current, candidates, db.size(), swap);
    if (report.swap.swaps_applied > 0) {
      report.patterns_updated = true;
      RecordSelection(cat, db, current);
    }
    PatternSetEvaluator eval(db.size(), cat.config.weights);
    for (const auto& c : current) eval.Add(c);
    report.score_after = eval.CurrentScore();
    report.coverage_after = eval.coverage_fraction();
  }
  report.pattern_coverages = RecordedCoverages(cat);

  report.seconds = watch.ElapsedSeconds();
  return report;
}

}  // namespace vqi
