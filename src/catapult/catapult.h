#ifndef VQLIB_CATAPULT_CATAPULT_H_
#define VQLIB_CATAPULT_CATAPULT_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "catapult/candidate_generator.h"
#include "cluster/csg.h"
#include "cluster/features.h"
#include "cluster/kmedoids.h"
#include "common/bitset.h"
#include "common/status.h"
#include "graph/graph_database.h"
#include "metrics/cognitive_load.h"
#include "metrics/pattern_score.h"
#include "mining/closed_trees.h"
#include "mining/graphlets.h"
#include "mining/tree_miner.h"

namespace vqi {

/// Configuration of the CATAPULT pipeline (Huang et al., SIGMOD'19):
/// data-driven selection of canned patterns for a collection of small/medium
/// data graphs.
struct CatapultConfig {
  /// Number of canned patterns to select (the VQI display budget).
  size_t budget = 10;
  /// Pattern size range (edges); canned patterns exceed the basic-pattern
  /// bound z = 3.
  size_t min_pattern_edges = 4;
  size_t max_pattern_edges = 12;
  /// Number of clusters; 0 = ceil(sqrt(|D|)) heuristic.
  size_t num_clusters = 0;
  /// Frequent-subtree feature mining parameters.
  TreeMinerConfig tree_config;
  /// Use frequent *closed* trees as features (the MIDAS variant).
  bool use_closed_trees = false;
  /// Distance metric for clustering the tree-feature vectors.
  DistanceMetric metric = DistanceMetric::kCosine;
  /// Walks per CSG during candidate generation.
  size_t walks_per_csg = 48;
  /// Pattern-set objective weights and the cognitive-load model.
  ScoreWeights weights;
  CognitiveLoadModel load_model;
  /// Seed for all stochastic stages.
  uint64_t seed = 42;
};

/// What MIDAS keeps per data graph, so that a batch re-reads only the graphs
/// it changed. Valid while `version` equals GraphDatabase::ContentVersion of
/// the graph's id.
struct GraphRecord {
  uint64_t version = 0;
  GraphletCounts graphlets;
  /// Bit j set iff CatapultState::recorded_patterns[j] occurs in the graph.
  Bitset covered;
};

/// Everything MIDAS needs to maintain a CATAPULT-built pattern set without
/// rebuilding from scratch.
struct CatapultState {
  CatapultConfig config;
  /// Tree feature basis (frequent or frequent-closed trees).
  std::vector<FrequentTree> feature_basis;
  /// Cluster membership by stable graph id.
  std::vector<std::vector<GraphId>> cluster_members;
  /// Feature vector of each cluster medoid, for nearest-cluster assignment
  /// of newly arriving graphs.
  std::vector<FeatureVector> medoid_features;
  /// One summary graph per cluster (same index as cluster_members). MIDAS
  /// rebuilds csgs[c] only when a major batch draws candidates from cluster
  /// c, so until then it can lag the cluster's members.
  std::vector<ClusterSummaryGraph> csgs;
  /// The selected canned patterns.
  std::vector<Graph> patterns;
  /// Graphlet frequency distribution of the database after the build or the
  /// last MIDAS batch: the baseline the next batch's drift is measured from.
  GraphletDistribution gfd;
  /// One record per data graph, keyed by id. RunCatapult fills them from
  /// the graphlet counts and coverage bits it computes anyway; each MIDAS
  /// batch drops the records of ids that left and recomputes the ones whose
  /// content version moved.
  std::unordered_map<GraphId, GraphRecord> records;
  /// The patterns the records' bits refer to. When `patterns` no longer
  /// equals it (a caller edited the set), the next batch re-matches every
  /// graph.
  std::vector<Graph> recorded_patterns;
};

/// Per-stage timing and size statistics of one CATAPULT run.
struct CatapultStats {
  double mine_seconds = 0.0;
  double cluster_seconds = 0.0;
  double csg_seconds = 0.0;
  double candidate_seconds = 0.0;
  double select_seconds = 0.0;
  size_t num_features = 0;
  size_t num_clusters = 0;
  size_t num_candidates = 0;

  double total_seconds() const {
    return mine_seconds + cluster_seconds + csg_seconds + candidate_seconds +
           select_seconds;
  }
};

/// Result of a CATAPULT run: patterns plus the retained state and stats.
struct CatapultResult {
  CatapultState state;
  CatapultStats stats;

  const std::vector<Graph>& patterns() const { return state.patterns; }
};

/// Runs the full pipeline: mine tree features -> cluster the collection ->
/// summarize each cluster into a CSG -> grow candidates with weighted random
/// walks -> greedily select the budgeted pattern set by the combined
/// coverage/diversity/cognitive-load score.
/// Fails with InvalidArgument on an empty database or a bad size range.
StatusOr<CatapultResult> RunCatapult(const GraphDatabase& db,
                                     const CatapultConfig& config);

/// Builds scored candidates (coverage bitsets over `db`, structure features,
/// loads) for a candidate pattern pool. Shared by CATAPULT and MIDAS.
std::vector<ScoredCandidate> ScoreCandidates(const GraphDatabase& db,
                                             std::vector<Graph> candidates,
                                             const CognitiveLoadModel& model);

/// Makes `selected` the state's pattern set and writes which graphs each one
/// covers (its coverage bits, over db.graphs() order) into the records, which
/// must hold an entry for every graph of `db`.
void RecordSelection(CatapultState& state, const GraphDatabase& db,
                     const std::vector<ScoredCandidate>& selected);

/// Fraction of the recorded graphs that each of `state.recorded_patterns`
/// occurs in (0 when there are no records), read from the records' bits.
/// Equals DbCoverage(db, pattern) while the records are in sync with `db`,
/// as they are after RunCatapult and after every MIDAS batch.
std::vector<double> RecordedCoverages(const CatapultState& state);

}  // namespace vqi

#endif  // VQLIB_CATAPULT_CATAPULT_H_
