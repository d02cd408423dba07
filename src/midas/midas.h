#ifndef VQLIB_MIDAS_MIDAS_H_
#define VQLIB_MIDAS_MIDAS_H_

#include <vector>

#include "catapult/catapult.h"
#include "common/status.h"
#include "midas/drift.h"
#include "midas/swap_selector.h"
#include "mining/closed_trees.h"

namespace vqi {

/// Configuration of MIDAS (Huang et al., SIGMOD'21): efficient maintenance
/// of a CATAPULT-built canned-pattern set under batch updates.
struct MidasConfig {
  /// Base CATAPULT configuration. Initialization forces use_closed_trees on
  /// (MIDAS replaces frequent subtrees with frequent closed trees because
  /// the closure property makes incremental maintenance cheap).
  CatapultConfig base;
  /// Graphlet-frequency L2 distance beyond which a batch counts as a major
  /// modification (patterns may be stale; run the swap phase).
  double drift_threshold = 0.02;
  /// Multi-scan swapping passes.
  size_t max_scans = 3;
};

/// Persistent maintenance state (the CATAPULT state carries everything).
struct MidasState {
  CatapultState catapult;

  const std::vector<Graph>& patterns() const { return catapult.patterns; }
};

/// Builds the initial pattern set with CATAPULT (FCT features) and packages
/// the retained state.
StatusOr<MidasState> InitializeMidas(const GraphDatabase& db,
                                     const MidasConfig& config);

/// What one maintenance round did and what it cost.
struct MaintenanceReport {
  DriftResult drift;
  bool patterns_updated = false;
  SwapReport swap;
  size_t clusters_touched = 0;
  size_t candidates_generated = 0;
  double seconds = 0.0;
  /// Pattern-set score on the *updated* database before/after maintenance.
  double score_before = 0.0;
  double score_after = 0.0;
  /// Database coverage fraction before/after.
  double coverage_before = 0.0;
  double coverage_after = 0.0;
  /// Coverage fraction of each maintained pattern on the updated database,
  /// in the order of the state's patterns after the batch.
  std::vector<double> pattern_coverages;
  /// Graphs whose graphlets and pattern coverage were recomputed: the ones
  /// whose content version moved since the build or the last batch.
  size_t graphs_rescanned = 0;
};

/// Applies `update` to `db` (insertions get fresh ids unless pre-set) and
/// maintains the state:
///  1. assign added graphs to nearest clusters / drop deleted ones,
///  2. maintain the frequent-closed-tree feature basis,
///  3. bring the per-graph records up to date: drop those of ids that left,
///     recount graphlets and re-match the patterns on every graph whose
///     content version moved (the batch's additions plus any graph edited
///     outside MIDAS), re-match every graph if the patterns were edited,
///  4. classify the drift of the graphlet frequency distribution summed
///     from the records,
///  5. minor: nothing more (CSGs are not rebuilt);
///     major: rebuild the touched clusters' CSGs, regenerate candidates
///     from them and run the multi-scan swap (monotone in both coverage and
///     combined score), then rewrite the records' bits for the new set.
StatusOr<MaintenanceReport> ApplyBatchAndMaintain(MidasState& state,
                                                  GraphDatabase& db,
                                                  BatchUpdate update,
                                                  const MidasConfig& config);

}  // namespace vqi

#endif  // VQLIB_MIDAS_MIDAS_H_
