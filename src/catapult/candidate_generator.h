#ifndef VQLIB_CATAPULT_CANDIDATE_GENERATOR_H_
#define VQLIB_CATAPULT_CANDIDATE_GENERATOR_H_

#include <vector>

#include "cluster/csg.h"
#include "common/rng.h"
#include "graph/graph.h"

namespace vqi {

class IsomorphismSet;

/// Parameters for weighted-random-walk candidate generation on a CSG.
struct CandidateGenConfig {
  /// Pattern size range in edges (canned patterns are larger than basic
  /// patterns, whose size is at most z = 3).
  size_t min_edges = 4;
  size_t max_edges = 12;
  /// Number of walks attempted per CSG.
  size_t walks = 48;
};

/// Grows candidate canned patterns from a cluster summary graph with
/// weighted random walks: edges shared by many cluster members carry
/// proportionally more weight, so walks gravitate toward substructures
/// common across the cluster (CATAPULT's candidate generation step).
/// Candidates are deduplicated up to isomorphism. With `seen`, a candidate
/// isomorphic to one already in `seen` is dropped too, and each one returned
/// is added to it.
std::vector<Graph> GenerateCandidatesFromCsg(const ClusterSummaryGraph& csg,
                                             const CandidateGenConfig& config,
                                             Rng& rng,
                                             IsomorphismSet* seen = nullptr);

/// Convenience: candidates pooled from several CSGs, deduplicated globally
/// through one IsomorphismSet (`seen` when given, as above).
std::vector<Graph> GenerateCandidates(
    const std::vector<ClusterSummaryGraph>& csgs,
    const CandidateGenConfig& config, Rng& rng,
    IsomorphismSet* seen = nullptr);

}  // namespace vqi

#endif  // VQLIB_CATAPULT_CANDIDATE_GENERATOR_H_
