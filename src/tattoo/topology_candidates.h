#ifndef VQLIB_TATTOO_TOPOLOGY_CANDIDATES_H_
#define VQLIB_TATTOO_TOPOLOGY_CANDIDATES_H_

#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "graph/graph_algos.h"

namespace vqi {

class IsomorphismSet;

/// Parameters for topology-guided candidate extraction (TATTOO):
/// real-world query logs (Bonifati et al., PVLDB'17) are dominated by a
/// handful of shapes — chains, stars, cycles, petals, flowers — so TATTOO
/// extracts candidates of exactly those shapes from the two truss regions
/// instead of mining arbitrary subgraphs.
struct TopologyCandidateConfig {
  size_t min_edges = 4;
  size_t max_edges = 12;
  /// Extraction attempts per topology class.
  size_t samples_per_class = 32;
};

/// Every extractor returns its candidates deduplicated up to isomorphism.
/// With `seen`, a candidate isomorphic to one already in `seen` is dropped
/// too, and each one returned is added to it, so extractors that share one
/// set compute each candidate's canonical code once.

/// Chains (simple paths) sampled by non-revisiting random walks. Intended
/// for the truss-oblivious region.
std::vector<Graph> ExtractChains(const Graph& region,
                                 const TopologyCandidateConfig& config,
                                 Rng& rng, IsomorphismSet* seen = nullptr);

/// Stars sampled around high-degree vertices. Intended for the
/// truss-oblivious region.
std::vector<Graph> ExtractStars(const Graph& region,
                                const TopologyCandidateConfig& config,
                                Rng& rng, IsomorphismSet* seen = nullptr);

/// Simple cycles found by closing a BFS path over a seed edge. Intended for
/// the truss-infested region.
std::vector<Graph> ExtractCycles(const Graph& region,
                                 const TopologyCandidateConfig& config,
                                 Rng& rng, IsomorphismSet* seen = nullptr);

/// Petals (generalized theta: seed edge endpoints plus p >= 2 common
/// neighbors). Intended for the truss-infested region.
std::vector<Graph> ExtractPetals(const Graph& region,
                                 const TopologyCandidateConfig& config,
                                 Rng& rng, IsomorphismSet* seen = nullptr);

/// Flowers (a hub plus several triangles through it). Intended for the
/// truss-infested region.
std::vector<Graph> ExtractFlowers(const Graph& region,
                                  const TopologyCandidateConfig& config,
                                  Rng& rng, IsomorphismSet* seen = nullptr);

/// All extractors over the appropriate region, pooled and deduplicated
/// through one IsomorphismSet: chains/stars from `truss_oblivious`,
/// cycles/petals/flowers from `truss_infested`.
std::vector<Graph> ExtractTopologyCandidates(
    const Graph& truss_infested, const Graph& truss_oblivious,
    const TopologyCandidateConfig& config, Rng& rng);

}  // namespace vqi

#endif  // VQLIB_TATTOO_TOPOLOGY_CANDIDATES_H_
