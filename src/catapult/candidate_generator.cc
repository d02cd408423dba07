#include "catapult/candidate_generator.h"

#include "match/pattern_utils.h"
#include "mining/random_walk.h"

namespace vqi {

std::vector<Graph> GenerateCandidatesFromCsg(const ClusterSummaryGraph& csg,
                                             const CandidateGenConfig& config,
                                             Rng& rng, IsomorphismSet* seen) {
  std::vector<Graph> out;
  IsomorphismSet local;
  if (seen == nullptr) seen = &local;
  const Graph& g = csg.graph();
  if (g.NumEdges() == 0) return out;
  EdgeWeightFn weight = [&csg](VertexId u, VertexId v) {
    return csg.EdgeWeight(u, v);
  };
  for (size_t w = 0; w < config.walks; ++w) {
    size_t target = config.min_edges;
    if (config.max_edges > config.min_edges) {
      target += static_cast<size_t>(
          rng.UniformInt(config.max_edges - config.min_edges + 1));
    }
    if (target > g.NumEdges()) target = g.NumEdges();
    if (target < config.min_edges) continue;  // CSG too small for the range
    auto candidate = WeightedRandomSubgraph(g, weight, target, rng);
    if (!candidate.has_value()) continue;
    if (seen->Insert(*candidate)) out.push_back(std::move(*candidate));
  }
  return out;
}

std::vector<Graph> GenerateCandidates(
    const std::vector<ClusterSummaryGraph>& csgs,
    const CandidateGenConfig& config, Rng& rng, IsomorphismSet* seen) {
  IsomorphismSet local;
  if (seen == nullptr) seen = &local;
  std::vector<Graph> pooled;
  for (const ClusterSummaryGraph& csg : csgs) {
    for (Graph& g : GenerateCandidatesFromCsg(csg, config, rng, seen)) {
      pooled.push_back(std::move(g));
    }
  }
  return pooled;
}

}  // namespace vqi
