#include "tattoo/tattoo.h"

#include <algorithm>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "metrics/diversity.h"

namespace vqi {

StatusOr<TattooResult> RunTattoo(const Graph& network,
                                 const TattooConfig& config) {
  if (network.NumEdges() == 0) {
    return Status::InvalidArgument("TATTOO requires a non-empty network");
  }
  if (config.min_pattern_edges > config.max_pattern_edges ||
      config.min_pattern_edges == 0) {
    return Status::InvalidArgument("bad canned pattern size range");
  }
  if (config.budget == 0) {
    return Status::InvalidArgument("budget must be positive");
  }

  TattooResult result;
  Rng rng(config.seed);
  Stopwatch watch;

  // Stage 1: truss decomposition and region split. Stage 3's network index
  // reads its shells off the same decomposition.
  const TrussDecomposition truss = DecomposeTruss(network);
  TrussSplit split = SplitByTruss(network, truss, config.truss_threshold);
  result.stats.infested_edges = split.truss_infested.NumEdges();
  result.stats.oblivious_edges = split.truss_oblivious.NumEdges();
  result.stats.decompose_seconds = watch.ElapsedSeconds();
  watch.Restart();

  // Stage 2: topology-class candidates from the two regions.
  TopologyCandidateConfig gen;
  gen.min_edges = config.min_pattern_edges;
  gen.max_edges = config.max_pattern_edges;
  gen.samples_per_class = config.samples_per_class;
  std::vector<Graph> candidates = ExtractTopologyCandidates(
      split.truss_infested, split.truss_oblivious, gen, rng);
  result.stats.num_candidates = candidates.size();
  for (const Graph& c : candidates) {
    ++result.stats.candidate_classes[ClassifyTopology(c)];
  }
  result.stats.candidate_seconds = watch.ElapsedSeconds();
  watch.Restart();

  // Stage 3: score (budgeted edge coverage against the *whole* network) and
  // select greedily.
  std::vector<Edge> network_edges = network.Edges();
  NetworkCoverageIndex index(network, network_edges, truss);
  std::vector<ScoredCandidate> scored;
  scored.reserve(candidates.size());
  for (Graph& pattern : candidates) {
    ScoredCandidate c;
    c.coverage = index.Bits(pattern, config.coverage);
    c.feature = PatternStructureFeature(pattern);
    c.load = CognitiveLoad(pattern, config.load_model);
    c.pattern = std::move(pattern);
    scored.push_back(std::move(c));
  }
  std::vector<size_t> picked =
      GreedySelect(scored, config.budget, network_edges.size(), config.weights);
  for (size_t index : picked) {
    result.patterns.push_back(scored[index].pattern);
    ++result.stats.selected_classes[ClassifyTopology(result.patterns.back())];
  }
  result.stats.select_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace vqi
