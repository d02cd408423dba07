#include "tattoo/distributed.h"

#include <algorithm>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "graph/partition.h"
#include "match/pattern_utils.h"
#include "metrics/diversity.h"
#include "truss/truss.h"

namespace vqi {

StatusOr<DistributedTattooResult> RunDistributedTattoo(
    const Graph& network, const DistributedTattooConfig& config) {
  if (network.NumEdges() == 0) {
    return Status::InvalidArgument("distributed TATTOO needs a network");
  }
  if (config.base.budget == 0) {
    return Status::InvalidArgument("budget must be positive");
  }
  DistributedTattooResult result;
  Stopwatch watch;

  // Scatter.
  GraphDatabase chunks = PartitionIntoChunks(network, config.chunk_vertices);
  result.stats.partition_seconds = watch.ElapsedSeconds();
  watch.Restart();

  // Map: per-worker candidate extraction (workers simulated sequentially),
  // one worker per chunk up to max_workers.
  Rng rng(config.base.seed);
  std::vector<std::vector<Graph>> per_worker;
  const size_t workers =
      config.max_workers == 0 ? chunks.size()
                              : std::min(chunks.size(), config.max_workers);
  for (size_t w = 0; w < workers; ++w) {
    const Graph& chunk = chunks.graphs()[w];
    Stopwatch worker_watch;
    TrussSplit split = SplitByTruss(chunk, config.base.truss_threshold);
    TopologyCandidateConfig gen;
    gen.min_edges = config.base.min_pattern_edges;
    gen.max_edges = config.base.max_pattern_edges;
    gen.samples_per_class = config.base.samples_per_class;
    Rng worker_rng = rng.Fork();
    per_worker.push_back(ExtractTopologyCandidates(
        split.truss_infested, split.truss_oblivious, gen, worker_rng));
    double seconds = worker_watch.ElapsedSeconds();
    result.stats.worker_seconds_total += seconds;
    result.stats.worker_seconds_max =
        std::max(result.stats.worker_seconds_max, seconds);
  }
  result.stats.num_workers = workers;

  // Gather with bounded fan-in: round-robin across workers so every shard
  // keeps representation under the coordinator cap, then global dedup.
  std::vector<Graph> pooled;
  size_t cap = config.max_pooled_candidates;
  for (size_t index = 0;; ++index) {
    bool any = false;
    for (std::vector<Graph>& local : per_worker) {
      if (index >= local.size()) continue;
      any = true;
      if (cap != 0 && pooled.size() >= cap) break;
      pooled.push_back(std::move(local[index]));
    }
    if (!any || (cap != 0 && pooled.size() >= cap)) break;
  }
  pooled = DedupIsomorphic(std::move(pooled));
  result.stats.pooled_candidates = pooled.size();
  watch.Restart();
  std::vector<Edge> network_edges = network.Edges();
  NetworkCoverageIndex index(network, network_edges);
  std::vector<ScoredCandidate> scored;
  scored.reserve(pooled.size());
  for (Graph& pattern : pooled) {
    ScoredCandidate c;
    c.coverage = index.Bits(pattern, config.base.coverage);
    c.feature = PatternStructureFeature(pattern);
    c.load = CognitiveLoad(pattern, config.base.load_model);
    c.pattern = std::move(pattern);
    scored.push_back(std::move(c));
  }
  std::vector<size_t> picked = GreedySelect(
      scored, config.base.budget, network_edges.size(), config.base.weights);
  for (size_t index : picked) result.patterns.push_back(scored[index].pattern);
  result.stats.select_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace vqi
