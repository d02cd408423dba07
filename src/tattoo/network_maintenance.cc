#include "tattoo/network_maintenance.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "graph/graph_builder.h"
#include "metrics/cognitive_load.h"
#include "metrics/coverage.h"
#include "metrics/diversity.h"
#include "truss/truss.h"

namespace vqi {

GraphletDistribution SampledGraphlets(const Graph& network, size_t samples,
                                      uint64_t seed) {
  GraphletCounts total;
  if (network.NumVertices() == 0) return GraphletDistribution{};
  Rng rng(seed);
  constexpr size_t kEgoCap = 24;  // bounds per-sample ESU cost
  for (size_t s = 0; s < samples; ++s) {
    VertexId seed_vertex =
        static_cast<VertexId>(rng.UniformInt(network.NumVertices()));
    // Radius-1 ego net, capped.
    std::vector<VertexId> members{seed_vertex};
    for (const Neighbor& nb : network.Neighbors(seed_vertex)) {
      if (members.size() >= kEgoCap) break;
      members.push_back(nb.vertex);
    }
    Graph ego = InducedSubgraph(network, members);
    GraphletCounts counts = CountGraphlets(ego);
    for (int i = 0; i < kNumGraphletTypes; ++i) {
      total.counts[i] += counts.counts[i];
    }
  }
  GraphletDistribution dist;
  uint64_t sum = total.total();
  if (sum == 0) return dist;
  for (int i = 0; i < kNumGraphletTypes; ++i) {
    dist.freq[i] =
        static_cast<double>(total.counts[i]) / static_cast<double>(sum);
  }
  return dist;
}

StatusOr<NetworkMaintainState> InitializeNetworkMaintenance(
    Graph network, const NetworkMaintenanceConfig& config) {
  StatusOr<TattooResult> selection = RunTattoo(network, config.base);
  if (!selection.ok()) return selection.status();
  NetworkMaintainState state;
  state.patterns = std::move(selection->patterns);
  state.sampled_gfd =
      SampledGraphlets(network, config.gfd_samples, config.seed);
  state.network = std::move(network);
  return state;
}

namespace {

// Vertices within `hops` of any endpoint touched by the batch.
std::vector<VertexId> TouchedRegion(const Graph& network,
                                    const std::vector<VertexId>& seeds,
                                    size_t hops, size_t cap) {
  std::unordered_set<VertexId> seen;
  std::deque<std::pair<VertexId, size_t>> queue;
  for (VertexId v : seeds) {
    if (v < network.NumVertices() && seen.insert(v).second) {
      queue.emplace_back(v, 0);
    }
  }
  std::vector<VertexId> members;
  while (!queue.empty() && members.size() < cap) {
    auto [v, depth] = queue.front();
    queue.pop_front();
    members.push_back(v);
    if (depth >= hops) continue;
    for (const Neighbor& nb : network.Neighbors(v)) {
      if (seen.insert(nb.vertex).second) {
        queue.emplace_back(nb.vertex, depth + 1);
      }
    }
  }
  return members;
}

}  // namespace

StatusOr<NetworkMaintenanceReport> ApplyNetworkBatch(
    NetworkMaintainState& state, const NetworkBatch& batch,
    const NetworkMaintenanceConfig& config) {
  if (state.network.NumVertices() == 0) {
    return Status::FailedPrecondition("network maintenance uninitialized");
  }
  NetworkMaintenanceReport report;
  Stopwatch watch;
  Graph& network = state.network;

  // --- Apply the batch. -----------------------------------------------------
  std::vector<VertexId> touched_seeds;
  for (Label label : batch.new_vertices) {
    touched_seeds.push_back(network.AddVertex(label));
  }
  for (const Edge& e : batch.edge_insertions) {
    if (e.u >= network.NumVertices() || e.v >= network.NumVertices()) {
      return Status::InvalidArgument("edge insertion references unknown vertex");
    }
    if (network.AddEdge(e.u, e.v, e.label)) {
      touched_seeds.push_back(e.u);
      touched_seeds.push_back(e.v);
    }
  }
  for (const auto& [u, v] : batch.edge_deletions) {
    if (u < network.NumVertices() && v < network.NumVertices() &&
        network.RemoveEdge(u, v)) {
      touched_seeds.push_back(u);
      touched_seeds.push_back(v);
    }
  }

  // --- Drift triage on sampled GFDs. ----------------------------------------
  GraphletDistribution after =
      SampledGraphlets(network, config.gfd_samples, config.seed);
  report.drift = ClassifyDrift(state.sampled_gfd, after,
                               config.drift_threshold);
  state.sampled_gfd = after;

  if (report.drift.type == ModificationType::kMajor &&
      !state.patterns.empty() && !touched_seeds.empty()) {
    // --- Local re-extraction around the changed region. ----------------------
    std::vector<VertexId> region_vertices = TouchedRegion(
        network, touched_seeds, config.locality_hops, /*cap=*/4096);
    report.region_vertices = region_vertices.size();
    Graph region = InducedSubgraph(network, region_vertices);

    Rng rng(config.seed ^ 0xBA7C4ull);
    TrussSplit split = SplitByTruss(region, config.base.truss_threshold);
    TopologyCandidateConfig gen;
    gen.min_edges = config.base.min_pattern_edges;
    gen.max_edges = config.base.max_pattern_edges;
    gen.samples_per_class = config.base.samples_per_class;
    std::vector<Graph> raw = ExtractTopologyCandidates(
        split.truss_infested, split.truss_oblivious, gen, rng);
    report.candidates_generated = raw.size();

    // --- Score (full-network coverage) and swap. ------------------------------
    std::vector<Edge> network_edges = network.Edges();
    NetworkCoverageIndex index(network, network_edges);
    auto score = [&](Graph pattern) {
      ScoredCandidate c;
      c.coverage = index.Bits(pattern, config.base.coverage);
      c.feature = PatternStructureFeature(pattern);
      c.load = CognitiveLoad(pattern, config.base.load_model);
      c.pattern = std::move(pattern);
      return c;
    };
    std::vector<ScoredCandidate> current;
    for (const Graph& p : state.patterns) current.push_back(score(p));
    std::vector<ScoredCandidate> candidates;
    for (Graph& p : raw) candidates.push_back(score(std::move(p)));

    SwapConfig swap;
    swap.max_scans = config.max_scans;
    swap.weights = config.base.weights;
    report.swap =
        MultiScanSwap(current, candidates, network_edges.size(), swap);
    if (report.swap.swaps_applied > 0) {
      report.patterns_updated = true;
      state.patterns.clear();
      for (const ScoredCandidate& c : current) state.patterns.push_back(c.pattern);
    }
  }
  report.seconds = watch.ElapsedSeconds();
  return report;
}

}  // namespace vqi
