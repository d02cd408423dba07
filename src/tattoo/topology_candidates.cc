#include "tattoo/topology_candidates.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "graph/graph_builder.h"
#include "match/pattern_utils.h"

namespace vqi {

namespace {

// Clamps a sampled target size into [min_edges, max_edges].
size_t SampleTarget(const TopologyCandidateConfig& config, Rng& rng) {
  if (config.max_edges <= config.min_edges) return config.min_edges;
  return config.min_edges +
         static_cast<size_t>(
             rng.UniformInt(config.max_edges - config.min_edges + 1));
}

}  // namespace

std::vector<Graph> ExtractChains(const Graph& region,
                                 const TopologyCandidateConfig& config,
                                 Rng& rng, IsomorphismSet* seen) {
  std::vector<Graph> out;
  if (region.NumVertices() == 0) return out;
  IsomorphismSet local;
  if (seen == nullptr) seen = &local;
  for (size_t attempt = 0; attempt < config.samples_per_class; ++attempt) {
    size_t target = SampleTarget(config, rng);
    VertexId start = static_cast<VertexId>(rng.UniformInt(region.NumVertices()));
    std::vector<Edge> path;
    std::unordered_set<VertexId> visited{start};
    VertexId current = start;
    while (path.size() < target) {
      const auto& neighbors = region.Neighbors(current);
      std::vector<const Neighbor*> fresh;
      for (const Neighbor& nb : neighbors) {
        if (!visited.count(nb.vertex)) fresh.push_back(&nb);
      }
      if (fresh.empty()) break;
      const Neighbor* next = fresh[rng.UniformInt(fresh.size())];
      path.push_back(Edge{std::min(current, next->vertex),
                          std::max(current, next->vertex), next->edge_label});
      visited.insert(next->vertex);
      current = next->vertex;
    }
    if (path.size() < config.min_edges) continue;
    Graph chain = SubgraphFromEdges(region, path);
    if (seen->Insert(chain)) out.push_back(std::move(chain));
  }
  return out;
}

std::vector<Graph> ExtractStars(const Graph& region,
                                const TopologyCandidateConfig& config,
                                Rng& rng, IsomorphismSet* seen) {
  std::vector<Graph> out;
  if (region.NumVertices() == 0) return out;
  // Hub candidates: vertices with degree >= min_edges.
  std::vector<VertexId> hubs;
  for (VertexId v = 0; v < region.NumVertices(); ++v) {
    if (region.Degree(v) >= config.min_edges) hubs.push_back(v);
  }
  if (hubs.empty()) return out;
  IsomorphismSet local;
  if (seen == nullptr) seen = &local;
  for (size_t attempt = 0; attempt < config.samples_per_class; ++attempt) {
    VertexId hub = hubs[rng.UniformInt(hubs.size())];
    size_t target = std::min<size_t>(SampleTarget(config, rng),
                                     region.Degree(hub));
    // Random subset of neighbors as leaves.
    std::vector<size_t> order(region.Degree(hub));
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(order);
    std::vector<Edge> edges;
    for (size_t i = 0; i < target; ++i) {
      const Neighbor& nb = region.Neighbors(hub)[order[i]];
      edges.push_back(Edge{std::min(hub, nb.vertex),
                           std::max(hub, nb.vertex), nb.edge_label});
    }
    if (edges.size() < config.min_edges) continue;
    Graph star = SubgraphFromEdges(region, edges);
    if (seen->Insert(star)) out.push_back(std::move(star));
  }
  return out;
}

std::vector<Graph> ExtractCycles(const Graph& region,
                                 const TopologyCandidateConfig& config,
                                 Rng& rng, IsomorphismSet* seen) {
  std::vector<Graph> out;
  std::vector<Edge> all_edges = region.Edges();
  if (all_edges.empty()) return out;
  IsomorphismSet local;
  if (seen == nullptr) seen = &local;
  for (size_t attempt = 0; attempt < config.samples_per_class; ++attempt) {
    const Edge& seed = all_edges[rng.UniformInt(all_edges.size())];
    // Shortest alternative path u -> v avoiding the seed edge; together with
    // the seed edge it forms a simple cycle.
    std::vector<int> parent(region.NumVertices(), -1);
    std::deque<VertexId> queue{seed.u};
    parent[seed.u] = static_cast<int>(seed.u);
    bool found = false;
    size_t expanded = 0;
    const size_t kExpansionCap = 4096;  // keep per-attempt cost bounded
    while (!queue.empty() && !found && expanded < kExpansionCap) {
      VertexId x = queue.front();
      queue.pop_front();
      ++expanded;
      for (const Neighbor& nb : region.Neighbors(x)) {
        if (x == seed.u && nb.vertex == seed.v) continue;  // skip seed edge
        if (parent[nb.vertex] != -1) continue;
        parent[nb.vertex] = static_cast<int>(x);
        if (nb.vertex == seed.v) {
          found = true;
          break;
        }
        queue.push_back(nb.vertex);
      }
    }
    if (!found) continue;
    std::vector<Edge> cycle_edges{seed};
    VertexId walk = seed.v;
    while (walk != seed.u) {
      VertexId prev = static_cast<VertexId>(parent[walk]);
      cycle_edges.push_back(Edge{std::min(prev, walk), std::max(prev, walk),
                                 region.EdgeLabel(prev, walk).value_or(0)});
      walk = prev;
    }
    if (cycle_edges.size() < config.min_edges ||
        cycle_edges.size() > config.max_edges) {
      continue;
    }
    Graph cycle = SubgraphFromEdges(region, cycle_edges);
    if (seen->Insert(cycle)) out.push_back(std::move(cycle));
  }
  return out;
}

std::vector<Graph> ExtractPetals(const Graph& region,
                                 const TopologyCandidateConfig& config,
                                 Rng& rng, IsomorphismSet* seen) {
  std::vector<Graph> out;
  std::vector<Edge> all_edges = region.Edges();
  if (all_edges.empty()) return out;
  IsomorphismSet local;
  if (seen == nullptr) seen = &local;
  for (size_t attempt = 0; attempt < config.samples_per_class; ++attempt) {
    const Edge& seed = all_edges[rng.UniformInt(all_edges.size())];
    // Common neighbors of the seed endpoints.
    std::vector<VertexId> common;
    for (const Neighbor& nb : region.Neighbors(seed.u)) {
      if (nb.vertex != seed.v && region.HasEdge(nb.vertex, seed.v)) {
        common.push_back(nb.vertex);
      }
    }
    if (common.size() < 2) continue;  // petal needs >= 2 parallel paths
    rng.Shuffle(common);
    // Edges: seed + (u,w_i) + (v,w_i): 1 + 2p edges. Pick p to fit range.
    size_t target = SampleTarget(config, rng);
    size_t p = std::min(common.size(), (target - 1) / 2);
    if (p < 2 || 1 + 2 * p < config.min_edges) continue;
    std::vector<Edge> edges{seed};
    for (size_t i = 0; i < p; ++i) {
      VertexId w = common[i];
      edges.push_back(Edge{std::min(seed.u, w), std::max(seed.u, w),
                           region.EdgeLabel(seed.u, w).value_or(0)});
      edges.push_back(Edge{std::min(seed.v, w), std::max(seed.v, w),
                           region.EdgeLabel(seed.v, w).value_or(0)});
    }
    Graph petal = SubgraphFromEdges(region, edges);
    if (seen->Insert(petal)) out.push_back(std::move(petal));
  }
  return out;
}

std::vector<Graph> ExtractFlowers(const Graph& region,
                                  const TopologyCandidateConfig& config,
                                  Rng& rng, IsomorphismSet* seen) {
  std::vector<Graph> out;
  if (region.NumVertices() == 0) return out;
  IsomorphismSet local;
  if (seen == nullptr) seen = &local;
  for (size_t attempt = 0; attempt < config.samples_per_class; ++attempt) {
    VertexId hub = static_cast<VertexId>(rng.UniformInt(region.NumVertices()));
    // Triangles through the hub that pairwise share only the hub.
    std::vector<std::pair<VertexId, VertexId>> petals;
    std::unordered_set<VertexId> used{hub};
    const auto& neighbors = region.Neighbors(hub);
    std::vector<size_t> order(neighbors.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(order);
    for (size_t i = 0; i < order.size(); ++i) {
      VertexId a = neighbors[order[i]].vertex;
      if (used.count(a)) continue;
      for (size_t j = i + 1; j < order.size(); ++j) {
        VertexId b = neighbors[order[j]].vertex;
        if (used.count(b) || !region.HasEdge(a, b)) continue;
        petals.emplace_back(a, b);
        used.insert(a);
        used.insert(b);
        break;
      }
    }
    // Each petal contributes 3 edges.
    size_t target = SampleTarget(config, rng);
    size_t want = std::min(petals.size(), std::max<size_t>(2, target / 3));
    if (want < 2 || 3 * want < config.min_edges) continue;
    std::vector<Edge> edges;
    for (size_t i = 0; i < want; ++i) {
      auto [a, b] = petals[i];
      edges.push_back(Edge{std::min(hub, a), std::max(hub, a),
                           region.EdgeLabel(hub, a).value_or(0)});
      edges.push_back(Edge{std::min(hub, b), std::max(hub, b),
                           region.EdgeLabel(hub, b).value_or(0)});
      edges.push_back(Edge{std::min(a, b), std::max(a, b),
                           region.EdgeLabel(a, b).value_or(0)});
    }
    Graph flower = SubgraphFromEdges(region, edges);
    if (seen->Insert(flower)) out.push_back(std::move(flower));
  }
  return out;
}

std::vector<Graph> ExtractTopologyCandidates(
    const Graph& truss_infested, const Graph& truss_oblivious,
    const TopologyCandidateConfig& config, Rng& rng) {
  // A candidate is kept exactly when nothing isomorphic came before it, in
  // its own class or an earlier one.
  IsomorphismSet seen;
  std::vector<Graph> pooled =
      ExtractChains(truss_oblivious, config, rng, &seen);
  auto append = [&pooled](std::vector<Graph> batch) {
    for (Graph& g : batch) pooled.push_back(std::move(g));
  };
  append(ExtractStars(truss_oblivious, config, rng, &seen));
  append(ExtractCycles(truss_infested, config, rng, &seen));
  append(ExtractPetals(truss_infested, config, rng, &seen));
  append(ExtractFlowers(truss_infested, config, rng, &seen));
  return pooled;
}

}  // namespace vqi
