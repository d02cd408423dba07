#include "metrics/coverage.h"

#include <utility>

#include "common/logging.h"

namespace vqi {

namespace {

uint64_t EdgeKey(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

}  // namespace

Bitset CoverageBits(const GraphDatabase& db, const Graph& pattern) {
  return CoverageBits(CollectionIndex(db, kNoTrussShells), pattern);
}

double DbCoverage(const GraphDatabase& db, const Graph& pattern) {
  return DbCoverage(CollectionIndex(db, kNoTrussShells), pattern);
}

double DbSetCoverage(const GraphDatabase& db,
                     const std::vector<Graph>& patterns) {
  if (db.empty()) return 0.0;
  const CollectionIndex index(db, kNoTrussShells);
  Bitset covered(db.size());
  for (const Graph& p : patterns) covered.UnionWith(CoverageBits(index, p));
  return static_cast<double>(covered.Count()) /
         static_cast<double>(db.size());
}

Bitset CoverageBits(const CollectionIndex& index, const Graph& pattern) {
  Bitset bits(index.size());
  PatternPlan plan(pattern, index.options());
  const MatchOptions options;
  for (size_t i = 0; i < index.size(); ++i) {
    // The admission column first: most pairs end here, with no MatchIndex
    // touched.
    if (Admits(plan, index.admission(i), options) &&
        SubgraphMatcher(plan, index.at(i), options).Exists()) {
      bits.Set(i);
    }
  }
  return bits;
}

double DbCoverage(const CollectionIndex& index, const Graph& pattern) {
  if (index.size() == 0) return 0.0;
  return static_cast<double>(CoverageBits(index, pattern).Count()) /
         static_cast<double>(index.size());
}

Bitset NetworkCoverageBits(const Graph& network,
                           const std::vector<Edge>& network_edges,
                           const Graph& pattern,
                           const NetworkCoverageOptions& options) {
  if (pattern.NumEdges() == 0) return Bitset(network_edges.size());
  return NetworkCoverageIndex(network, network_edges).Bits(pattern, options);
}

double NetworkSetCoverage(const Graph& network,
                          const std::vector<Graph>& patterns,
                          const NetworkCoverageOptions& options) {
  std::vector<Edge> edges = network.Edges();
  if (edges.empty()) return 0.0;
  NetworkCoverageIndex index(network, edges);
  Bitset covered(edges.size());
  for (const Graph& p : patterns) covered.UnionWith(index.Bits(p, options));
  return static_cast<double>(covered.Count()) /
         static_cast<double>(edges.size());
}

NetworkCoverageIndex::NetworkCoverageIndex(
    const Graph& network, const std::vector<Edge>& network_edges)
    : NetworkCoverageIndex(MatchIndex(network), network_edges) {}

NetworkCoverageIndex::NetworkCoverageIndex(
    const Graph& network, const std::vector<Edge>& network_edges,
    const TrussDecomposition& truss)
    : NetworkCoverageIndex(MatchIndex(network, truss), network_edges) {}

NetworkCoverageIndex::NetworkCoverageIndex(
    MatchIndex index, const std::vector<Edge>& network_edges)
    : index_(std::move(index)), num_edges_(network_edges.size()) {
  edge_position_.reserve(network_edges.size() * 2);
  for (size_t i = 0; i < network_edges.size(); ++i) {
    edge_position_[EdgeKey(network_edges[i].u, network_edges[i].v)] = i;
  }
}

Bitset NetworkCoverageIndex::Bits(const Graph& pattern,
                                  const NetworkCoverageOptions& options) const {
  Bitset bits(num_edges_);
  if (pattern.NumEdges() == 0) return bits;
  MatchOptions match;
  match.match_vertex_labels = options.match_vertex_labels;
  match.max_embeddings = options.max_embeddings;
  match.max_steps = options.max_steps;
  PatternPlan plan(pattern);
  SubgraphMatcher matcher(plan, index_, match);
  std::vector<Edge> pattern_edges = pattern.Edges();
  matcher.Enumerate([&](const Embedding& embedding) {
    for (const Edge& pe : pattern_edges) {
      auto it = edge_position_.find(EdgeKey(embedding[pe.u], embedding[pe.v]));
      if (it != edge_position_.end()) bits.Set(it->second);
    }
    return true;
  });
  return bits;
}

double NetworkCoverageIndex::Fraction(
    const Graph& pattern, const NetworkCoverageOptions& options) const {
  if (num_edges_ == 0) return 0.0;
  return static_cast<double>(Bits(pattern, options).Count()) /
         static_cast<double>(num_edges_);
}

}  // namespace vqi
