#ifndef VQLIB_GRAPH_GRAPH_BUILDER_H_
#define VQLIB_GRAPH_GRAPH_BUILDER_H_

#include <vector>

#include "graph/graph.h"

namespace vqi {

/// Convenience helpers for constructing graphs in tests, examples and
/// generators.
namespace builder {

/// Builds a graph from a vertex-label list and an edge list
/// {u, v, edge_label}. Edges referencing out-of-range vertices are a
/// contract violation.
Graph FromLists(const std::vector<Label>& vertex_labels,
                const std::vector<Edge>& edges, GraphId id = -1);

/// Path v0-v1-...-v(n-1); all vertex labels = `vlabel`.
Graph Path(size_t n, Label vlabel = 0, Label elabel = 0);

/// Cycle over n >= 3 vertices.
Graph Cycle(size_t n, Label vlabel = 0, Label elabel = 0);

/// Star with one hub and `leaves` spokes.
Graph Star(size_t leaves, Label vlabel = 0, Label elabel = 0);

/// Complete graph over n vertices.
Graph Clique(size_t n, Label vlabel = 0, Label elabel = 0);

/// Single edge with the given endpoint labels.
Graph SingleEdge(Label a = 0, Label b = 0, Label elabel = 0);

/// Triangle (3-clique).
Graph Triangle(Label vlabel = 0, Label elabel = 0);

}  // namespace builder

/// Returns the subgraph of `g` induced by `vertices` (ids are remapped to
/// 0..k-1 in the order given; duplicate ids are a contract violation).
Graph InducedSubgraph(const Graph& g, const std::vector<VertexId>& vertices);

/// Builds a graph from a subset of `g`'s edges. Vertices are the endpoints of
/// those edges, numbered densely in order of first appearance, taking each
/// edge's v before its u; labels are preserved.
Graph SubgraphFromEdges(const Graph& g, const std::vector<Edge>& edges);

}  // namespace vqi

#endif  // VQLIB_GRAPH_GRAPH_BUILDER_H_
