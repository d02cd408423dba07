#ifndef VQLIB_TRUSS_TRUSS_H_
#define VQLIB_TRUSS_TRUSS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace vqi {

/// Result of truss decomposition: for every edge, the maximum k such that
/// the edge belongs to the k-truss (the subgraph where every edge is in at
/// least k-2 triangles). Edges outside any triangle have trussness 2.
///
/// Stored by adjacency slot: row v of the graph's sorted adjacency is
/// neighbors[offsets[v] .. offsets[v+1]), the same rows as Graph::Neighbors
/// and CsrGraph, and trussness[s] is the trussness of the edge at slot s, so
/// both slots of an edge hold its value. An edgeless graph has empty arrays.
struct TrussDecomposition {
  std::vector<uint32_t> offsets;    // NumVertices() + 1
  std::vector<VertexId> neighbors;  // 2 |E|, each row ascending
  std::vector<int> trussness;       // parallel to neighbors
  int max_trussness = 2;

  /// Trussness of {u,v}; 0 when the edge does not exist.
  int EdgeTrussness(VertexId u, VertexId v) const;

  /// True when this decomposes a graph of `num_vertices` vertices and
  /// `num_edges` edges: one row per vertex and one slot per edge end, or
  /// empty arrays when there are no edges.
  bool Describes(size_t num_vertices, size_t num_edges) const;
};

/// Truss decomposition by support peeling (Wang & Cheng, PVLDB'12), over
/// arrays indexed by adjacency slot:
///  1. edge ids in g.Edges() order, recorded on both slots of each edge;
///  2. triangle supports, each triangle counted once from its lowest vertex
///     with a mark array over higher-id neighbours;
///  3. a bin-sorted peel in ascending order of current support, with
///     k = max(k, support + 2), lowering the supports of the other two edges
///     of each live triangle;
///  4. each edge's trussness copied onto both of its slots.
/// The peel intersects each edge's shorter endpoint row with the longer one
/// by binary search: O(|E|^1.5 log maxdeg) in all. The count walks, for each
/// edge {u < v}, v's higher-id neighbours: linear on preferential-attachment
/// networks, O(sum of squared degrees) at worst. O(|V| + |E|) memory.
TrussDecomposition DecomposeTruss(const Graph& g);

/// TATTOO's region split: the truss-infested region G_T contains every edge
/// with trussness >= `k_threshold` (default 3: edges that survive in some
/// triangle-rich truss); the truss-oblivious region G_O contains the rest.
/// Both keep g.Edges() order and number their vertices densely in order of
/// first appearance; labels are preserved.
struct TrussSplit {
  Graph truss_infested;   // G_T
  Graph truss_oblivious;  // G_O
};

/// Splits `g` by `truss`, which must be DecomposeTruss(g): a caller that
/// needs the decomposition elsewhere (RunTattoo's network index) computes it
/// once.
TrussSplit SplitByTruss(const Graph& g, const TrussDecomposition& truss,
                        int k_threshold = 3);

/// Decomposes `g` and splits it.
TrussSplit SplitByTruss(const Graph& g, int k_threshold = 3);

}  // namespace vqi

#endif  // VQLIB_TRUSS_TRUSS_H_
