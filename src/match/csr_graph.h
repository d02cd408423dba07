#ifndef VQLIB_MATCH_CSR_GRAPH_H_
#define VQLIB_MATCH_CSR_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.h"

namespace vqi {

/// Immutable compressed-sparse-row view of a Graph: one offsets array plus a
/// single contiguous neighbor/edge-label array, so the matcher's inner loops
/// walk flat memory instead of chasing per-vertex vector headers. Rows keep
/// the source graph's sorted-by-neighbor-id order, which fixes the order the
/// matcher visits anchored candidates and so the order it delivers
/// embeddings in.
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Snapshots `g`; the view does not track later mutations of `g`.
  explicit CsrGraph(const Graph& g);

  size_t NumVertices() const { return vertex_labels_.size(); }
  size_t NumEdges() const { return num_edges_; }

  Label VertexLabel(VertexId v) const { return vertex_labels_[v]; }
  uint32_t Degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Contiguous sorted adjacency row of `v` as a [begin, end) pointer pair.
  const Neighbor* NeighborsBegin(VertexId v) const {
    return neighbors_.data() + offsets_[v];
  }
  const Neighbor* NeighborsEnd(VertexId v) const {
    return neighbors_.data() + offsets_[v + 1];
  }

  /// O(log deg) membership test over the smaller endpoint's row.
  bool HasEdge(VertexId u, VertexId v) const;

  /// Label of edge {u,v}, or nullopt when absent.
  std::optional<Label> EdgeLabel(VertexId u, VertexId v) const;

 private:
  /// Binary search for `v` in `u`'s row; nullptr when absent.
  const Neighbor* Find(VertexId u, VertexId v) const;

  std::vector<uint32_t> offsets_;      // size NumVertices()+1
  std::vector<Neighbor> neighbors_;    // size 2*NumEdges()
  std::vector<Label> vertex_labels_;   // size NumVertices()
  size_t num_edges_ = 0;
};

}  // namespace vqi

#endif  // VQLIB_MATCH_CSR_GRAPH_H_
