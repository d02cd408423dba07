#include "graph/graph_builder.h"

#include <unordered_map>

#include "common/logging.h"

namespace vqi {
namespace builder {

Graph FromLists(const std::vector<Label>& vertex_labels,
                const std::vector<Edge>& edges, GraphId id) {
  Graph g(id);
  for (Label l : vertex_labels) g.AddVertex(l);
  for (const Edge& e : edges) {
    VQI_CHECK_LT(e.u, g.NumVertices());
    VQI_CHECK_LT(e.v, g.NumVertices());
    g.AddEdge(e.u, e.v, e.label);
  }
  return g;
}

Graph Path(size_t n, Label vlabel, Label elabel) {
  Graph g;
  for (size_t i = 0; i < n; ++i) g.AddVertex(vlabel);
  for (size_t i = 0; i + 1 < n; ++i) {
    g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1), elabel);
  }
  return g;
}

Graph Cycle(size_t n, Label vlabel, Label elabel) {
  VQI_CHECK_GE(n, 3u);
  Graph g = Path(n, vlabel, elabel);
  g.AddEdge(static_cast<VertexId>(n - 1), 0, elabel);
  return g;
}

Graph Star(size_t leaves, Label vlabel, Label elabel) {
  Graph g;
  VertexId hub = g.AddVertex(vlabel);
  for (size_t i = 0; i < leaves; ++i) {
    VertexId leaf = g.AddVertex(vlabel);
    g.AddEdge(hub, leaf, elabel);
  }
  return g;
}

Graph Clique(size_t n, Label vlabel, Label elabel) {
  Graph g;
  for (size_t i = 0; i < n; ++i) g.AddVertex(vlabel);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) g.AddEdge(u, v, elabel);
  }
  return g;
}

Graph SingleEdge(Label a, Label b, Label elabel) {
  Graph g;
  VertexId u = g.AddVertex(a);
  VertexId v = g.AddVertex(b);
  g.AddEdge(u, v, elabel);
  return g;
}

Graph Triangle(Label vlabel, Label elabel) { return Clique(3, vlabel, elabel); }

}  // namespace builder

Graph InducedSubgraph(const Graph& g, const std::vector<VertexId>& vertices) {
  Graph out;
  std::unordered_map<VertexId, VertexId> remap;
  remap.reserve(vertices.size());
  for (VertexId v : vertices) {
    VQI_CHECK_LT(v, g.NumVertices());
    VQI_CHECK(remap.find(v) == remap.end()) << "duplicate vertex " << v;
    remap[v] = out.AddVertex(g.VertexLabel(v));
  }
  for (VertexId v : vertices) {
    for (const Neighbor& n : g.Neighbors(v)) {
      auto it = remap.find(n.vertex);
      if (it != remap.end() && n.vertex > v) {
        out.AddEdge(remap[v], it->second, n.edge_label);
      }
    }
  }
  return out;
}

Graph SubgraphFromEdges(const Graph& g, const std::vector<Edge>& edges) {
  Graph out;
  std::unordered_map<VertexId, VertexId> remap;
  auto map_vertex = [&](VertexId v) {
    auto it = remap.find(v);
    if (it != remap.end()) return it->second;
    VertexId nv = out.AddVertex(g.VertexLabel(v));
    remap[v] = nv;
    return nv;
  };
  for (const Edge& e : edges) {
    VQI_CHECK_LT(e.u, g.NumVertices());
    VQI_CHECK_LT(e.v, g.NumVertices());
    // v before u, in two statements: the order GCC evaluated the two calls
    // in when they were arguments of one AddEdge call, which every pinned
    // pattern and TATTOO selection was taken with.
    const VertexId nv = map_vertex(e.v);
    const VertexId nu = map_vertex(e.u);
    out.AddEdge(nu, nv, e.label);
  }
  return out;
}

}  // namespace vqi
