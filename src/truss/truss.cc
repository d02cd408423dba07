#include "truss/truss.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace vqi {

namespace {

constexpr uint32_t kNoEdge = UINT32_MAX;
constexpr VertexId kUnmapped = UINT32_MAX;

// SubgraphFromEdges through a dense vertex map: `remap` has one entry per
// vertex of g, all kUnmapped, and is left that way. Vertices are numbered in
// the same order, each edge's v before its u.
Graph Region(const Graph& g, const std::vector<Edge>& edges,
             std::vector<VertexId>& remap) {
  Graph out;
  auto map_vertex = [&](VertexId v) {
    if (remap[v] == kUnmapped) remap[v] = out.AddVertex(g.VertexLabel(v));
    return remap[v];
  };
  for (const Edge& e : edges) {
    const VertexId nv = map_vertex(e.v);
    const VertexId nu = map_vertex(e.u);
    out.AddEdge(nu, nv, e.label);
  }
  std::fill(remap.begin(), remap.end(), kUnmapped);
  return out;
}

}  // namespace

int TrussDecomposition::EdgeTrussness(VertexId u, VertexId v) const {
  if (u + size_t{1} >= offsets.size()) return 0;  // no such vertex or edges
  const VertexId* begin = neighbors.data() + offsets[u];
  const VertexId* end = neighbors.data() + offsets[u + 1];
  const VertexId* it = std::lower_bound(begin, end, v);
  return it != end && *it == v ? trussness[it - neighbors.data()] : 0;
}

bool TrussDecomposition::Describes(size_t num_vertices,
                                   size_t num_edges) const {
  if (num_edges == 0) return offsets.empty() && trussness.empty();
  return offsets.size() == num_vertices + 1 &&
         trussness.size() == 2 * num_edges;
}

TrussDecomposition DecomposeTruss(const Graph& g) {
  TrussDecomposition result;
  const size_t m = g.NumEdges();
  if (m == 0) return result;
  const size_t n = g.NumVertices();
  VQI_CHECK_LT(2 * m, size_t{kNoEdge}) << "slots are 32-bit";

  // The sorted adjacency as rows of slots.
  std::vector<uint32_t>& offsets = result.offsets;
  std::vector<VertexId>& nbrs = result.neighbors;
  offsets.resize(n + 1);
  nbrs.resize(2 * m);
  uint32_t slot = 0;
  for (VertexId v = 0; v < n; ++v) {
    offsets[v] = slot;
    for (const Neighbor& nb : g.Neighbors(v)) nbrs[slot++] = nb.vertex;
  }
  offsets[n] = slot;

  // Step 1: edge ids in g.Edges() order, recorded on both slots. Rows are
  // visited by ascending u, so v's lower neighbours arrive in the order its
  // row lists them: upper[v] walks v's row past them and ends at v's first
  // higher neighbour.
  std::vector<uint32_t> edge_of_slot(2 * m);
  std::vector<std::pair<VertexId, VertexId>> ends(m);
  std::vector<uint32_t> upper(offsets.begin(), offsets.end() - 1);
  uint32_t next = 0;
  for (VertexId u = 0; u < n; ++u) {
    for (uint32_t s = upper[u]; s < offsets[u + 1]; ++s) {
      const VertexId v = nbrs[s];
      edge_of_slot[s] = next;
      edge_of_slot[upper[v]++] = next;
      ends[next++] = {u, v};
    }
  }

  // Step 2: triangle supports. Each triangle u < v < w is found once, from
  // u: mark u's higher neighbours with their edge ids, then walk the higher
  // neighbours of each of them.
  std::vector<uint32_t> support(m, 0);
  std::vector<uint32_t> mark(n, kNoEdge);
  for (VertexId u = 0; u < n; ++u) {
    const uint32_t row_end = offsets[u + 1];
    for (uint32_t s = upper[u]; s < row_end; ++s) {
      mark[nbrs[s]] = edge_of_slot[s];
    }
    for (uint32_t s = upper[u]; s < row_end; ++s) {
      const VertexId v = nbrs[s];
      for (uint32_t t = upper[v]; t < offsets[v + 1]; ++t) {
        const uint32_t uw = mark[nbrs[t]];
        if (uw == kNoEdge) continue;
        ++support[edge_of_slot[s]];
        ++support[edge_of_slot[t]];
        ++support[uw];
      }
    }
    for (uint32_t s = upper[u]; s < row_end; ++s) mark[nbrs[s]] = kNoEdge;
  }

  // Step 3: peel in ascending order of current support, kept by a bin sort
  // (Batagelj & Zaversnik): order[] lists the edges by support, bin[x] is
  // where support x starts in it and pos[e] is e's place. The edge at
  // order[i] has the least support of the live edges; its trussness is
  // k = max(k, support + 2). A live triangle's other edges lose one support,
  // but never below the peeled edge's: an edge at that floor is peeled at
  // the current k either way, and the clamp keeps every live edge at or
  // after position i.
  const uint32_t max_support =
      *std::max_element(support.begin(), support.end());
  std::vector<uint32_t> bin(max_support + 1, 0);
  for (uint32_t x : support) ++bin[x];
  uint32_t start = 0;
  for (uint32_t& b : bin) {
    const uint32_t count = b;
    b = start;
    start += count;
  }
  std::vector<uint32_t> order(m);
  std::vector<uint32_t> pos(m);
  for (uint32_t e = 0; e < m; ++e) {
    pos[e] = bin[support[e]]++;
    order[pos[e]] = e;
  }
  std::copy_backward(bin.begin(), bin.end() - 1, bin.end());  // ends -> starts
  bin[0] = 0;

  std::vector<int> edge_truss(m, 0);  // 0 while the edge is live
  auto lower = [&](uint32_t x, uint32_t floor) {
    const uint32_t sx = support[x];
    if (sx <= floor) return;
    // Swap x with the first edge of its bin, then shrink the bin past it.
    const uint32_t first = bin[sx]++;
    const uint32_t y = order[first];
    order[pos[x]] = y;
    pos[y] = pos[x];
    order[first] = x;
    pos[x] = first;
    --support[x];
  };
  const VertexId* row = nbrs.data();
  int k = 2;
  for (uint32_t i = 0; i < m; ++i) {
    const uint32_t e = order[i];
    const uint32_t floor = support[e];
    k = std::max(k, static_cast<int>(floor) + 2);
    edge_truss[e] = k;
    // Common live neighbours w of u and v: walk the shorter row and
    // binary-search the longer one from where the last search stopped.
    auto [u, v] = ends[e];
    uint32_t a = offsets[u], a_end = offsets[u + 1];
    uint32_t b = offsets[v], b_end = offsets[v + 1];
    if (a_end - a > b_end - b) {
      std::swap(a, b);
      std::swap(a_end, b_end);
    }
    for (; a < a_end && b < b_end; ++a) {
      const uint32_t e1 = edge_of_slot[a];
      if (edge_truss[e1] != 0) continue;
      b = static_cast<uint32_t>(
          std::lower_bound(row + b, row + b_end, row[a]) - row);
      if (b == b_end || row[b] != row[a]) continue;
      const uint32_t e2 = edge_of_slot[b];
      if (edge_truss[e2] != 0) continue;
      lower(e1, floor);
      lower(e2, floor);
    }
  }
  result.max_trussness = k;

  // Step 4: both slots of an edge carry its trussness.
  result.trussness.resize(2 * m);
  for (size_t s = 0; s < 2 * m; ++s) {
    result.trussness[s] = edge_truss[edge_of_slot[s]];
  }
  return result;
}

TrussSplit SplitByTruss(const Graph& g, const TrussDecomposition& truss,
                        int k_threshold) {
  VQI_CHECK(truss.Describes(g.NumVertices(), g.NumEdges()))
      << "the decomposition is not of this graph";
  // Rows by ascending u, higher neighbours only: g.Edges() order.
  std::vector<Edge> infested, oblivious;
  size_t slot = 0;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (const Neighbor& nb : g.Neighbors(u)) {
      if (nb.vertex > u) {
        const Edge e{u, nb.vertex, nb.edge_label};
        if (truss.trussness[slot] >= k_threshold) {
          infested.push_back(e);
        } else {
          oblivious.push_back(e);
        }
      }
      ++slot;
    }
  }
  std::vector<VertexId> remap(g.NumVertices(), kUnmapped);
  TrussSplit split;
  split.truss_infested = Region(g, infested, remap);
  split.truss_oblivious = Region(g, oblivious, remap);
  return split;
}

TrussSplit SplitByTruss(const Graph& g, int k_threshold) {
  return SplitByTruss(g, DecomposeTruss(g), k_threshold);
}

}  // namespace vqi
