// Independent reference truss decomposition for the tests: the level-by-level
// peeling vqlib used before its array-based kernel, kept as written — hash
// maps keyed on edge endpoints, a rescan of every edge at every level and
// sorted-list intersections for triangles. It shares no code with src/truss/,
// so a bug in the kernel's slot numbering, support count or bin sort cannot
// hide behind an identical bug here. Slow by design; use it on test-sized
// graphs.

#ifndef VQLIB_TESTS_NAIVE_TRUSS_H_
#define VQLIB_TESTS_NAIVE_TRUSS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace vqi {
namespace naive {

// Per-edge trussness keyed on the edge's endpoints.
struct Trussness {
  // Edge key ((min<<32)|max) -> trussness.
  std::unordered_map<uint64_t, int> trussness;
  int max_trussness = 2;

  static uint64_t EdgeKey(VertexId u, VertexId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | v;
  }

  // Trussness of {u,v}; 0 when the edge does not exist.
  int EdgeTrussness(VertexId u, VertexId v) const {
    auto it = trussness.find(EdgeKey(u, v));
    return it == trussness.end() ? 0 : it->second;
  }
};

// At level k, repeatedly strip the edges whose support is <= k-2; an edge
// stripped at level k has trussness k.
inline Trussness DecomposeTruss(const Graph& g) {
  Trussness result;
  std::vector<Edge> edges = g.Edges();
  size_t m = edges.size();
  if (m == 0) return result;

  std::unordered_map<uint64_t, size_t> edge_index;
  edge_index.reserve(m * 2);
  for (size_t i = 0; i < m; ++i) {
    edge_index[Trussness::EdgeKey(edges[i].u, edges[i].v)] = i;
  }

  // Initial support: common-neighbor counts via sorted-list intersection.
  std::vector<int> support(m, 0);
  std::vector<bool> removed(m, false);
  for (size_t i = 0; i < m; ++i) {
    VertexId u = edges[i].u, v = edges[i].v;
    const auto& a = g.Neighbors(u);
    const auto& b = g.Neighbors(v);
    size_t x = 0, y = 0;
    int count = 0;
    while (x < a.size() && y < b.size()) {
      if (a[x].vertex < b[y].vertex) {
        ++x;
      } else if (a[x].vertex > b[y].vertex) {
        ++y;
      } else {
        ++count;
        ++x;
        ++y;
      }
    }
    support[i] = count;
  }

  // Peeling: at level k, repeatedly strip edges with support <= k-2.
  size_t remaining = m;
  int k = 2;
  std::deque<size_t> queue;
  while (remaining > 0) {
    for (size_t i = 0; i < m; ++i) {
      if (!removed[i] && support[i] <= k - 2) queue.push_back(i);
    }
    while (!queue.empty()) {
      size_t i = queue.front();
      queue.pop_front();
      if (removed[i] || support[i] > k - 2) continue;
      removed[i] = true;
      --remaining;
      result.trussness[Trussness::EdgeKey(edges[i].u, edges[i].v)] = k;
      // Decrement support of the two wing edges of every triangle through i.
      VertexId u = edges[i].u, v = edges[i].v;
      const auto& a = g.Neighbors(u);
      const auto& b = g.Neighbors(v);
      size_t x = 0, y = 0;
      while (x < a.size() && y < b.size()) {
        if (a[x].vertex < b[y].vertex) {
          ++x;
        } else if (a[x].vertex > b[y].vertex) {
          ++y;
        } else {
          VertexId w = a[x].vertex;
          auto it1 = edge_index.find(Trussness::EdgeKey(u, w));
          auto it2 = edge_index.find(Trussness::EdgeKey(v, w));
          if (it1 != edge_index.end() && it2 != edge_index.end() &&
              !removed[it1->second] && !removed[it2->second]) {
            for (size_t j : {it1->second, it2->second}) {
              if (--support[j] <= k - 2) queue.push_back(j);
            }
          }
          ++x;
          ++y;
        }
      }
    }
    result.max_trussness = k;
    ++k;
  }
  return result;
}

}  // namespace naive
}  // namespace vqi

#endif  // VQLIB_TESTS_NAIVE_TRUSS_H_
