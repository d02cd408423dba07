// Independent reference canonical code for the tests: the exhaustive
// individualization-refinement search vqlib used before twin pruning and its
// flat kernel, kept as written — one fresh signature vector per vertex per
// refinement round, one Graph::EdgeLabel lookup per encoded pair, and a
// branch on every vertex of the target cell. It shares no code with
// src/match/canonical.cc, so a pruning rule that skips a subtree it should
// not, or a kernel that orders cells differently, shows up as a different
// code. k interchangeable vertices cost k! leaves: use it on graphs of at
// most about 10 vertices.
//
// Its codes are the library's codes byte for byte on every graph without an
// edge labelled kDummyLabel. On such an edge it writes the value of a
// missing edge (label + 1 wraps to 0), the defect the library's presence
// trailer fixes.

#ifndef VQLIB_TESTS_NAIVE_CANONICAL_H_
#define VQLIB_TESTS_NAIVE_CANONICAL_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace vqi {
namespace naive {

// Appends a uint32 as 4 big-endian bytes (big-endian keeps lexicographic
// string order aligned with numeric order).
inline void AppendU32(std::string& out, uint32_t value) {
  out.push_back(static_cast<char>((value >> 24) & 0xFF));
  out.push_back(static_cast<char>((value >> 16) & 0xFF));
  out.push_back(static_cast<char>((value >> 8) & 0xFF));
  out.push_back(static_cast<char>(value & 0xFF));
}

// One node of the refinement search: a coloring of the vertices.
// Colors are dense ints; equal color == same cell. Cell order == color order.
using Coloring = std::vector<uint32_t>;

// Refines `colors` to a stable coloring using neighbor-signature hashing.
// The new color ids are assigned in sorted signature order, which makes the
// refinement isomorphism-invariant.
inline void Refine(const Graph& g, Coloring& colors) {
  size_t n = g.NumVertices();
  while (true) {
    // signature(v) = (old color, sorted multiset of (nbr color, edge label))
    std::vector<std::pair<std::vector<uint64_t>, VertexId>> sigs(n);
    for (VertexId v = 0; v < n; ++v) {
      std::vector<uint64_t>& sig = sigs[v].first;
      sig.push_back(colors[v]);
      std::vector<uint64_t> nbrs;
      nbrs.reserve(g.Degree(v));
      for (const Neighbor& nb : g.Neighbors(v)) {
        nbrs.push_back((static_cast<uint64_t>(colors[nb.vertex]) << 32) |
                       nb.edge_label);
      }
      std::sort(nbrs.begin(), nbrs.end());
      sig.insert(sig.end(), nbrs.begin(), nbrs.end());
      sigs[v].second = v;
    }
    std::sort(sigs.begin(), sigs.end());
    Coloring next(n);
    uint32_t color = 0;
    for (size_t i = 0; i < sigs.size(); ++i) {
      if (i > 0 && sigs[i].first != sigs[i - 1].first) ++color;
      next[sigs[i].second] = color;
    }
    if (next == colors) return;
    colors = std::move(next);
  }
}

// Encodes the adjacency matrix of g under the ordering implied by a discrete
// coloring (color == position).
inline std::string EncodeDiscrete(const Graph& g, const Coloring& colors) {
  size_t n = g.NumVertices();
  std::vector<VertexId> order(n);
  for (VertexId v = 0; v < n; ++v) order[colors[v]] = v;
  std::string code;
  code.reserve(4 * (n + 1) + 4 * n * n / 2);
  AppendU32(code, static_cast<uint32_t>(n));
  for (size_t i = 0; i < n; ++i) AppendU32(code, g.VertexLabel(order[i]));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      std::optional<Label> e = g.EdgeLabel(order[i], order[j]);
      AppendU32(code, e.has_value() ? (*e + 1) : 0);
    }
  }
  return code;
}

inline bool IsDiscrete(const Coloring& colors) {
  std::vector<bool> seen(colors.size(), false);
  for (uint32_t c : colors) {
    if (c >= colors.size() || seen[c]) return false;
    seen[c] = true;
  }
  return true;
}

// Individualization-refinement search; keeps the lexicographically smallest
// code across all discrete partitions reached.
inline void Search(const Graph& g, Coloring colors, std::string& best,
                   bool& has_best) {
  Refine(g, colors);
  if (IsDiscrete(colors)) {
    std::string code = EncodeDiscrete(g, colors);
    if (!has_best || code < best) {
      best = std::move(code);
      has_best = true;
    }
    return;
  }
  // Target: the smallest-color cell with more than one vertex.
  size_t n = g.NumVertices();
  uint32_t target_color = 0;
  std::vector<size_t> cell_size(n, 0);
  for (uint32_t c : colors) ++cell_size[c];
  for (uint32_t c = 0; c < n; ++c) {
    if (cell_size[c] > 1) {
      target_color = c;
      break;
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (colors[v] != target_color) continue;
    // Individualize v: give it its own color just below the rest of its
    // cell by shifting all colors >= target up by one and keeping v.
    Coloring child(colors);
    for (VertexId u = 0; u < n; ++u) {
      if (child[u] > target_color || (child[u] == target_color && u != v)) {
        ++child[u];
      }
    }
    Search(g, std::move(child), best, has_best);
  }
}

inline std::string CanonicalCode(const Graph& g) {
  size_t n = g.NumVertices();
  if (n == 0) {
    std::string code;
    AppendU32(code, 0);
    return code;
  }
  // Initial colors from sorted (vertex label, degree) pairs.
  std::vector<std::pair<std::pair<Label, size_t>, VertexId>> init(n);
  for (VertexId v = 0; v < n; ++v) {
    init[v] = {{g.VertexLabel(v), g.Degree(v)}, v};
  }
  std::sort(init.begin(), init.end());
  Coloring colors(n);
  uint32_t color = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && init[i].first != init[i - 1].first) ++color;
    colors[init[i].second] = color;
  }
  std::string best;
  bool has_best = false;
  Search(g, std::move(colors), best, has_best);
  return best;
}

}  // namespace naive
}  // namespace vqi

#endif  // VQLIB_TESTS_NAIVE_CANONICAL_H_
