// Independent reference matcher for the tests: a plain backtracking search
// written against the public Graph API only. It shares no code with
// src/match/ — no CSR mirror, no candidate index, no seeding heuristic, no
// step accounting — so a bug in the engine's order, filters or feasibility
// check cannot hide behind an identical bug here. Slow by design; use it on
// test-sized pairs only.

#ifndef VQLIB_TESTS_NAIVE_MATCHER_H_
#define VQLIB_TESTS_NAIVE_MATCHER_H_

#include <algorithm>
#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "match/vf2.h"  // MatchOptions and Embedding: plain data, no code

namespace vqi {
namespace naive {

// Every embedding of `pattern` in `target` under the semantic flags of
// `options` (induced, vertex/edge labels, wildcard dummies; the budget
// fields are ignored), sorted ascending. An empty pattern has exactly one
// embedding, the empty mapping.
inline std::vector<Embedding> AllEmbeddings(const Graph& pattern,
                                            const Graph& target,
                                            const MatchOptions& options) {
  const size_t n = pattern.NumVertices();
  std::vector<Embedding> out;
  if (n > target.NumVertices()) return out;

  auto labels_agree = [&](Label p, Label t) {
    return p == t || (options.dummy_is_wildcard &&
                      (p == kDummyLabel || t == kDummyLabel));
  };

  // Breadth-first order over the pattern, so every vertex but a component's
  // first has an already-placed neighbor whose image bounds its candidates.
  std::vector<VertexId> order;
  std::vector<bool> queued(n, false);
  for (VertexId root = 0; root < n; ++root) {
    if (queued[root]) continue;
    std::deque<VertexId> frontier = {root};
    queued[root] = true;
    while (!frontier.empty()) {
      VertexId v = frontier.front();
      frontier.pop_front();
      order.push_back(v);
      for (const Neighbor& nb : pattern.Neighbors(v)) {
        if (!queued[nb.vertex]) {
          queued[nb.vertex] = true;
          frontier.push_back(nb.vertex);
        }
      }
    }
  }

  Embedding image(n, 0);
  std::vector<bool> placed(n, false);
  std::vector<bool> used(target.NumVertices(), false);

  auto consistent = [&](VertexId p, VertexId t) {
    if (used[t]) return false;
    if (options.match_vertex_labels &&
        !labels_agree(pattern.VertexLabel(p), target.VertexLabel(t))) {
      return false;
    }
    for (VertexId q = 0; q < n; ++q) {
      if (!placed[q]) continue;
      std::optional<Label> pattern_edge = pattern.EdgeLabel(p, q);
      std::optional<Label> target_edge = target.EdgeLabel(t, image[q]);
      if (pattern_edge.has_value()) {
        if (!target_edge.has_value()) return false;
        if (options.match_edge_labels &&
            !labels_agree(*pattern_edge, *target_edge)) {
          return false;
        }
      } else if (options.induced && target_edge.has_value()) {
        return false;
      }
    }
    return true;
  };

  auto extend = [&](auto& self, size_t depth) -> void {
    if (depth == n) {
      out.push_back(image);
      return;
    }
    VertexId p = order[depth];
    std::optional<VertexId> placed_neighbor;
    for (const Neighbor& nb : pattern.Neighbors(p)) {
      if (placed[nb.vertex]) {
        placed_neighbor = nb.vertex;
        break;
      }
    }
    auto attempt = [&](VertexId t) {
      if (!consistent(p, t)) return;
      image[p] = t;
      placed[p] = true;
      used[t] = true;
      self(self, depth + 1);
      placed[p] = false;
      used[t] = false;
    };
    if (placed_neighbor.has_value()) {
      for (const Neighbor& nb : target.Neighbors(image[*placed_neighbor])) {
        attempt(nb.vertex);
      }
    } else {
      for (VertexId t = 0; t < target.NumVertices(); ++t) attempt(t);
    }
  };
  extend(extend, 0);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace naive
}  // namespace vqi

#endif  // VQLIB_TESTS_NAIVE_MATCHER_H_
