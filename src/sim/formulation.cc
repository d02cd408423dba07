#include "sim/formulation.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "match/vf2.h"

namespace vqi {

double TraceSeconds(const FormulationTrace& trace, const KlmModel& model,
                    size_t pattern_panel_size) {
  double total = 0.0;
  for (SimAction action : trace.actions) {
    total += ActionSeconds(action, model, pattern_panel_size);
  }
  return total;
}

namespace {

uint64_t EdgeKey(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

}  // namespace

FormulationTrace SimulateFormulation(const Graph& target,
                                     const std::vector<Graph>& patterns) {
  FormulationTrace trace;
  if (target.NumEdges() == 0) return trace;

  // Remaining (not yet drawn) target edges and already-placed vertices.
  std::unordered_set<uint64_t> remaining;
  for (const Edge& e : target.Edges()) remaining.insert(EdgeKey(e.u, e.v));
  std::vector<bool> placed(target.NumVertices(), false);

  // Patterns largest-first: an expert grabs the biggest piece that fits.
  std::vector<const Graph*> ordered;
  for (const Graph& p : patterns) {
    if (p.NumEdges() > 0) ordered.push_back(&p);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Graph* a, const Graph* b) {
              return a->NumEdges() > b->NumEdges();
            });

  while (!remaining.empty()) {
    // Try to stamp the largest pattern that structurally embeds onto
    // remaining target edges, at a net step saving over manual drawing.
    bool stamped = false;
    for (const Graph* pattern : ordered) {
      if (pattern->NumEdges() > remaining.size()) continue;
      std::vector<Edge> pattern_edges = pattern->Edges();
      MatchOptions structural;
      structural.match_vertex_labels = false;
      structural.match_edge_labels = false;
      structural.max_steps = 200000;  // bound per-pattern search
      SubgraphMatcher matcher(*pattern, target, structural);

      // Among the first valid embeddings, keep the cheapest stamp.
      std::optional<Embedding> best;
      size_t best_cost = 0;
      uint64_t inspected = 0;
      matcher.Enumerate([&](const Embedding& embedding) {
        for (const Edge& pe : pattern_edges) {
          if (!remaining.count(EdgeKey(embedding[pe.u], embedding[pe.v]))) {
            return true;  // overlaps drawn area; keep searching
          }
        }
        // Stamp cost: 1 + merges + label fixes.
        size_t cost = 1;
        for (VertexId pv = 0; pv < pattern->NumVertices(); ++pv) {
          VertexId tv = embedding[pv];
          if (placed[tv]) {
            ++cost;  // merge gesture
          } else if (pattern->VertexLabel(pv) != target.VertexLabel(tv)) {
            ++cost;  // relabel a newly placed vertex
          }
        }
        for (const Edge& pe : pattern_edges) {
          Label want =
              target.EdgeLabel(embedding[pe.u], embedding[pe.v]).value_or(0);
          if (pe.label != want) ++cost;  // relabel an edge
        }
        if (!best.has_value() || cost < best_cost) {
          best = embedding;
          best_cost = cost;
        }
        return ++inspected < 64;  // inspect a few, then commit
      });
      if (!best.has_value()) continue;

      // Manual cost of the same region: per edge 1 (+1 if labeled); per new
      // vertex 1 add + 1 label.
      size_t manual_cost = 0;
      std::unordered_set<VertexId> new_vertices;
      for (const Edge& pe : pattern_edges) {
        VertexId tu = (*best)[pe.u], tv = (*best)[pe.v];
        manual_cost += 1;
        if (target.EdgeLabel(tu, tv).value_or(0) != 0) manual_cost += 1;
      }
      for (VertexId pv = 0; pv < pattern->NumVertices(); ++pv) {
        if (!placed[(*best)[pv]]) new_vertices.insert((*best)[pv]);
      }
      manual_cost += 2 * new_vertices.size();
      if (best_cost >= manual_cost) continue;  // stamp does not pay off

      // Commit the stamp: 1 place action, then merges and relabels.
      trace.actions.push_back(SimAction::kPlacePattern);
      ++trace.patterns_used;
      trace.edges_from_patterns += pattern_edges.size();
      for (VertexId pv = 0; pv < pattern->NumVertices(); ++pv) {
        VertexId tv = (*best)[pv];
        if (placed[tv]) {
          trace.actions.push_back(SimAction::kMergeVertices);
        } else if (pattern->VertexLabel(pv) != target.VertexLabel(tv)) {
          trace.actions.push_back(SimAction::kSetLabel);
        }
        placed[tv] = true;
      }
      for (const Edge& pe : pattern_edges) {
        VertexId tu = (*best)[pe.u], tv = (*best)[pe.v];
        if (pe.label != target.EdgeLabel(tu, tv).value_or(0)) {
          trace.actions.push_back(SimAction::kSetLabel);
        }
        remaining.erase(EdgeKey(tu, tv));
      }
      stamped = true;
      break;
    }
    if (stamped) continue;

    // Edge-at-a-time: prefer an edge touching the built region (incremental
    // drawing), otherwise any remaining edge.
    uint64_t chosen = 0;
    bool found_edge = false;
    for (uint64_t key : remaining) {
      VertexId u = static_cast<VertexId>(key >> 32);
      VertexId v = static_cast<VertexId>(key & 0xFFFFFFFFu);
      if (placed[u] || placed[v]) {
        chosen = key;
        found_edge = true;
        break;
      }
    }
    if (!found_edge) chosen = *remaining.begin();
    VertexId u = static_cast<VertexId>(chosen >> 32);
    VertexId v = static_cast<VertexId>(chosen & 0xFFFFFFFFu);
    for (VertexId endpoint : {u, v}) {
      if (!placed[endpoint]) {
        trace.actions.push_back(SimAction::kAddVertex);
        trace.actions.push_back(SimAction::kSetLabel);
        placed[endpoint] = true;
      }
    }
    trace.actions.push_back(SimAction::kAddEdge);
    if (target.EdgeLabel(u, v).value_or(0) != 0) {
      trace.actions.push_back(SimAction::kSetLabel);
    }
    remaining.erase(chosen);
  }
  return trace;
}

}  // namespace vqi
