#include "mining/tree_miner.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <unordered_set>

#include "common/logging.h"
#include "match/canonical.h"
#include "match/vf2.h"

namespace vqi {
namespace {

// A labeled edge type: (smaller vertex label, edge label, larger vertex
// label). Single-edge trees are identified by this triple.
using EdgeType = std::tuple<Label, Label, Label>;

EdgeType MakeEdgeType(Label a, Label elabel, Label b) {
  if (a > b) std::swap(a, b);
  return {a, elabel, b};
}

Graph TreeFromEdgeType(const EdgeType& t) {
  Graph g;
  VertexId u = g.AddVertex(std::get<0>(t));
  VertexId v = g.AddVertex(std::get<2>(t));
  g.AddEdge(u, v, std::get<1>(t));
  return g;
}

}  // namespace

std::vector<FrequentTree> MineFrequentTrees(const GraphDatabase& db,
                                            const TreeMinerConfig& config) {
  VQI_CHECK_GE(config.max_edges, 1u);
  std::vector<FrequentTree> result;

  // Level 1: frequent edge types, counted directly.
  std::map<EdgeType, std::vector<GraphId>> edge_support;
  for (const Graph& g : db.graphs()) {
    std::unordered_set<uint64_t> seen;  // dedup edge types within one graph
    std::vector<EdgeType> local;
    for (const Edge& e : g.Edges()) {
      local.push_back(MakeEdgeType(g.VertexLabel(e.u), e.label,
                                   g.VertexLabel(e.v)));
    }
    std::sort(local.begin(), local.end());
    local.erase(std::unique(local.begin(), local.end()), local.end());
    for (const EdgeType& t : local) edge_support[t].push_back(g.id());
  }

  std::vector<FrequentTree> level;
  std::vector<EdgeType> frequent_edge_types;
  for (auto& [type, support] : edge_support) {
    if (support.size() < config.min_support) continue;
    std::sort(support.begin(), support.end());
    frequent_edge_types.push_back(type);
    level.push_back(FrequentTree{TreeFromEdgeType(type), support});
  }
  for (const FrequentTree& t : level) result.push_back(t);

  // Levels 2..max_edges: pendant-edge growth. Every candidate is matched
  // against graphs of its parent's support set, so each graph's index is
  // built once for the whole call; tree patterns (all shells 2) never prune
  // with truss shells, so the indexes skip them.
  if (config.max_edges < 2 || level.empty()) return result;
  const CollectionIndex indexes(db, kNoTrussShells);
  for (size_t edges = 2; edges <= config.max_edges && !level.empty();
       ++edges) {
    std::vector<FrequentTree> next;
    std::unordered_set<std::string> seen_codes;
    for (const FrequentTree& parent : level) {
      for (VertexId attach = 0; attach < parent.tree.NumVertices();
           ++attach) {
        Label attach_label = parent.tree.VertexLabel(attach);
        for (const EdgeType& type : frequent_edge_types) {
          // The new pendant edge must have `attach`'s label at one end.
          auto [la, el, lb] = type;
          std::vector<Label> other_ends;
          if (la == attach_label) other_ends.push_back(lb);
          if (lb == attach_label && lb != la) other_ends.push_back(la);
          for (Label other : other_ends) {
            Graph candidate = parent.tree;
            VertexId leaf = candidate.AddVertex(other);
            candidate.AddEdge(attach, leaf, el);
            std::string code = CanonicalCode(candidate);
            if (!seen_codes.insert(code).second) continue;
            // Support counting restricted to the parent's support set.
            PatternPlan plan(candidate, kNoTrussShells);
            std::vector<GraphId> support;
            for (GraphId gid : parent.support) {
              if (SubgraphMatcher(plan, *indexes.Find(gid)).Exists()) {
                support.push_back(gid);
              }
            }
            if (support.size() >= config.min_support) {
              next.push_back(FrequentTree{std::move(candidate),
                                          std::move(support)});
              if (next.size() >= config.max_trees_per_level) break;
            }
          }
          if (next.size() >= config.max_trees_per_level) break;
        }
        if (next.size() >= config.max_trees_per_level) break;
      }
      if (next.size() >= config.max_trees_per_level) break;
    }
    for (const FrequentTree& t : next) result.push_back(t);
    level = std::move(next);
  }
  return result;
}

}  // namespace vqi
