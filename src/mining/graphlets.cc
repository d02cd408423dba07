#include "mining/graphlets.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/logging.h"

namespace vqi {

const char* GraphletTypeName(GraphletType type) {
  switch (type) {
    case kG3Path:
      return "P3";
    case kG3Triangle:
      return "K3";
    case kG4Path:
      return "P4";
    case kG4Star:
      return "claw";
    case kG4Cycle:
      return "C4";
    case kG4TailedTriangle:
      return "tailed-triangle";
    case kG4Diamond:
      return "diamond";
    case kG4Clique:
      return "K4";
    default:
      return "?";
  }
}

double GraphletDistribution::DistanceTo(
    const GraphletDistribution& other) const {
  double sum = 0.0;
  for (int i = 0; i < kNumGraphletTypes; ++i) {
    double d = freq[i] - other.freq[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

std::string GraphletDistribution::DebugString() const {
  std::ostringstream out;
  for (int i = 0; i < kNumGraphletTypes; ++i) {
    if (i > 0) out << " ";
    out << GraphletTypeName(static_cast<GraphletType>(i)) << "=" << freq[i];
  }
  return out.str();
}

namespace {

// Classifies an induced connected subgraph on 3 or 4 vertices.
GraphletType Classify(const Graph& g, const std::vector<VertexId>& vs) {
  size_t k = vs.size();
  size_t edges = 0;
  std::array<int, 4> deg = {0, 0, 0, 0};
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      if (g.HasEdge(vs[i], vs[j])) {
        ++edges;
        ++deg[i];
        ++deg[j];
      }
    }
  }
  if (k == 3) {
    return edges == 3 ? kG3Triangle : kG3Path;
  }
  int max_deg = *std::max_element(deg.begin(), deg.begin() + 4);
  switch (edges) {
    case 3:
      return max_deg == 3 ? kG4Star : kG4Path;
    case 4:
      return max_deg == 3 ? kG4TailedTriangle : kG4Cycle;
    case 5:
      return kG4Diamond;
    default:
      return kG4Clique;
  }
}

// ESU (Wernicke 2006): enumerates every connected induced k-vertex subgraph
// exactly once. `subgraph` holds chosen vertices; `extension` holds vertices
// that can legally extend it (id > root, exclusive neighbors only).
void ExtendSubgraph(const Graph& g, std::vector<VertexId>& subgraph,
                    std::vector<VertexId> extension, VertexId root, size_t k,
                    GraphletCounts& out) {
  if (subgraph.size() == k) {
    GraphletType t = Classify(g, subgraph);
    ++out.counts[t];
    return;
  }
  while (!extension.empty()) {
    VertexId w = extension.back();
    extension.pop_back();
    // New extension: remaining extension plus exclusive neighbors of w
    // (greater than root, not adjacent to or part of the current subgraph).
    std::vector<VertexId> next_extension = extension;
    for (const Neighbor& nb : g.Neighbors(w)) {
      VertexId u = nb.vertex;
      if (u <= root) continue;
      bool adjacent_to_subgraph = false;
      for (VertexId s : subgraph) {
        if (u == s || g.HasEdge(u, s)) {
          adjacent_to_subgraph = true;
          break;
        }
      }
      if (adjacent_to_subgraph) continue;
      if (std::find(next_extension.begin(), next_extension.end(), u) ==
          next_extension.end()) {
        next_extension.push_back(u);
      }
    }
    subgraph.push_back(w);
    ExtendSubgraph(g, subgraph, std::move(next_extension), root, k, out);
    subgraph.pop_back();
  }
}

void EnumerateSizeK(const Graph& g, size_t k, GraphletCounts& out) {
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    std::vector<VertexId> extension;
    for (const Neighbor& nb : g.Neighbors(v)) {
      if (nb.vertex > v) extension.push_back(nb.vertex);
    }
    std::vector<VertexId> subgraph{v};
    ExtendSubgraph(g, subgraph, std::move(extension), v, k, out);
  }
}

}  // namespace

GraphletDistribution NormalizeGraphlets(const GraphletCounts& counts) {
  GraphletDistribution dist;
  uint64_t total = counts.total();
  if (total == 0) return dist;
  for (int i = 0; i < kNumGraphletTypes; ++i) {
    dist.freq[i] =
        static_cast<double>(counts.counts[i]) / static_cast<double>(total);
  }
  return dist;
}

GraphletCounts CountGraphlets(const Graph& g) {
  GraphletCounts out;
  EnumerateSizeK(g, 3, out);
  EnumerateSizeK(g, 4, out);
  return out;
}

GraphletDistribution GraphletsOf(const Graph& g) {
  return NormalizeGraphlets(CountGraphlets(g));
}

GraphletDistribution GraphletsOfDatabase(const GraphDatabase& db) {
  GraphletCounts sum;
  for (const Graph& g : db.graphs()) sum += CountGraphlets(g);
  return NormalizeGraphlets(sum);
}

}  // namespace vqi
