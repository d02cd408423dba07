#include "graph/graph_database.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"

namespace vqi {

namespace {

// One counter for every database in the process (see ContentVersion).
uint64_t NextContentVersion() {
  static std::atomic<uint64_t> counter{0};
  return ++counter;
}

}  // namespace

GraphId GraphDatabase::Add(Graph g) {
  GraphId id = g.id();
  if (id < 0) {
    id = next_id_++;
    g.set_id(id);
  } else {
    next_id_ = std::max(next_id_, id + 1);
  }
  VQI_CHECK(index_.find(id) == index_.end())
      << "graph id " << id << " already present";
  index_[id] = graphs_.size();
  version_ = versions_[id] = NextContentVersion();
  graphs_.push_back(std::move(g));
  return id;
}

bool GraphDatabase::Remove(GraphId id) {
  auto it = index_.find(id);
  if (it == index_.end()) return false;
  size_t pos = it->second;
  size_t last = graphs_.size() - 1;
  if (pos != last) {
    graphs_[pos] = std::move(graphs_[last]);
    index_[graphs_[pos].id()] = pos;
  }
  graphs_.pop_back();
  index_.erase(it);
  version_ = versions_[id] = NextContentVersion();
  return true;
}

const Graph& GraphDatabase::Get(GraphId id) const {
  auto it = index_.find(id);
  VQI_CHECK(it != index_.end()) << "graph id " << id << " not found";
  return graphs_[it->second];
}

std::vector<GraphId> GraphDatabase::Ids() const {
  std::vector<GraphId> ids;
  ids.reserve(graphs_.size());
  for (const Graph& g : graphs_) ids.push_back(g.id());
  return ids;
}

LabelStats GraphDatabase::ComputeLabelStats() const {
  LabelStats stats;
  for (const Graph& g : graphs_) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      ++stats.vertex_label_counts[g.VertexLabel(v)];
    }
    for (const Edge& e : g.Edges()) {
      ++stats.edge_label_counts[e.label];
    }
  }
  return stats;
}

size_t GraphDatabase::TotalVertices() const {
  size_t total = 0;
  for (const Graph& g : graphs_) total += g.NumVertices();
  return total;
}

size_t GraphDatabase::TotalEdges() const {
  size_t total = 0;
  for (const Graph& g : graphs_) total += g.NumEdges();
  return total;
}

}  // namespace vqi
