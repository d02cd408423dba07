#ifndef VQLIB_MINING_GRAPHLETS_H_
#define VQLIB_MINING_GRAPHLETS_H_

#include <array>
#include <cstdint>
#include <string>

#include "graph/graph.h"
#include "graph/graph_database.h"

namespace vqi {

/// The eight connected 3- and 4-vertex graphlet types (induced subgraphs),
/// the standard small-graphlet alphabet used by MIDAS's graphlet frequency
/// distribution.
enum GraphletType : int {
  kG3Path = 0,         // P3 (wedge)
  kG3Triangle = 1,     // K3
  kG4Path = 2,         // P4
  kG4Star = 3,         // K1,3 (claw)
  kG4Cycle = 4,        // C4
  kG4TailedTriangle = 5,
  kG4Diamond = 6,      // K4 minus an edge
  kG4Clique = 7,       // K4
  kNumGraphletTypes = 8,
};

/// Human-readable graphlet name ("P3", "C4", ...).
const char* GraphletTypeName(GraphletType type);

/// Exact counts of each connected induced 3-/4-vertex subgraph.
struct GraphletCounts {
  std::array<uint64_t, kNumGraphletTypes> counts = {};

  uint64_t total() const {
    uint64_t sum = 0;
    for (uint64_t c : counts) sum += c;
    return sum;
  }

  GraphletCounts& operator+=(const GraphletCounts& other) {
    for (int i = 0; i < kNumGraphletTypes; ++i) counts[i] += other.counts[i];
    return *this;
  }
};

/// Normalized graphlet frequency distribution (sums to 1 unless the graph
/// has no 3-vertex connected subgraphs at all, in which case all-zero).
struct GraphletDistribution {
  std::array<double, kNumGraphletTypes> freq = {};

  /// Euclidean (L2) distance between two distributions; this is the drift
  /// signal MIDAS thresholds to classify batch updates as major or minor.
  double DistanceTo(const GraphletDistribution& other) const;

  std::string DebugString() const;
};

/// Exact graphlet counting via ESU (Wernicke) enumeration of connected
/// 3- and 4-vertex induced subgraphs. Intended for small/medium data graphs;
/// cost is proportional to the number of such subgraphs.
GraphletCounts CountGraphlets(const Graph& g);

/// Distribution of one graph.
GraphletDistribution GraphletsOf(const Graph& g);

/// Distribution of counts summed over any set of graphs.
GraphletDistribution NormalizeGraphlets(const GraphletCounts& counts);

/// Aggregate distribution of a database: counts are summed across graphs and
/// then normalized, so every embedded subgraph has equal influence.
GraphletDistribution GraphletsOfDatabase(const GraphDatabase& db);

}  // namespace vqi

#endif  // VQLIB_MINING_GRAPHLETS_H_
