#ifndef VQLIB_METRICS_COVERAGE_H_
#define VQLIB_METRICS_COVERAGE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "graph/graph.h"
#include "graph/graph_database.h"
#include "match/candidate_index.h"
#include "match/vf2.h"
#include "truss/truss.h"

namespace vqi {

/// --- Database coverage (CATAPULT/MIDAS semantics) -------------------------
/// A pattern p covers data graph G when G contains a subgraph isomorphic to
/// p. Coverage of a pattern set = fraction of database graphs covered by at
/// least one pattern.

/// Bitset over db.graphs() order: bit i set iff pattern occurs in graph i.
/// Builds a CollectionIndex for this one pattern; loops over many patterns
/// should build one and call the overload below.
Bitset CoverageBits(const GraphDatabase& db, const Graph& pattern);

/// Fraction of graphs covered by `pattern` alone.
double DbCoverage(const GraphDatabase& db, const Graph& pattern);

/// Fraction of graphs covered by at least one pattern in `patterns`.
double DbSetCoverage(const GraphDatabase& db,
                     const std::vector<Graph>& patterns);

/// The same scores against a CollectionIndex built once and shared by every
/// pattern a call scores (CATAPULT's ScoreCandidates, DbSetCoverage).
/// The checks are unbudgeted existence tests, so every index kind gives the
/// same bits; offline callers build theirs with kNoTrussShells, since on
/// molecule-sized graphs the decomposition costs more than its pruning
/// saves. Bit i is the index's i-th graph, its database's graphs() order.
Bitset CoverageBits(const CollectionIndex& index, const Graph& pattern);

/// Fraction of the index's graphs covered by `pattern` (0 when it is empty).
double DbCoverage(const CollectionIndex& index, const Graph& pattern);

/// --- Network coverage (TATTOO semantics) ----------------------------------
/// On a single large network, coverage of a pattern is the fraction of the
/// network's *edges* touched by some embedding. Exact enumeration is
/// intractable, so embeddings are enumerated up to `max_embeddings` and
/// `max_steps`, matching TATTOO's budgeted estimation.

struct NetworkCoverageOptions {
  uint64_t max_embeddings = 256;
  uint64_t max_steps = 200000;
  bool match_vertex_labels = true;
};

/// Bitset over the network's edge list (g.Edges() order): bit set iff that
/// edge is used by one of the enumerated embeddings of `pattern`. Builds a
/// NetworkCoverageIndex for this one pattern; loops over many patterns
/// should build one and reuse it (same bits).
Bitset NetworkCoverageBits(const Graph& network,
                           const std::vector<Edge>& network_edges,
                           const Graph& pattern,
                           const NetworkCoverageOptions& options = {});

/// Fraction of network edges covered by a pattern set under the budget.
double NetworkSetCoverage(const Graph& network,
                          const std::vector<Graph>& patterns,
                          const NetworkCoverageOptions& options = {});

/// What network coverage needs besides the pattern, built once per network
/// and shared by every pattern a call scores (TATTOO select, network
/// maintenance, distributed TATTOO, the summarizer): the network's
/// MatchIndex, truss shells included, and the map from edge key to position
/// in `network_edges`. Valid while `network` is unchanged.
class NetworkCoverageIndex {
 public:
  /// Decomposes `network` for the shells.
  NetworkCoverageIndex(const Graph& network,
                       const std::vector<Edge>& network_edges);

  /// Reads the shells off `truss`, which must be DecomposeTruss(network):
  /// RunTattoo hands in the decomposition its region split used.
  NetworkCoverageIndex(const Graph& network,
                       const std::vector<Edge>& network_edges,
                       const TrussDecomposition& truss);

  /// NetworkCoverageBits(network, network_edges, pattern, options).
  Bitset Bits(const Graph& pattern,
              const NetworkCoverageOptions& options = {}) const;

  /// Fraction of the edges `pattern` covers (0 on an edgeless network).
  double Fraction(const Graph& pattern,
                  const NetworkCoverageOptions& options = {}) const;

 private:
  NetworkCoverageIndex(MatchIndex index,
                       const std::vector<Edge>& network_edges);

  MatchIndex index_;
  std::unordered_map<uint64_t, size_t> edge_position_;
  size_t num_edges_ = 0;
};

}  // namespace vqi

#endif  // VQLIB_METRICS_COVERAGE_H_
