#ifndef VQLIB_MATCH_CANONICAL_H_
#define VQLIB_MATCH_CANONICAL_H_

#include <cstdint>
#include <optional>
#include <string>

#include "graph/graph.h"

namespace vqi {

/// Computes a canonical form of `g`: two graphs get the same code iff they
/// are isomorphic (respecting vertex and edge labels).
///
/// Implementation: color refinement (1-WL with labels) plus
/// individualization–refinement backtracking, taking the lexicographically
/// smallest adjacency encoding over all discrete partitions reached. The
/// search branches on one vertex per twin class (same label, same labelled
/// edges to every other vertex), so stars, K2,k, TATTOO petals and sets of
/// isolated vertices cost one path. Intended for *small* graphs (patterns,
/// queries; n <= 64 enforced). It is exact for all graphs; what twins do not
/// collapse still costs one leaf per automorphism: k disjoint same-label
/// edges, for one, reach k! leaves (10 edges take seconds).
std::string CanonicalCode(const Graph& g);

/// CanonicalCode(g) when its search visits at most `max_nodes` nodes (the
/// root, each individualized child and each leaf count one), nullopt
/// otherwise: for a caller that must bound the time one pattern can take.
std::optional<std::string> CanonicalCodeWithin(const Graph& g,
                                               uint64_t max_nodes);

/// True when `a` and `b` are isomorphic (labels respected). Cheap invariants
/// (sizes, degree sequences, label multisets) are checked before canonical
/// codes are compared.
bool AreIsomorphic(const Graph& a, const Graph& b);

}  // namespace vqi

#endif  // VQLIB_MATCH_CANONICAL_H_
