#ifndef VQLIB_SERVICE_QUERY_TYPES_H_
#define VQLIB_SERVICE_QUERY_TYPES_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "vqi/suggestion.h"

namespace vqi {

/// Request target meaning "match against every graph in the database".
inline constexpr GraphId kAllGraphs = -1;

/// The two interactive workloads a VQI front end issues while the user draws:
/// evaluate the current visual query (subgraph matching), or rank plausible
/// next edges for the vertex being extended (auto-suggestion).
enum class QueryKind { kMatchCount, kSuggest };

/// Admission priority under overload. When the queue crosses the service's
/// high-water mark, kBackground work is shed first, then kNormal; a user
/// actively drawing (kInteractive) is only rejected by a completely full
/// queue.
enum class RequestPriority : uint8_t {
  kInteractive = 0,
  kNormal = 1,
  kBackground = 2,
};

/// "interactive", "normal", or "background".
const char* RequestPriorityName(RequestPriority priority);

/// One request against the service.
struct QueryRequest {
  QueryKind kind = QueryKind::kMatchCount;
  /// The (partial) visual query graph. Must be non-empty.
  Graph pattern;
  /// Graph to match against, or kAllGraphs for the whole collection. Ignored
  /// when `targets` is non-empty.
  GraphId target = kAllGraphs;
  /// Collection-scoped kMatchCount: when non-empty, match against exactly
  /// these graphs (each id must exist; duplicates are matched once). Cached
  /// results of such a request are keyed by the content version of every
  /// member, so an edit of graph g misses only the sets that contain g.
  std::vector<GraphId> targets;
  /// Wall-clock budget measured from admission; 0 disables the deadline.
  double deadline_ms = 0;
  /// Embedding cap per target graph for kMatchCount (0 = unlimited).
  uint64_t max_embeddings = 1000;
  /// For kSuggest: the vertex of `pattern` the user is extending.
  VertexId focus = 0;
  /// For kSuggest: how many ranked continuations to return.
  size_t top_k = 5;
  /// Load-shedding class under overload (see RequestPriority).
  RequestPriority priority = RequestPriority::kNormal;
  /// Graceful degradation: when true, a kMatchCount request whose deadline
  /// expires returns everything found so far as an OK result with
  /// `truncated` set, instead of a bare kDeadlineExceeded. Partial results
  /// are always a subset of the fault-free answer (every counted embedding
  /// and matched graph is real); they are never cached. A coalesced waiter
  /// with allow_partial also accepts a partial result fanned out by its
  /// leader (see docs/service.md).
  bool allow_partial = false;
  /// Cooperative cancellation. When set and flipped to true, the matcher
  /// abandons the request at the next VF2 slice boundary ("max_steps
  /// poisoning": the remaining step budget is treated as exhausted) and the
  /// request completes with kCancelled. Used by the sharded router to cancel
  /// the loser of a hedged pair (see docs/sharding.md); nullptr means the
  /// request is not cancellable.
  std::shared_ptr<std::atomic<bool>> cancel;
  /// True for a router-issued hedge of an in-flight request. A hedge bypasses
  /// request coalescing — joining the in-flight table would park it behind
  /// the very primary it is meant to race — but still probes the cache.
  bool hedge = false;
};

/// Outcome of one request. `status` is OK, kDeadlineExceeded (budget ran out
/// before the answer was complete), kNotFound (unknown target id), or
/// kInvalidArgument.
struct QueryResult {
  Status status;
  /// kMatchCount: total embeddings found (capped per graph).
  uint64_t embedding_count = 0;
  /// kMatchCount: ids of target graphs with at least one embedding.
  std::vector<GraphId> matched_graphs;
  /// kSuggest: ranked next-edge continuations for the focus vertex.
  std::vector<EdgeSuggestion> suggestions;
  /// True when served from the result cache without touching the matcher.
  bool from_cache = false;
  /// True when this response was fanned out from (or resolved by) a
  /// coalesced in-flight leader instead of its own backend execution.
  bool coalesced = false;
  /// True when the answer is incomplete (deadline expired mid-search). With
  /// QueryRequest::allow_partial the status is still OK; otherwise the
  /// partial counts accompany a kDeadlineExceeded status.
  bool truncated = false;
  /// Admission-to-completion latency.
  double latency_ms = 0;
  /// Matcher work performed for THIS response: VF2 recursion steps and
  /// cooperative deadline slices. Zero for cache hits, coalesced waiter
  /// responses, and suggestions.
  uint64_t match_steps = 0;
  uint32_t match_slices = 0;
};

}  // namespace vqi

#endif  // VQLIB_SERVICE_QUERY_TYPES_H_
