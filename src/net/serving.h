#ifndef VQLIB_NET_SERVING_H_
#define VQLIB_NET_SERVING_H_

#include <string>

#include "common/status.h"
#include "net/http_message.h"
#include "net/json.h"
#include "service/query_service.h"

namespace vqi {

namespace shard {
class ShardedRouter;
}  // namespace shard

namespace net {

class HttpServer;

/// Decodes a POST /query JSON body into a QueryRequest. Strict: unknown
/// top-level keys are rejected so typos fail loudly instead of silently
/// running with defaults. Schema (all fields optional except `pattern`):
///
///   {
///     "kind": "match_count" | "suggest",          // default match_count
///     "pattern": {
///       "vertices": [<label>, ...],               // vertex i gets label[i]
///       "edges": [[u, v, <edge label>], ...]      // label may be omitted
///     },
///     "target": <graph id>,                       // default -1 (all graphs)
///     "targets": [<graph id>, ...],               // overrides "target"
///     "deadline_ms": <number >= 0>,               // 0 disables (default)
///     "max_embeddings": <int >= 0>,               // 0 = unlimited
///     "focus": <vertex index>,                    // suggest only
///     "top_k": <int >= 1>,                        // suggest only
///     "priority": "interactive"|"normal"|"background",
///     "allow_partial": <bool>
///   }
StatusOr<QueryRequest> QueryRequestFromJson(const JsonValue& json);

/// Full wire encoding of a QueryResult: content fields plus the transport
/// diagnostics (from_cache, coalesced, latency_ms, match_steps). Non-OK
/// results carry {"error": {"code", "message"}}.
JsonValue QueryResultToJson(const QueryResult& result);

/// Streaming form of QueryResultToJson(result).Dump(): appends the same bytes
/// to `out` without building a JsonValue tree. /query responses are written
/// with it; the tree encoder stays for in-process callers and is this
/// writer's byte-for-byte reference in the tests.
void AppendQueryResultJson(const QueryResult& result, std::string* out);

/// The deterministic subset of a result: status code, embedding_count,
/// matched_graphs, suggestions, truncated. Excludes latency, cache/coalesce
/// provenance, and step counts — everything that legitimately varies between
/// an in-process call and a wire round trip. serve-bench compares the HTTP
/// path against direct Execute() on exactly this encoding.
JsonValue QueryResultContentJson(const QueryResult& result);

/// Maps an application Status onto an HTTP status code: OK→200,
/// InvalidArgument/ParseError→400, NotFound→404, FailedPrecondition→409,
/// Cancelled→499, ResourceExhausted/Unavailable→503, DeadlineExceeded→504,
/// rest→500.
int HttpStatusFor(const Status& status);

/// Routes requests for the three served endpoints:
///
///   GET  /metrics  — Prometheus text exposition of the wired registry
///   GET  /healthz  — liveness + saturation JSON (200 ok/degraded, 503
///                    while draining)
///   POST /query    — JSON query API over QueryService
///
/// Unknown paths get 404, wrong methods on known paths 405. Handle() runs
/// on server worker threads; QueryServing itself is stateless beyond the
/// wired components, so it is thread-safe if they are.
///
/// Can front either one QueryService or a shard::ShardedRouter. In router
/// mode /query executes through the router (which runs each replica behind
/// its own resilience client) and /healthz aggregates saturation across the
/// fleet: summed queue depths and capacities, summed shard ServiceStats,
/// `shards` and `replicas` counts, and every replica's breaker state
/// (`shard_breakers`: a flat array when R = 1, one nested array per shard
/// when the fleet is replicated).
class QueryServing {
 public:
  struct Options {
    /// Registry /metrics renders. Typically the same registry every wired
    /// component reports into. Must outlive this.
    obs::MetricsRegistry* metrics = nullptr;
    /// Queue occupancy fraction at which /healthz flips "ok" → "degraded".
    double degraded_queue_fraction = 0.9;
  };

  QueryServing(QueryService* service, Options options);
  /// Router mode: fronts a sharded fleet instead of one service.
  QueryServing(shard::ShardedRouter* router, Options options);

  /// Wires the server whose drain state and connection count /healthz
  /// reports. Call once between constructing the server and Start().
  void set_server(const HttpServer* server) { server_ = server; }

  HttpResponse Handle(const HttpRequest& request);

 private:
  HttpResponse HandleMetrics();
  HttpResponse HandleHealthz();
  HttpResponse HandleQuery(const HttpRequest& request);

  QueryService* service_ = nullptr;
  shard::ShardedRouter* router_ = nullptr;
  Options options_;
  const HttpServer* server_ = nullptr;
};

/// JsonErrorBody with HttpStatusFor's HTTP status; every non-OK reply
/// QueryServing produces goes through this.
HttpResponse JsonErrorResponse(const Status& status);

}  // namespace net
}  // namespace vqi

#endif  // VQLIB_NET_SERVING_H_
