#include "net/serving.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "net/http_server.h"
#include "obs/export.h"
#include "service/resilience/circuit_breaker.h"
#include "shard/sharded_router.h"

namespace vqi {
namespace net {

namespace {

/// True when `value` is a number holding an exact integer in [lo, hi].
bool AsInt64(const JsonValue& value, int64_t lo, int64_t hi, int64_t* out) {
  if (!value.is_number()) return false;
  double number = value.number_value();
  if (std::floor(number) != number) return false;
  // double(INT64_MAX) rounds UP to 2^63, so a plain `> double(hi)` check
  // with hi == INT64_MAX admits 2^63 and the cast below would be UB on
  // untrusted input. Reject at the exact bound first (>= because 2^63 is
  // itself representable; every in-range double below it casts safely).
  if (number >= 9223372036854775808.0 /* 2^63 */) return false;
  if (number < static_cast<double>(lo) || number > static_cast<double>(hi)) {
    return false;
  }
  *out = static_cast<int64_t>(number);
  return true;
}

Status BadField(std::string_view key, std::string_view expectation) {
  return Status::InvalidArgument("field '" + std::string(key) + "' " +
                                 std::string(expectation));
}

/// Decodes {"vertices": [label...], "edges": [[u, v, label?]...]}.
Status PatternFromJson(const JsonValue& json, Graph* pattern) {
  if (!json.is_object()) return BadField("pattern", "must be an object");
  for (const auto& [key, value] : json.object_items()) {
    if (key != "vertices" && key != "edges") {
      return Status::InvalidArgument("unknown pattern field '" + key + "'");
    }
  }
  const JsonValue* vertices = json.Find("vertices");
  if (vertices == nullptr || !vertices->is_array() ||
      vertices->array().empty()) {
    return BadField("pattern.vertices",
                    "must be a non-empty array of vertex labels");
  }
  constexpr int64_t kMaxLabel = 0xFFFFFFFF;
  for (const JsonValue& label : vertices->array()) {
    int64_t value = 0;
    if (!AsInt64(label, 0, kMaxLabel, &value)) {
      return BadField("pattern.vertices", "entries must be integer labels");
    }
    pattern->AddVertex(static_cast<Label>(value));
  }
  const int64_t vertex_count = static_cast<int64_t>(pattern->NumVertices());
  const JsonValue* edges = json.Find("edges");
  if (edges != nullptr) {
    if (!edges->is_array()) {
      return BadField("pattern.edges", "must be an array of [u, v, label]");
    }
    for (const JsonValue& edge : edges->array()) {
      if (!edge.is_array() || edge.array().size() < 2 ||
          edge.array().size() > 3) {
        return BadField("pattern.edges",
                        "entries must be [u, v] or [u, v, label]");
      }
      int64_t u = 0;
      int64_t v = 0;
      int64_t label = 0;
      if (!AsInt64(edge.array()[0], 0, vertex_count - 1, &u) ||
          !AsInt64(edge.array()[1], 0, vertex_count - 1, &v)) {
        return BadField("pattern.edges",
                        "endpoints must index pattern.vertices");
      }
      if (edge.array().size() == 3 &&
          !AsInt64(edge.array()[2], 0, kMaxLabel, &label)) {
        return BadField("pattern.edges", "labels must be integers");
      }
      if (!pattern->AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v),
                            static_cast<Label>(label))) {
        return BadField("pattern.edges",
                        "contains a self-loop or duplicate edge");
      }
    }
  }
  return Status::OK();
}

JsonValue SuggestionsJson(const QueryResult& result) {
  JsonValue suggestions = JsonValue::Array();
  for (const EdgeSuggestion& s : result.suggestions) {
    JsonValue entry = JsonValue::Object();
    entry.Set("from_label", JsonValue::Number(static_cast<double>(s.from_label)));
    entry.Set("edge_label", JsonValue::Number(static_cast<double>(s.edge_label)));
    entry.Set("to_label", JsonValue::Number(static_cast<double>(s.to_label)));
    entry.Set("support", JsonValue::Number(static_cast<double>(s.support)));
    suggestions.Append(entry);
  }
  return suggestions;
}

JsonValue MatchedGraphsJson(const QueryResult& result) {
  JsonValue matched = JsonValue::Array();
  for (GraphId id : result.matched_graphs) {
    matched.Append(JsonValue::Number(static_cast<double>(id)));
  }
  return matched;
}

}  // namespace

StatusOr<QueryRequest> QueryRequestFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  QueryRequest request;
  bool saw_pattern = false;
  for (const auto& [key, value] : json.object_items()) {
    if (key == "kind") {
      if (!value.is_string()) return BadField(key, "must be a string");
      const std::string& kind = value.string_value();
      if (kind == "match_count") {
        request.kind = QueryKind::kMatchCount;
      } else if (kind == "suggest") {
        request.kind = QueryKind::kSuggest;
      } else {
        return BadField(key, "must be \"match_count\" or \"suggest\"");
      }
    } else if (key == "pattern") {
      if (Status status = PatternFromJson(value, &request.pattern);
          !status.ok()) {
        return status;
      }
      saw_pattern = true;
    } else if (key == "target") {
      int64_t target = 0;
      if (!AsInt64(value, kAllGraphs, INT64_MAX, &target)) {
        return BadField(key, "must be a graph id (or -1 for all graphs)");
      }
      request.target = target;
    } else if (key == "targets") {
      if (!value.is_array()) return BadField(key, "must be an array of ids");
      for (const JsonValue& id : value.array()) {
        int64_t target = 0;
        if (!AsInt64(id, 0, INT64_MAX, &target)) {
          return BadField(key, "entries must be non-negative graph ids");
        }
        request.targets.push_back(target);
      }
    } else if (key == "deadline_ms") {
      if (!value.is_number() || value.number_value() < 0) {
        return BadField(key, "must be a non-negative number");
      }
      request.deadline_ms = value.number_value();
    } else if (key == "max_embeddings") {
      int64_t cap = 0;
      if (!AsInt64(value, 0, INT64_MAX, &cap)) {
        return BadField(key, "must be a non-negative integer");
      }
      request.max_embeddings = static_cast<uint64_t>(cap);
    } else if (key == "focus") {
      int64_t focus = 0;
      if (!AsInt64(value, 0, 0xFFFFFFFF, &focus)) {
        return BadField(key, "must be a vertex index");
      }
      request.focus = static_cast<VertexId>(focus);
    } else if (key == "top_k") {
      int64_t top_k = 0;
      if (!AsInt64(value, 1, 1 << 20, &top_k)) {
        return BadField(key, "must be a positive integer");
      }
      request.top_k = static_cast<size_t>(top_k);
    } else if (key == "priority") {
      if (!value.is_string()) return BadField(key, "must be a string");
      const std::string& priority = value.string_value();
      if (priority == "interactive") {
        request.priority = RequestPriority::kInteractive;
      } else if (priority == "normal") {
        request.priority = RequestPriority::kNormal;
      } else if (priority == "background") {
        request.priority = RequestPriority::kBackground;
      } else {
        return BadField(
            key, "must be \"interactive\", \"normal\", or \"background\"");
      }
    } else if (key == "allow_partial") {
      if (!value.is_bool()) return BadField(key, "must be a boolean");
      request.allow_partial = value.bool_value();
    } else {
      return Status::InvalidArgument("unknown request field '" + key + "'");
    }
  }
  if (!saw_pattern) {
    return Status::InvalidArgument("request is missing 'pattern'");
  }
  if (request.kind == QueryKind::kSuggest &&
      request.focus >= request.pattern.NumVertices()) {
    return BadField("focus", "must index a pattern vertex");
  }
  return request;
}

JsonValue QueryResultContentJson(const QueryResult& result) {
  JsonValue json = JsonValue::Object();
  json.Set("status", JsonValue::String(StatusCodeToString(result.status.code())));
  json.Set("embedding_count",
           JsonValue::Number(static_cast<double>(result.embedding_count)));
  json.Set("matched_graphs", MatchedGraphsJson(result));
  json.Set("suggestions", SuggestionsJson(result));
  json.Set("truncated", JsonValue::Bool(result.truncated));
  return json;
}

JsonValue QueryResultToJson(const QueryResult& result) {
  JsonValue json = QueryResultContentJson(result);
  if (!result.status.ok()) {
    JsonValue error = JsonValue::Object();
    error.Set("code", JsonValue::String(StatusCodeToString(result.status.code())));
    error.Set("message", JsonValue::String(result.status.message()));
    json.Set("error", std::move(error));
  }
  json.Set("from_cache", JsonValue::Bool(result.from_cache));
  json.Set("coalesced", JsonValue::Bool(result.coalesced));
  json.Set("latency_ms", JsonValue::Number(result.latency_ms));
  json.Set("match_steps",
           JsonValue::Number(static_cast<double>(result.match_steps)));
  return json;
}

void AppendQueryResultJson(const QueryResult& result, std::string* out) {
  // Field for field the order QueryResultContentJson and QueryResultToJson
  // insert their keys in; numbers go through the same double conversion.
  out->reserve(out->size() + 192 + 8 * result.matched_graphs.size() +
               80 * result.suggestions.size());
  *out += "{\"status\":";
  AppendJsonString(StatusCodeToString(result.status.code()), out);
  *out += ",\"embedding_count\":";
  AppendJsonNumber(static_cast<double>(result.embedding_count), out);
  *out += ",\"matched_graphs\":[";
  for (size_t i = 0; i < result.matched_graphs.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendJsonNumber(static_cast<double>(result.matched_graphs[i]), out);
  }
  *out += "],\"suggestions\":[";
  for (size_t i = 0; i < result.suggestions.size(); ++i) {
    const EdgeSuggestion& s = result.suggestions[i];
    *out += i > 0 ? ",{\"from_label\":" : "{\"from_label\":";
    AppendJsonNumber(static_cast<double>(s.from_label), out);
    *out += ",\"edge_label\":";
    AppendJsonNumber(static_cast<double>(s.edge_label), out);
    *out += ",\"to_label\":";
    AppendJsonNumber(static_cast<double>(s.to_label), out);
    *out += ",\"support\":";
    AppendJsonNumber(static_cast<double>(s.support), out);
    out->push_back('}');
  }
  *out += result.truncated ? "],\"truncated\":true" : "],\"truncated\":false";
  if (!result.status.ok()) {
    *out += ",\"error\":{\"code\":";
    AppendJsonString(StatusCodeToString(result.status.code()), out);
    *out += ",\"message\":";
    AppendJsonString(result.status.message(), out);
    out->push_back('}');
  }
  *out += result.from_cache ? ",\"from_cache\":true" : ",\"from_cache\":false";
  *out += result.coalesced ? ",\"coalesced\":true" : ",\"coalesced\":false";
  *out += ",\"latency_ms\":";
  AppendJsonNumber(result.latency_ms, out);
  *out += ",\"match_steps\":";
  AppendJsonNumber(static_cast<double>(result.match_steps), out);
  out->push_back('}');
}

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kFailedPrecondition:
      return 409;
    case StatusCode::kResourceExhausted:
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kCancelled:
      // nginx's "client closed request" convention; a cancelled hedge loser
      // normally never reaches the wire, but the mapping must exist.
      return 499;
    default:
      return 500;
  }
}

HttpResponse JsonErrorResponse(const Status& status) {
  HttpResponse response;
  response.status = HttpStatusFor(status);
  response.body = JsonErrorBody(status);
  return response;
}

QueryServing::QueryServing(QueryService* service, Options options)
    : service_(service), options_(options) {}

QueryServing::QueryServing(shard::ShardedRouter* router, Options options)
    : router_(router), options_(options) {}

HttpResponse QueryServing::Handle(const HttpRequest& request) {
  const std::string path(request.path());
  if (path == "/metrics") {
    if (request.method != "GET") {
      return JsonErrorResponse(
          Status::InvalidArgument("/metrics only supports GET"));
    }
    return HandleMetrics();
  }
  if (path == "/healthz") {
    if (request.method != "GET") {
      return JsonErrorResponse(
          Status::InvalidArgument("/healthz only supports GET"));
    }
    return HandleHealthz();
  }
  if (path == "/query") {
    if (request.method != "POST") {
      HttpResponse response = JsonErrorResponse(
          Status::InvalidArgument("/query only supports POST"));
      response.status = 405;
      response.headers.emplace_back("Allow", "POST");
      return response;
    }
    return HandleQuery(request);
  }
  HttpResponse response =
      JsonErrorResponse(Status::NotFound("no such endpoint: " + path));
  return response;
}

HttpResponse QueryServing::HandleMetrics() {
  HttpResponse response;
  if (options_.metrics == nullptr) {
    return JsonErrorResponse(
        Status::FailedPrecondition("no metrics registry is wired"));
  }
  response.status = 200;
  response.content_type = "text/plain; version=0.0.4";
  response.body = obs::ToPrometheusText(*options_.metrics);
  return response;
}

HttpResponse QueryServing::HandleHealthz() {
  const bool draining = server_ != nullptr && server_->draining();
  const size_t depth =
      router_ != nullptr ? router_->QueueDepth() : service_->QueueDepth();
  const size_t capacity = router_ != nullptr ? router_->queue_capacity()
                                             : service_->queue_capacity();
  const size_t threads =
      router_ != nullptr ? router_->num_threads() : service_->num_threads();
  const bool degraded =
      capacity > 0 && static_cast<double>(depth) >=
                          options_.degraded_queue_fraction *
                              static_cast<double>(capacity);

  JsonValue json = JsonValue::Object();
  json.Set("status", JsonValue::String(draining    ? "draining"
                                       : degraded ? "degraded"
                                                  : "ok"));
  json.Set("queue_depth", JsonValue::Number(static_cast<double>(depth)));
  json.Set("queue_capacity", JsonValue::Number(static_cast<double>(capacity)));
  json.Set("threads", JsonValue::Number(static_cast<double>(threads)));
  ServiceStats stats = router_ != nullptr ? router_->AggregateSnapshot()
                                          : service_->Snapshot();
  json.Set("admitted", JsonValue::Number(static_cast<double>(stats.admitted)));
  json.Set("shed", JsonValue::Number(static_cast<double>(stats.shed)));
  if (server_ != nullptr) {
    json.Set("active_connections",
             JsonValue::Number(
                 static_cast<double>(server_->active_connections())));
  }
  if (router_ != nullptr) {
    // Fleet view: a single dark replica shows up as one "open" entry here
    // while the overall status stays "ok" — its siblings absorb the reads,
    // the collection keeps serving. Unreplicated fleets (R = 1) keep the
    // original flat shard_breakers array; replicated fleets nest one array
    // per shard so the entry at [shard][replica] is that replica's breaker.
    json.Set("shards",
             JsonValue::Number(static_cast<double>(router_->num_shards())));
    json.Set("replicas",
             JsonValue::Number(static_cast<double>(router_->num_replicas())));
    JsonValue breakers = JsonValue::Array();
    for (size_t i = 0; i < router_->num_shards(); ++i) {
      if (router_->num_replicas() == 1) {
        breakers.Append(JsonValue::String(resilience::BreakerStateName(
            router_->client(i).breaker_state())));
        continue;
      }
      JsonValue replica_breakers = JsonValue::Array();
      for (size_t r = 0; r < router_->num_replicas(); ++r) {
        replica_breakers.Append(JsonValue::String(resilience::BreakerStateName(
            router_->client(i, r).breaker_state())));
      }
      breakers.Append(std::move(replica_breakers));
    }
    json.Set("shard_breakers", std::move(breakers));
  }
  HttpResponse response;
  // A draining server answers health checks (so orchestrators see the state
  // transition) but advertises itself unready.
  response.status = draining ? 503 : 200;
  response.body = json.Dump();
  return response;
}

HttpResponse QueryServing::HandleQuery(const HttpRequest& request) {
  StatusOr<JsonValue> parsed = ParseJson(request.body);
  if (!parsed.ok()) {
    return JsonErrorResponse(
        Status::InvalidArgument("bad JSON body: " + parsed.status().message()));
  }
  StatusOr<QueryRequest> decoded = QueryRequestFromJson(parsed.value());
  if (!decoded.ok()) {
    return JsonErrorResponse(decoded.status());
  }
  QueryResult result = router_ != nullptr
                           ? router_->Execute(std::move(decoded).value())
                           : service_->Execute(std::move(decoded).value());
  HttpResponse response;
  response.status = HttpStatusFor(result.status);
  AppendQueryResultJson(result, &response.body);
  return response;
}

}  // namespace net
}  // namespace vqi
