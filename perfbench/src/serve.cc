// The serving phases of a session: closed-loop HTTP clients on loopback
// against QueryServing in front of a sharded fleet (the fleet phase, hot or
// cold draws) or one QueryService under MIDAS maintenance (the churn phase).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/serving.h"
#include "report.h"
#include "service/query_service.h"
#include "shard/sharded_router.h"
#include "stats.h"
#include "trace.h"
#include "vqi/builder.h"
#include "vqi/maintainer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using vqi::Graph;
using vqi::QueryRequest;
using vqi::QueryResult;
using vqi::obs::HistogramSnapshot;
namespace net = vqi::net;

constexpr size_t kMolecules = 1000;
/// One benchmark process with 2 closed-loop clients. On the 4-core machine
/// the sizes were taken on, 4 clients (one per core) kept every core busy
/// with clients, server threads and fan-out pools, so latency measured how
/// soon the scheduler woke each hand-off: p50 and throughput moved by
/// 8-16% between runs of the same seed.
constexpr size_t kClients = 2;
/// Set-up is repeated and its median reported, so set-up time is stable
/// enough to gate on.
constexpr size_t kSetups = 3;
constexpr uint64_t kMaxEmbeddings = 2000;
/// 6 atom labels x 3 bond labels: every continuation of a label fits, so
/// the router's merge of per-shard top-k lists equals the unsharded ranking
/// (a smaller k is approximate by design, see docs/sharding.md).
constexpr size_t kSuggestTopK = 18;
constexpr double kSuggestShare = 0.2;

constexpr size_t kHotPatterns = 200;
/// Upper bound on vertices of a hot pattern (8 edges, connected), used to
/// pack (pattern, focus) into one check key.
constexpr uint32_t kMaxPatternVertices = 16;

// ---------------------------------------------------------------------------
// The HTTP front.

using Executor = std::function<QueryResult(QueryRequest)>;

uint64_t QueryParam(const std::string& target, const char* key) {
  const std::string needle = std::string(key) + "=";
  size_t at = target.find('?');
  while (at != std::string::npos) {
    ++at;
    if (target.compare(at, needle.size(), needle) == 0) {
      return std::strtoull(target.c_str() + at + needle.size(), nullptr, 10);
    }
    at = target.find('&', at);
  }
  return 0;
}

/// The benchmark-supplied server handler. Untraced it is
/// QueryServing::Handle. Traced, POST /query composes the same public calls
/// QueryServing makes (decode, execute, encode) so each gets a span; the
/// client passes its request id and roundtrip span id in the query string.
class Front {
 public:
  Front(net::QueryServing& serving, Executor execute)
      : serving_(serving), execute_(std::move(execute)) {
    net::HttpServerOptions options;
    options.num_threads = kClients;
    // One keep-alive connection per client for the whole run.
    options.max_keepalive_requests = size_t{1} << 40;
    // Clients sit idle while a maintenance batch applies.
    options.read_timeout_ms = 120000;
    server_ = std::make_unique<net::HttpServer>(
        [this](const net::HttpRequest& request) { return Handle(request); },
        options);
    serving_.set_server(server_.get());
  }
  Front(const Front&) = delete;
  Front& operator=(const Front&) = delete;

  vqi::Status Start() { return server_->Start(); }
  uint16_t port() const { return server_->port(); }
  uint64_t connections() const { return server_->connections_accepted(); }

 private:
  net::HttpResponse Handle(const net::HttpRequest& request) {
    if (!Tracer::Get().enabled() || request.path() != "/query" ||
        request.method != "POST") {
      return serving_.Handle(request);
    }
    const uint64_t rid = QueryParam(request.target, "rid");
    ScopedSpan handle("handle", rid, QueryParam(request.target, "parent"));
    std::optional<vqi::StatusOr<QueryRequest>> decoded;
    {
      ScopedSpan span("decode", rid, handle.id());
      auto parsed = net::ParseJson(request.body);
      if (!parsed.ok()) {
        return net::JsonErrorResponse(vqi::Status::InvalidArgument(
            "bad JSON body: " + parsed.status().message()));
      }
      decoded.emplace(net::QueryRequestFromJson(parsed.value()));
    }
    if (!decoded->ok()) return net::JsonErrorResponse(decoded->status());
    QueryResult result;
    {
      ScopedSpan span("execute", rid, handle.id());
      result = execute_(std::move(*decoded).value());
    }
    net::HttpResponse response;
    {
      ScopedSpan span("encode", rid, handle.id());
      response.status = net::HttpStatusFor(result.status);
      response.body = net::QueryResultToJson(result).Dump();
    }
    return response;
  }

  net::QueryServing& serving_;
  Executor execute_;
  std::unique_ptr<net::HttpServer> server_;
};

vqi::shard::ShardedRouterOptions FleetOptions() {
  vqi::shard::ShardedRouterOptions options;
  options.num_shards = 2;
  options.num_replicas = 2;
  return options;
}

/// Loopback HTTP -> QueryServing (router mode) -> 2 shards x 2 replicas.
struct RouterStack {
  explicit RouterStack(const vqi::GraphDatabase& db)
      : router(db, FleetOptions()),
        serving(&router, {.metrics = &router.metrics()}),
        front(serving,
              [this](QueryRequest request) { return router.Execute(std::move(request)); }) {}
  vqi::shard::ShardedRouter router;
  net::QueryServing serving;
  Front front;
};

/// Loopback HTTP -> QueryServing -> one QueryService.
struct ServiceStack {
  explicit ServiceStack(const vqi::GraphDatabase& db)
      : service(db),
        serving(&service, {.metrics = &service.metrics()}),
        front(serving,
              [this](QueryRequest request) { return service.Execute(std::move(request)); }) {}
  vqi::QueryService service;
  net::QueryServing serving;
  Front front;
};

// ---------------------------------------------------------------------------
// Closed-loop clients.

/// One request a client sends, and the key of the reference result its
/// response must equal.
struct Draw {
  std::string body;
  uint32_t key = 0;
};

/// Fills the next draw of client `index`; false when the client is done.
using NextDraw = std::function<bool(size_t index, vqi::Rng& rng, Draw* draw)>;

/// (check key, content hash) -> responses seen. Grows with distinct
/// requests, not with throughput.
using Responses = std::map<std::pair<uint32_t, uint64_t>, uint64_t>;

struct Tally {
  LatencyHistogram latency;  ///< successful roundtrips
  Responses responses;
  /// Check key -> matched graphs in its response.
  std::map<uint32_t, size_t> matched;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;  ///< transport errors, non-200s, unparsable bodies
  uint64_t match_steps = 0;
  /// One entry per RunClients call: that slice's latency percentiles and
  /// throughput.
  struct Slice {
    TailStat p50;
    TailStat p99;
    double qps = 0;
  };
  std::vector<Slice> slices;

  void Absorb(const Tally& other) {
    slices.insert(slices.end(), other.slices.begin(), other.slices.end());
    latency.Merge(other.latency);
    for (const auto& [response, count] : other.responses) {
      responses[response] += count;
    }
    matched.insert(other.matched.begin(), other.matched.end());
    sent += other.sent;
    ok += other.ok;
    failed += other.failed;
    match_steps += other.match_steps;
  }
};

struct Client {
  explicit Client(uint64_t seed) : rng(seed) {}
  net::HttpClient http;
  vqi::Rng rng;
};

std::atomic<uint64_t> g_next_request_id{1};

void ClientLoop(Client& client, uint16_t port, int64_t deadline_ns,
                size_t index, const NextDraw& next, Tally* tally) {
  Draw draw;
  size_t consecutive_failures = 0;
  while ((deadline_ns == 0 || NowNs() < deadline_ns) &&
         next(index, client.rng, &draw)) {
    ++tally->sent;
    if (!client.http.connected() &&
        !client.http.Connect("127.0.0.1", port).ok()) {
      ++tally->failed;
      if (++consecutive_failures >= 10) break;
      continue;
    }
    const uint64_t rid =
        g_next_request_id.fetch_add(1, std::memory_order_relaxed);
    const bool traced = Tracer::Get().enabled();
    const uint64_t span_id = traced ? Tracer::Get().NextId() : 0;
    const std::string target = "/query?rid=" + std::to_string(rid) +
                               "&parent=" + std::to_string(span_id);
    const int64_t start = NowNs();
    auto response = client.http.Roundtrip("POST", target, draw.body);
    const int64_t end = NowNs();
    if (traced) {
      Tracer::Get().Record({"roundtrip", span_id, 0, rid, start, end});
    }
    if (!response.ok()) {
      ++tally->failed;
      client.http.Close();
      if (++consecutive_failures >= 10) break;
      continue;
    }
    consecutive_failures = 0;
    if (response->status != 200) {
      ++tally->failed;
      continue;
    }
    auto wire = ParseWireResult(response->body);
    if (!wire.ok()) {
      ++tally->failed;
      continue;
    }
    ++tally->ok;
    tally->latency.Add(static_cast<double>(end - start) / 1e6);
    ++tally->responses[{draw.key, wire->content_hash}];
    tally->matched[draw.key] = wire->matched_graphs;
    tally->match_steps += wire->match_steps;
  }
}

/// Runs every client until `seconds` pass (0 = until `next` says done) and
/// records the run as one slice of `total`, at reference speed: its
/// latencies times `speed`, its throughput divided by it (see ProbeSpeed).
void RunClients(std::vector<std::unique_ptr<Client>>& clients, uint16_t port,
                double seconds, const NextDraw& next, Tally* total,
                double speed = 1) {
  const int64_t start = NowNs();
  const int64_t deadline =
      seconds > 0 ? start + static_cast<int64_t>(seconds * 1e9) : 0;
  std::vector<Tally> tallies(clients.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back(ClientLoop, std::ref(*clients[i]), port, deadline, i,
                         std::cref(next), &tallies[i]);
  }
  for (std::thread& thread : threads) thread.join();
  const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
  Tally run;
  for (const Tally& tally : tallies) run.Absorb(tally);
  Tally::Slice slice{Tail(run.latency, 0.5), Tail(run.latency, 0.99),
                     static_cast<double>(run.ok) / elapsed / speed};
  slice.p50.value *= speed;
  slice.p99.value *= speed;
  run.slices.push_back(slice);
  total->Absorb(run);
}

std::vector<std::unique_ptr<Client>> MakeClients(uint64_t seed) {
  vqi::Rng seeder(seed ^ 0xC11E7ull);
  std::vector<std::unique_ptr<Client>> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>(seeder.Next()));
  }
  return clients;
}

/// Draw `i` of client `client` during warm-up.
using WarmDraw = std::function<Draw(size_t client, size_t i, vqi::Rng& rng)>;

/// Every client sends `per_client` draws produced by `draw_at`.
void WarmUp(std::vector<std::unique_ptr<Client>>& clients, uint16_t port,
              size_t per_client, const WarmDraw& draw_at, Tally* tally) {
  std::vector<size_t> sent(clients.size(), 0);
  NextDraw next = [&](size_t index, vqi::Rng& rng, Draw* draw) {
    if (sent[index] >= per_client) return false;
    *draw = draw_at(index, sent[index]++, rng);
    return true;
  };
  RunClients(clients, port, 0, next, tally);
}

// ---------------------------------------------------------------------------
// Output checks.

/// Checks every response against a reference QueryService over `db` with
/// cache and coalescing off, which runs each distinct key once. Counts
/// mismatches as failed operations.
void VerifyResponses(const vqi::GraphDatabase& db, const Responses& responses,
                     const std::function<QueryRequest(uint32_t)>& request_for,
                     const std::string& what, Report& report) {
  const int64_t started = NowNs();
  std::map<uint32_t, uint64_t> expected;
  for (const auto& [response, count] : responses) expected.emplace(response.first, 0);
  vqi::QueryServiceOptions options;
  options.cache_capacity = 0;
  options.enable_coalescing = false;
  options.queue_capacity = 1024;
  vqi::QueryService reference(db, options);
  std::vector<std::pair<uint32_t, std::future<QueryResult>>> pending;
  uint64_t reference_errors = 0;
  auto drain = [&] {
    for (auto& [key, future] : pending) {
      QueryResult result = future.get();
      if (!result.status.ok()) ++reference_errors;
      expected[key] = ContentHash(result);
    }
    pending.clear();
  };
  for (auto& [key, hash] : expected) {
    // Below the shedding high-water mark, so no reference request is shed.
    if (pending.size() >= 512) drain();
    auto submitted = reference.Submit(request_for(key));
    if (!submitted.ok()) {
      ++reference_errors;
      continue;
    }
    pending.emplace_back(key, std::move(submitted).value());
  }
  drain();
  uint64_t mismatches = 0;
  uint64_t total = 0;
  for (const auto& [response, count] : responses) {
    total += count;
    if (expected[response.first] != response.second) mismatches += count;
  }
  const std::string summary = what + ": " + std::to_string(total) +
                              " responses over " +
                              std::to_string(expected.size()) +
                              " distinct requests, " +
                              std::to_string(mismatches) +
                              " differ from a fresh unsharded service (" +
                              std::to_string(static_cast<double>(NowNs() - started) / 1e9) +
                              " s)";
  if (mismatches > 0 || reference_errors > 0) {
    report.CheckFailed(summary + " (" + std::to_string(reference_errors) +
                       " reference errors)");
    report.Failed(mismatches);
  } else {
    report.CheckPassed(summary);
  }
}

/// handle within roundtrip for every request; decode, execute and encode
/// within their handle span and summing to no more than it.
void CrossCheckSpans(const std::vector<Span>& spans, Report& report) {
  std::map<uint64_t, const Span*> roundtrips;
  std::map<uint64_t, const Span*> handles;
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    const std::string name = span.name;
    if (name == "roundtrip") roundtrips[span.request] = &span;
    if (name == "handle") handles[span.id] = &span;
    if (name == "decode" || name == "execute" || name == "encode") {
      children[span.parent].push_back(&span);
    }
  }
  size_t bad_nesting = 0;
  size_t bad_children = 0;
  size_t missing = 0;
  for (const auto& [id, handle] : handles) {
    auto rt = roundtrips.find(handle->request);
    if (rt == roundtrips.end() || rt->second->id != handle->parent) {
      ++missing;
      continue;
    }
    if (handle->start_ns < rt->second->start_ns ||
        handle->end_ns > rt->second->end_ns) {
      ++bad_nesting;
    }
    int64_t sum = 0;
    for (const Span* child : children[id]) {
      sum += child->end_ns - child->start_ns;
      if (child->start_ns < handle->start_ns || child->end_ns > handle->end_ns) {
        ++bad_children;
      }
    }
    if (children[id].size() != 3 || sum > handle->end_ns - handle->start_ns) {
      ++bad_children;
    }
  }
  missing += roundtrips.size() - std::min(roundtrips.size(), handles.size());
  const std::string summary =
      std::to_string(handles.size()) + " handle spans, " +
      std::to_string(roundtrips.size()) + " roundtrips: " +
      std::to_string(bad_nesting) + " handle outside roundtrip, " +
      std::to_string(bad_children) +
      " decode/execute/encode outside handle, " + std::to_string(missing) +
      " unmatched";
  if (bad_nesting + bad_children + missing > 0 || handles.empty()) {
    report.CheckFailed("span cross-check: " + summary);
  } else {
    report.CheckPassed("span cross-check: " + summary);
  }
}

/// Prints each span name's count and median total and self time.
void PrintSelfTimes(const std::vector<Span>& spans) {
  const std::map<uint64_t, double> self = SelfTimesMs(spans);
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  for (const Span& span : spans) {
    auto& [total, self_ms] = by_name[span.name];
    total.push_back(span.ms());
    self_ms.push_back(self.at(span.id));
  }
  std::printf("  %-12s %8s %14s %14s\n", "span", "count", "p50 total ms",
              "p50 self ms");
  for (const auto& [name, times] : by_name) {
    std::printf("  %-12s %8zu %14.4f %14.4f\n", name.c_str(),
                times.first.size(), Median(times.first), Median(times.second));
  }
}

// ---------------------------------------------------------------------------
// Shared reporting.

/// Each metric is the median over the window's slices at reference speed,
/// so a few seconds a noisy neighbour slowed cannot move it; the detail
/// shows the smallest slice's sample count and the whole window's raw value.
/// Untraced runs report p50 and throughput. The p99 is a per-layer number
/// (`tail_only`, traced runs): on the shared VM the sizes were taken on it
/// spread 19-40% across runs, too wide to gate on.
void ReportQueries(const Tally& tally, Report& report, bool tail_only = false) {
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> qps;
  size_t fewest = SIZE_MAX;
  double lowest_quantile = 1;
  for (const Tally::Slice& slice : tally.slices) {
    p50.push_back(slice.p50.value);
    p99.push_back(slice.p99.value);
    qps.push_back(slice.qps);
    fewest = std::min(fewest, slice.p99.samples);
    lowest_quantile = std::min(lowest_quantile, slice.p99.quantile);
  }
  const std::string slices = std::to_string(tally.slices.size()) + " slices";
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "(median of %s, >= %zu samples each; whole window raw %.4f)",
                slices.c_str(), fewest, tally.latency.Quantile(0.5));
  if (!tail_only) {
    report.Add("query_p50_ms", Median(p50), "ms", detail);
    std::snprintf(detail, sizeof(detail), "(median of %s; %llu ok responses)",
                  slices.c_str(), static_cast<unsigned long long>(tally.ok));
    report.Add("query_qps", Median(qps), "1/s", detail);
    return;
  }
  std::snprintf(detail, sizeof(detail),
                "(median of %s' %s, >= %zu samples each; whole window raw %.4f)",
                slices.c_str(), QuantileLabel(lowest_quantile).c_str(), fewest,
                Tail(tally.latency, 0.99).value);
  report.Add("query_p99_ms", Median(p99), "ms", detail);
}

void CountRequests(const Tally& tally, Report& report) {
  report.Attempted(tally.sent);
  report.Failed(tally.failed);
  if (tally.failed > 0) {
    report.CheckFailed(std::to_string(tally.failed) + " of " +
                       std::to_string(tally.sent) + " requests failed");
  }
}

void ReportNet(const std::vector<Span>& spans, const Front& front,
               Report& report) {
  report.AddTail("net.handle_p50_ms", Tail(DurationsMs(spans, "handle"), 0.5),
                 "ms");
  // Wire time is the roundtrip's self time: its one child is the handle.
  const std::map<uint64_t, double> self = SelfTimesMs(spans);
  std::vector<double> wire;
  for (const Span& span : spans) {
    if (std::string(span.name) == "roundtrip") wire.push_back(self.at(span.id));
  }
  report.AddTail("net.wire_p50_ms", Tail(wire, 0.5), "ms");
  report.AddTail("net.decode_us", Tail(DurationsMs(spans, "decode"), 0.5),
                 "us", 1000.0);
  report.AddTail("net.encode_us", Tail(DurationsMs(spans, "encode"), 0.5),
                 "us", 1000.0);
  report.Add("net.connections", static_cast<double>(front.connections()),
             "count", "(accepted; " + std::to_string(kClients) + " clients)");
}

/// The service-layer counters and histograms at one instant.
struct ServiceSample {
  vqi::ServiceStats stats;
  HistogramSnapshot latency;
  HistogramSnapshot queue_wait;

  static ServiceSample Take(const vqi::ServiceStats& stats,
                            const vqi::obs::MetricsRegistry& registry) {
    // Service worker pools only: the router's fan-out pool and the HTTP
    // connection pool report into the same family.
    return {stats, MergedHistogram(registry, "vqi_request_latency_ms"),
            MergedHistogram(registry, "vqi_pool_queue_wait_ms",
                            {{"pool", "router"}, {"pool", "http"}})};
  }
};

void ReportService(const ServiceSample& before, const ServiceSample& after,
                   const Tally& tally, Report& report) {
  const HistogramSnapshot latency = HistogramDelta(before.latency, after.latency);
  const HistogramSnapshot wait = HistogramDelta(before.queue_wait, after.queue_wait);
  report.AddTail("service.latency_p50_ms", HistogramTail(latency, 0.5), "ms");
  report.AddTail("service.latency_p99_ms", HistogramTail(latency, 0.99), "ms");
  report.AddTail("service.queue_wait_p50_ms", HistogramTail(wait, 0.5), "ms");
  report.AddTail("service.queue_wait_p99_ms", HistogramTail(wait, 0.99), "ms");
  const vqi::ServiceStats& a = after.stats;
  const vqi::ServiceStats& b = before.stats;
  const double hits = static_cast<double>(a.cache_hits - b.cache_hits);
  const double misses = static_cast<double>(a.cache_misses - b.cache_misses);
  const double admitted = static_cast<double>(a.admitted - b.admitted);
  const double backend =
      static_cast<double>(a.backend_executions - b.backend_executions);
  report.AddRatio("service.cache_hit_ratio", hits, hits + misses,
                  "cache probes");
  report.AddRatio("service.backend_per_request", backend, admitted,
                  "service requests");
  report.Add("service.coalesce_waiters",
             static_cast<double>(a.coalesce_waiters - b.coalesce_waiters),
             "count");
  report.Add("service.rejected_shed",
             static_cast<double>((a.rejected - b.rejected) + (a.shed - b.shed)),
             "count", "(expected 0)");
  report.AddRatio("match.steps_per_execution",
                  static_cast<double>(tally.match_steps), backend,
                  "backend executions");
}

/// Router stats plus the service sample summed over every replica.
struct FleetSample {
  vqi::shard::RouterStats router;
  ServiceSample service;
  HistogramSnapshot leg_latency;

  static FleetSample Take(vqi::shard::ShardedRouter& router) {
    // AggregateSnapshot does not sum index builds; add them per replica.
    vqi::ServiceStats stats = router.AggregateSnapshot();
    stats.index_builds = 0;
    for (size_t i = 0; i < router.num_shards(); ++i) {
      for (size_t r = 0; r < router.num_replicas(); ++r) {
        stats.index_builds += router.shard(i, r).Snapshot().index_builds;
      }
    }
    return {router.Snapshot(), ServiceSample::Take(stats, router.metrics()),
            MergedHistogram(router.metrics(), "vqi_router_shard_latency_ms")};
  }
};

uint64_t LegCount(const vqi::shard::RouterStats& stats) {
  uint64_t legs = 0;
  for (const auto& shard : stats.shards) legs += shard.requests;
  return legs;
}

// ---------------------------------------------------------------------------
// The fleet phase: hot and cold share the fleet; they differ in what is drawn.

/// The window runs in slices; end-to-end metrics are medians over them.
constexpr size_t kWindowSlices = 9;

struct FleetRun {
  Tally tally;
  std::vector<Span> spans;
  FleetSample before;
  FleetSample after;
};

FleetRun MeasureFleetWindow(RouterStack& stack,
                            std::vector<std::unique_ptr<Client>>& clients,
                            double seconds, bool traced, const NextDraw& next) {
  FleetRun run;
  run.before = FleetSample::Take(stack.router);
  const size_t first_span = Tracer::Get().Spans().size();
  for (size_t slice = 0; slice < kWindowSlices; ++slice) {
    const double speed = ProbeSpeed();
    Tracer::Get().set_enabled(traced);
    RunClients(clients, stack.front.port(),
               seconds / static_cast<double>(kWindowSlices), next, &run.tally,
               speed);
    Tracer::Get().set_enabled(false);
  }
  run.after = FleetSample::Take(stack.router);
  std::vector<Span> spans = Tracer::Get().Spans();
  run.spans.assign(spans.begin() + static_cast<std::ptrdiff_t>(first_span),
                   spans.end());
  return run;
}

void ReportFleetLayers(const FleetRun& run, const RouterStack& stack,
                       Report& report) {
  ReportNet(run.spans, stack.front, report);
  report.AddTail("shard.execute_p50_ms",
                 Tail(DurationsMs(run.spans, "execute"), 0.5), "ms");
  report.AddTail("shard.execute_p99_ms",
                 Tail(DurationsMs(run.spans, "execute"), 0.99), "ms");
  const HistogramSnapshot legs =
      HistogramDelta(run.before.leg_latency, run.after.leg_latency);
  report.AddTail("shard.leg_p50_ms", HistogramTail(legs, 0.5), "ms");
  report.AddTail("shard.leg_p99_ms", HistogramTail(legs, 0.99), "ms");
  const auto& a = run.after.router;
  const auto& b = run.before.router;
  report.AddRatio("shard.fanout_per_request",
                  static_cast<double>(LegCount(a) - LegCount(b)),
                  static_cast<double>(a.requests - b.requests),
                  "routed requests");
  report.Add("shard.hedges_fired",
             static_cast<double>(a.hedges_fired - b.hedges_fired), "count");
  report.Add("shard.failovers", static_cast<double>(a.failovers - b.failovers),
             "count");
  ReportService(run.before.service, run.after.service, run.tally, report);
  report.Add("service.index_builds",
             static_cast<double>(run.after.service.stats.index_builds), "count",
             "(since fleet start, set-up included)");
  CrossCheckSpans(run.spans, report);
  PrintSelfTimes(run.spans);
}

/// Set-up rounds, then the measured window (traced runs first measure an
/// untraced window of the same length, for the tracing overhead), then the
/// output checks. `make_inputs` builds the collection and the draw state;
/// `warm_draw` and `next` draw requests; `after_warm` may use the warm-up
/// responses; `request_for` rebuilds a key's reference request.
template <typename Inputs>
bool RunFleetWorkload(
    const RunConfig& config, Report& report, SetupTimes* setup,
    const std::function<std::unique_ptr<Inputs>()>& make_inputs,
    const std::function<size_t(const Inputs&)>& warm_per_client,
    const std::function<Draw(const Inputs&, size_t, size_t, vqi::Rng&)>&
        warm_draw,
    const std::function<void(Inputs&, const Tally&)>& after_warm,
    const std::function<NextDraw(Inputs&)>& make_next,
    const std::function<QueryRequest(const Inputs&, uint32_t)>& request_for) {
  SetupTimes& times = *setup;
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<RouterStack> stack;
  std::vector<std::unique_ptr<Client>> clients;
  Tally warm_tally;
  for (size_t round = 0; round < kSetups; ++round) {
    clients.clear();
    stack.reset();
    inputs.reset();
    const int64_t t0 = NowNs();
    inputs = make_inputs();
    const int64_t t1 = NowNs();
    stack = std::make_unique<RouterStack>(inputs->db);
    if (vqi::Status started = stack->front.Start(); !started.ok()) {
      report.CheckFailed("server start: " + started.ToString());
      return false;
    }
    clients = MakeClients(config.seed);
    const int64_t t2 = NowNs();
    times.rss_after_build_mb = RssMb();
    warm_tally = Tally();
    WarmUp(clients, stack->front.port(), warm_per_client(*inputs),
           [&](size_t client, size_t i, vqi::Rng& rng) {
             return warm_draw(*inputs, client, i, rng);
           },
           &warm_tally);
    after_warm(*inputs, warm_tally);
    times.Add(t0, t1, t2, NowNs());
  }
  if (warm_tally.failed > 0) {
    report.CheckFailed(std::to_string(warm_tally.failed) +
                       " warm-up requests failed");
  }

  NextDraw next = make_next(*inputs);
  std::optional<FleetRun> untraced;
  if (config.trace) {
    untraced = MeasureFleetWindow(*stack, clients, config.seconds, false, next);
  }
  FleetRun run =
      MeasureFleetWindow(*stack, clients, config.seconds, config.trace, next);

  if (config.trace) {
    ReportQueries(run.tally, report, /*tail_only=*/true);
    ReportFleetLayers(run, *stack, report);
    const double traced_p50 = run.tally.latency.Quantile(0.5);
    const double untraced_p50 = untraced->tally.latency.Quantile(0.5);
    char detail[96];
    std::snprintf(detail, sizeof(detail), "(traced %.4f - untraced %.4f ms)",
                  traced_p50, untraced_p50);
    report.Add("trace.overhead_query_p50_ms", traced_p50 - untraced_p50, "ms",
               detail);
    untraced->tally.Absorb(run.tally);
    run.tally = std::move(untraced->tally);
  } else {
    ReportQueries(run.tally, report);
  }

  clients.clear();
  CountRequests(run.tally, report);
  VerifyResponses(
      inputs->db, run.tally.responses,
      [&](uint32_t key) { return request_for(*inputs, key); }, config.workload,
      report);
  return true;
}

// --- serve_hot --------------------------------------------------------------

struct HotInputs {
  vqi::GraphDatabase db;
  std::vector<Graph> patterns;  ///< the panel, most popular first
  ZipfSampler zipf{1};
};

std::unique_ptr<HotInputs> MakeHotInputs(uint64_t seed) {
  auto inputs = std::make_unique<HotInputs>();
  inputs->db = Molecules(kMolecules, seed);
  vqi::Rng rng(seed ^ 0x407ull);
  std::unordered_set<std::string> seen;
  inputs->patterns = DistinctPatterns(inputs->db, kHotPatterns, 3, 8, rng, &seen);
  inputs->zipf = ZipfSampler(inputs->patterns.size());
  return inputs;
}

uint32_t SuggestKey(size_t pattern, vqi::VertexId focus) {
  return static_cast<uint32_t>(kHotPatterns + pattern * kMaxPatternVertices +
                               focus);
}

/// Popularity follows frequency: users click the panel patterns that match
/// the most graphs, so Zipf rank 1 goes to the pattern whose warm-up
/// response matched the most graphs. Ranking by a measured property, not by
/// generation order, keeps the traffic mix alike from seed to seed.
void RankByMatches(HotInputs& inputs, const Tally& warm) {
  auto matched = [&](size_t i) {
    auto it = warm.matched.find(static_cast<uint32_t>(i));
    return it == warm.matched.end() ? size_t{0} : it->second;
  };
  std::vector<size_t> order(inputs.patterns.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return matched(a) > matched(b); });
  std::vector<Graph> ranked;
  for (size_t i : order) ranked.push_back(std::move(inputs.patterns[i]));
  inputs.patterns = std::move(ranked);
}

/// A re-draw of panel pattern `index`: a random renumbering, sent as a
/// match count or, for a share of draws, as a suggestion at a random focus.
Draw HotDraw(const HotInputs& inputs, size_t index, bool suggest,
             vqi::Rng& rng) {
  const Graph& base = inputs.patterns[index];
  std::vector<vqi::VertexId> old_to_new;
  QueryRequest request;
  request.pattern = Permuted(base, rng, &old_to_new);
  Draw draw;
  if (suggest) {
    const auto focus =
        static_cast<vqi::VertexId>(rng.UniformInt(base.NumVertices()));
    request.kind = vqi::QueryKind::kSuggest;
    request.focus = old_to_new[focus];
    request.top_k = kSuggestTopK;
    draw.key = SuggestKey(index, focus);
  } else {
    request.max_embeddings = kMaxEmbeddings;
    draw.key = static_cast<uint32_t>(index);
  }
  draw.body = QueryBody(request);
  return draw;
}

QueryRequest HotReference(const HotInputs& inputs, uint32_t key) {
  QueryRequest request;
  if (key < kHotPatterns) {
    request.pattern = inputs.patterns[key];
    request.max_embeddings = kMaxEmbeddings;
    return request;
  }
  const uint32_t packed = key - static_cast<uint32_t>(kHotPatterns);
  request.pattern = inputs.patterns[packed / kMaxPatternVertices];
  request.kind = vqi::QueryKind::kSuggest;
  request.focus = packed % kMaxPatternVertices;
  request.top_k = kSuggestTopK;
  return request;
}

// --- serve_cold -------------------------------------------------------------

/// Distinct patterns generated per second of window. The fleet serves
/// about 900 of them a second; a run that exhausts the pool wraps around
/// (and says so), so headroom is left for faster matchers.
constexpr size_t kColdPatternsPerSecond = 2000;
constexpr size_t kColdWarmPerClient = 16;

struct ColdInputs {
  vqi::GraphDatabase db;
  std::vector<Graph> warm;  ///< warm-up patterns, never drawn in the window
  std::vector<Graph> pool;  ///< window patterns, each drawn once
  std::atomic<size_t> next{0};
};

std::unique_ptr<ColdInputs> MakeColdInputs(uint64_t seed, size_t pool_size) {
  auto inputs = std::make_unique<ColdInputs>();
  inputs->db = Molecules(kMolecules, seed);
  vqi::Rng rng(seed ^ 0xC01Dull);
  std::unordered_set<std::string> seen;
  inputs->warm = DistinctPatterns(inputs->db, kClients * kColdWarmPerClient, 4,
                                  10, rng, &seen);
  inputs->pool = DistinctPatterns(inputs->db, pool_size, 4, 10, rng, &seen);
  return inputs;
}

Draw MatchDraw(const Graph& pattern, uint32_t key) {
  QueryRequest request;
  request.pattern = pattern;
  request.max_embeddings = kMaxEmbeddings;
  return {QueryBody(request), key};
}

// --- churn ------------------------------------------------------------------

/// Smaller than the fleet's collection: MIDAS initialization is set-up and
/// runs in every set-up round, and the time it saves buys a longer batch
/// sequence, whose per-kind medians then rest on more batches.
constexpr size_t kChurnMolecules = 500;
/// The seeded batch sequence, R R D R R R repeated: R replaces 5% of the
/// collection with new molecules (a minor modification for MIDAS), D
/// replaces 10% with dense Erdos-Renyi graphs (drifts the graphlet
/// distribution: a major one). Each D drifts less than the one before, as
/// the collection fills with ER graphs, and each R after a D drifts more;
/// with a D every third batch, late Ds and Rs crossed the drift threshold
/// either way from seed to seed, and the count of costly major batches,
/// not MIDAS's speed, set maintain_s. Spaced out, the four Ds stay well
/// above kDriftThreshold and every R below it.
constexpr size_t kBatches = 24;
constexpr bool IsDrifting(size_t batch) { return batch % 6 == 2; }
constexpr double kDriftThreshold = 0.022;
/// MIDAS must never lower the pattern-set score; tolerance for float noise.
constexpr double kScoreTolerance = 1e-9;

vqi::MidasConfig ChurnMidasConfig() {
  vqi::MidasConfig config;
  config.base.budget = 10;
  config.base.tree_config.min_support = kChurnMolecules / 20;
  config.base.tree_config.max_edges = 2;
  config.base.walks_per_csg = 24;
  config.base.use_closed_trees = true;
  config.drift_threshold = kDriftThreshold;
  return config;
}

vqi::BatchUpdate MakeBatch(const vqi::GraphDatabase& db, bool drifting,
                           vqi::Rng& rng) {
  vqi::BatchUpdate update;
  const size_t count =
      static_cast<size_t>((drifting ? 0.10 : 0.05) * static_cast<double>(db.size()));
  std::vector<vqi::GraphId> ids = db.Ids();
  rng.Shuffle(ids);
  ids.resize(std::min(count, ids.size()));
  update.deletions = std::move(ids);
  vqi::gen::LabelConfig er_labels;
  er_labels.num_vertex_labels = 4;
  for (size_t i = 0; i < count; ++i) {
    update.additions.push_back(
        drifting ? vqi::gen::ErdosRenyi(12, 0.4, er_labels, rng)
                 : vqi::gen::Molecule(vqi::gen::MoleculeConfig{}, rng));
  }
  return update;
}

/// The maintained collection and the VQI whose Pattern panel the reads
/// come from.
struct ChurnState {
  vqi::GraphDatabase db;
  vqi::VisualQueryInterface vqi;
  std::unique_ptr<vqi::VqiMaintainer> maintainer;
};

/// One applied batch.
struct BatchRecord {
  double wall_s = 0;  ///< the ApplyBatch call on the served replica
  double speed = 1;   ///< ProbeSpeed() right before it
  double median_s = 0;  ///< median over replicas of their call at reference speed
  vqi::MaintenanceReport midas;  ///< the served replica's report
};

Draw ChurnDraw(const std::vector<Graph>& patterns, size_t index,
               vqi::Rng& rng) {
  std::vector<vqi::VertexId> old_to_new;
  return MatchDraw(Permuted(patterns[index], rng, &old_to_new),
                   static_cast<uint32_t>(index));
}

}  // namespace

bool RunChurnPhase(const RunConfig& config, Report& report, SetupTimes* setup) {
  SetupTimes& times = *setup;
  const vqi::MidasConfig midas = ChurnMidasConfig();
  // Every set-up round builds the same collection and VQI, and every round's
  // state is kept as a replica: each batch is applied to all of them, and
  // the median of their times filters a call a noisy neighbour slowed. The
  // last replica is the one served.
  std::vector<std::unique_ptr<ChurnState>> replicas;
  std::unique_ptr<ServiceStack> stack;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<double> invalidate_us;
  uint64_t batch_span = 0;
  for (size_t round = 0; round < kSetups; ++round) {
    clients.clear();
    stack.reset();
    const int64_t t0 = NowNs();
    replicas.push_back(std::make_unique<ChurnState>());
    ChurnState* state = replicas.back().get();
    state->db = Molecules(kChurnMolecules, config.seed);
    const int64_t t1 = NowNs();
    auto built = vqi::BuildVqiForDatabase(state->db, midas.base);
    if (!built.ok()) {
      report.CheckFailed("MIDAS initialization: " + built.status().ToString());
      return false;
    }
    state->vqi = std::move(built->vqi);
    state->maintainer = std::make_unique<vqi::VqiMaintainer>(
        std::move(built->catapult_state), midas);
    stack = std::make_unique<ServiceStack>(state->db);
    if (vqi::Status started = stack->front.Start(); !started.ok()) {
      report.CheckFailed("server start: " + started.ToString());
      return false;
    }
    clients = MakeClients(config.seed);
    const int64_t t2 = NowNs();
    times.rss_after_build_mb = RssMb();
    const std::vector<Graph> panel = state->vqi.pattern_panel().AllPatterns();
    Tally warm;
    WarmUp(clients, stack->front.port(), panel.size(),
           [&](size_t, size_t i, vqi::Rng& rng) { return ChurnDraw(panel, i, rng); },
           &warm);
    times.Add(t0, t1, t2, NowNs());
    if (round + 1 == kSetups && warm.failed > 0) {
      report.CheckFailed(std::to_string(warm.failed) + " warm-up requests failed");
    }
  }
  ChurnState* state = replicas.back().get();
  vqi::QueryService* service = &stack->service;
  state->maintainer->AddBatchListener([service, &invalidate_us, &batch_span] {
    ScopedSpan span("invalidate", 0, batch_span);
    const int64_t start = NowNs();
    service->InvalidateCache();
    invalidate_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
  });

  // Reads run in kBatches + 1 equal phases; between phases the clients are
  // stopped (a VQI user waits while the panel refreshes), the phase's reads
  // are checked against a fresh service over the current collection, and
  // the next batch is applied.
  const double phase_seconds = config.seconds / static_cast<double>(kBatches + 1);
  vqi::Rng batch_rng(config.seed ^ 0xBA7Cull);
  std::vector<double> spare_scores;
  Tally reads;
  std::vector<BatchRecord> batches;
  const ServiceSample start = ServiceSample::Take(stack->service.Snapshot(),
                                                  stack->service.metrics());
  ServiceSample after_first_phase = start;
  const uint64_t builds_before = start.stats.index_builds;
  const size_t first_span = Tracer::Get().Spans().size();
  Tracer::Get().set_enabled(config.trace);
  for (size_t phase = 0; phase <= kBatches; ++phase) {
    const std::vector<Graph> panel = state->vqi.pattern_panel().AllPatterns();
    const ZipfSampler zipf(panel.size());
    NextDraw next = [&](size_t, vqi::Rng& rng, Draw* draw) {
      *draw = ChurnDraw(panel, zipf.Sample(rng), rng);
      return true;
    };
    Tally tally;
    RunClients(clients, stack->front.port(), phase_seconds, next, &tally,
               ProbeSpeed());
    if (phase == 0) {
      after_first_phase = ServiceSample::Take(stack->service.Snapshot(),
                                              stack->service.metrics());
    }
    VerifyResponses(
        state->db, tally.responses,
        [&](uint32_t key) {
          QueryRequest request;
          request.pattern = panel[key];
          request.max_embeddings = kMaxEmbeddings;
          return request;
        },
        "phase " + std::to_string(phase) + " reads", report);
    reads.Absorb(tally);
    if (phase == kBatches) break;

    vqi::BatchUpdate update = MakeBatch(state->db, IsDrifting(phase), batch_rng);
    BatchRecord record;
    std::vector<double> replica_s;
    size_t disagreeing = 0;
    for (size_t r = 0; r + 1 < replicas.size(); ++r) {
      ChurnState& spare = *replicas[r];
      const double speed = ProbeSpeed();
      const int64_t begin = NowNs();
      auto applied = spare.maintainer->ApplyBatch(spare.vqi, spare.db, update);
      replica_s.push_back(speed * static_cast<double>(NowNs() - begin) / 1e9);
      if (!applied.ok()) {
        report.CheckFailed("batch " + std::to_string(phase) + " on a replica: " +
                           applied.status().ToString());
        Tracer::Get().set_enabled(false);
        return false;
      }
      spare_scores.push_back(applied->score_after);
    }
    record.speed = ProbeSpeed();
    {
      ScopedSpan span("apply_batch");
      batch_span = span.id();
      const int64_t begin = NowNs();
      auto applied = state->maintainer->ApplyBatch(state->vqi, state->db,
                                                   std::move(update));
      record.wall_s = static_cast<double>(NowNs() - begin) / 1e9;
      if (!applied.ok()) {
        report.CheckFailed("batch " + std::to_string(phase) + ": " +
                           applied.status().ToString());
        Tracer::Get().set_enabled(false);
        return false;
      }
      record.midas = *applied;
    }
    replica_s.push_back(record.speed * record.wall_s);
    record.median_s = Median(replica_s);
    report.Attempted(1);
    const vqi::MaintenanceReport& m = record.midas;
    for (double score : spare_scores) disagreeing += score != m.score_after;
    spare_scores.clear();
    if (disagreeing > 0) {
      report.Failed(1);
      report.CheckFailed("batch " + std::to_string(phase) + ": " +
                         std::to_string(disagreeing) +
                         " identical replicas reached a different score");
    }
    if (m.score_after + kScoreTolerance < m.score_before) {
      report.Failed(1);
      report.CheckFailed("batch " + std::to_string(phase) + " lowered the score");
    }
    std::printf("  batch %zu (%s, %s at drift %.4f): %.4f s (median of %zu "
                "replicas %.4f s at reference speed), score %.6f -> %.6f\n",
                phase, IsDrifting(phase) ? "drifting" : "replace",
                vqi::ModificationTypeName(m.drift.type), m.drift.distance,
                record.wall_s,
                replica_s.size(), record.median_s, m.score_before,
                m.score_after);
    batches.push_back(record);
  }
  Tracer::Get().set_enabled(false);
  const ServiceSample end = ServiceSample::Take(stack->service.Snapshot(),
                                                stack->service.metrics());
  std::vector<Span> spans = Tracer::Get().Spans();
  spans.erase(spans.begin(), spans.begin() + static_cast<std::ptrdiff_t>(first_span));
  report.CheckPassed(std::to_string(batches.size()) +
                     " batches kept score_after >= score_before");

  std::printf("  reads between batches: %llu ok, p50 %.4f ms (raw); %llu "
              "index builds in the window\n",
              static_cast<unsigned long long>(reads.ok),
              reads.latency.Quantile(0.5),
              static_cast<unsigned long long>(end.stats.index_builds -
                                              builds_before));
  double batch_sum_s = 0;
  // The sequence's ApplyBatch time at reference speed, each batch's time
  // the median over replicas. A per-kind median would not do: later major
  // batches cost half the early ones, so the median of the majors jumps
  // between the two groups from seed to seed.
  double maintain_s = 0;
  double refresh_s = 0;
  std::vector<double> minor_s;
  std::vector<double> major_s;
  double candidates = 0;
  double clusters = 0;
  for (const BatchRecord& record : batches) {
    // Seconds at the reference machine speed (see SpeedFactor).
    const double k = record.speed;
    batch_sum_s += record.wall_s;
    maintain_s += record.median_s;
    refresh_s += k * (record.wall_s - record.midas.seconds);
    const bool major = record.midas.drift.type == vqi::ModificationType::kMajor;
    (major ? major_s : minor_s).push_back(k * record.midas.seconds);
    candidates += static_cast<double>(record.midas.candidates_generated);
    clusters += static_cast<double>(record.midas.clusters_touched);
  }
  const std::string over = "(" + std::to_string(batches.size()) + " batches)";
  if (!config.trace) {
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "(sum over %zu minor + %zu major batches of each one's median "
                  "over %zu replicas; served replica's wall sum %.4f s)",
                  minor_s.size(), major_s.size(), replicas.size(), batch_sum_s);
    report.Add("maintain_s", maintain_s, "s", detail);
    report.Add("midas_score", batches.back().midas.score_after, "score",
               "(score_after of the last batch)");
  } else {
    // The fleet phase reports the net, shard and query-path service
    // metrics; this phase adds what only writes exercise.
    report.AddTail("service.invalidate_us", Tail(invalidate_us, 0.5), "us");
    const double hits = static_cast<double>(end.stats.cache_hits -
                                            after_first_phase.stats.cache_hits);
    const double misses = static_cast<double>(
        end.stats.cache_misses - after_first_phase.stats.cache_misses);
    report.AddRatio("service.hit_ratio_after_batch", hits, hits + misses,
                    "cache probes after the first batch");
    report.Add("midas.minor_batch_s", Median(minor_s), "s",
               "(median of " + std::to_string(minor_s.size()) + ")");
    report.Add("midas.major_batch_s", Median(major_s), "s",
               "(median of " + std::to_string(major_s.size()) + ")");
    report.Add("midas.candidates_generated", candidates, "count", "(sum " + over + ")");
    report.Add("midas.clusters_touched", clusters, "count", "(sum " + over + ")");
    report.Add("vqi.refresh_s", refresh_s, "s", "(sum " + over + ")");
    CrossCheckSpans(spans, report);
    PrintSelfTimes(spans);
  }
  if (minor_s.empty() || major_s.empty()) {
    std::printf("  note: %zu minor and %zu major batches\n", minor_s.size(),
                major_s.size());
  }
  clients.clear();
  CountRequests(reads, report);
  return true;
}

namespace {

bool RunServeHot(const RunConfig& config, Report& report, SetupTimes* setup) {
  return RunFleetWorkload<HotInputs>(
      config, report, setup, [&] { return MakeHotInputs(config.seed); },
      // Every client draws every panel pattern once, as a match and as a
      // suggestion, so both replicas of both shards hold warm caches.
      [](const HotInputs& inputs) { return 2 * inputs.patterns.size(); },
      [](const HotInputs& inputs, size_t, size_t i, vqi::Rng& rng) {
        return HotDraw(inputs, i / 2, i % 2 == 1, rng);
      },
      RankByMatches,
      [](HotInputs& inputs) -> NextDraw {
        return [&inputs](size_t, vqi::Rng& rng, Draw* draw) {
          const size_t index = inputs.zipf.Sample(rng);
          *draw = HotDraw(inputs, index, rng.UniformDouble() < kSuggestShare,
                          rng);
          return true;
        };
      },
      HotReference);
}

bool RunServeCold(const RunConfig& config, Report& report, SetupTimes* setup) {
  const size_t pool_size = static_cast<size_t>(
      config.seconds * (config.trace ? 2 : 1) * kColdPatternsPerSecond);
  return RunFleetWorkload<ColdInputs>(
      config, report, setup,
      [&] { return MakeColdInputs(config.seed, pool_size); },
      [](const ColdInputs&) { return kColdWarmPerClient; },
      [](const ColdInputs& inputs, size_t client, size_t i, vqi::Rng&) {
        const size_t at = client * kColdWarmPerClient + i;
        return MatchDraw(inputs.warm[at % inputs.warm.size()], 0);
      },
      [](ColdInputs&, const Tally&) {},
      [](ColdInputs& inputs) -> NextDraw {
        return [&inputs](size_t, vqi::Rng&, Draw* draw) {
          const size_t at = inputs.next.fetch_add(1);
          if (at == inputs.pool.size()) {
            std::printf("  note: pattern pool of %zu exhausted; wrapping\n",
                        inputs.pool.size());
          }
          const size_t index = at % inputs.pool.size();
          *draw = MatchDraw(inputs.pool[index], static_cast<uint32_t>(index));
          return true;
        };
      },
      [](const ColdInputs& inputs, uint32_t key) {
        QueryRequest request;
        request.pattern = inputs.pool[key];
        request.max_embeddings = kMaxEmbeddings;
        return request;
      });
}

}  // namespace

bool RunFleetPhase(const RunConfig& config, bool hot, Report& report,
                   SetupTimes* setup) {
  return hot ? RunServeHot(config, report, setup)
             : RunServeCold(config, report, setup);
}

}  // namespace perfbench
