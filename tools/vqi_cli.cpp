// vqi_cli — command-line front end for the library's end-to-end workflows:
// generate data, build a data-driven VQI, inspect/serialize it, export
// patterns to Graphviz, and run the simulated usability study.
//
//   vqi_cli gen-molecules <count> <seed> <out.lg>
//   vqi_cli gen-network   <n> <m> <seed> <out.lg>
//   vqi_cli build-db      <in.lg> <out.vqi> [budget]
//   vqi_cli build-net     <in.lg> <out.vqi> [budget]
//   vqi_cli show          <file.vqi>
//   vqi_cli export-dot    <file.vqi> <out.dot>
//   vqi_cli suggest       <in.lg> <vertex-label> [k]
//   vqi_cli usability     <in.lg> <file.vqi> [queries]
//   vqi_cli serve-bench   <in.lg> [queries] [threads] [repeat]
//                         [--clients=N] [--threads=N] [--deadline-ms=X]
//                         [--dup-ratio=X] [--coalesce] [--cache=N]
//                         [--chaos=<spec>] [--metrics-out=<file>]
//                         (replay a generated query workload through the
//                         concurrent QueryService and print serving stats;
//                         --clients runs N submitter threads, --deadline-ms
//                         puts a budget on every request, --dup-ratio=X
//                         expands the workload so a fraction X of requests
//                         are in-flight duplicates, --coalesce turns on
//                         single-flight request coalescing (off by default
//                         here for A/B comparison; the library default is
//                         on), --cache=N sets result-cache capacity (0 =
//                         off), --chaos injects faults per the spec grammar
//                         of docs/resilience.md and drives the load through
//                         resilient ServiceClients, --metrics-out writes a
//                         Prometheus-text metrics snapshot)
//   vqi_cli metrics-demo  (serve a small in-memory workload and dump the
//                         observability surface: Prometheus text, JSON,
//                         recent request traces)
//   vqi_cli serve         <in.lg> [--port=N] [--threads=N] [--cache=N]
//                         [--shards=N] [--hedge-ms=X] [--chaos-shard=K]
//                         [--chaos=<spec>] [--smoke]
//                         (serve the collection over HTTP: GET /metrics,
//                         GET /healthz, POST /query; SIGINT/SIGTERM drains
//                         gracefully. --shards=N fronts a ShardedRouter over
//                         N QueryService shards — /metrics then carries
//                         per-shard series and /healthz the fleet view —
//                         and --hedge-ms arms hedged requests; --chaos arms
//                         the http_read fault point for slowloris/torn-read
//                         injection (with --shards, service-level chaos
//                         lands on shard --chaos-shard only); --smoke drives
//                         one request through each endpoint over a real
//                         loopback socket and exits — the hermetic CI check)
//
// serve-bench additionally accepts --http: run the workload twice — directly
// against the in-process QueryService, then through real loopback sockets
// with --clients keep-alive HTTP connections — and report the wire overhead
// plus a byte-identity check of the result content (EXPERIMENTS.md E17).
// With --chaos the injector arms only the server's http_read point and the
// report becomes availability under slowloris-style faults.
// With --shards=N it instead replays the workload through a ShardedRouter
// (EXPERIMENTS.md E18): merged results are checked byte-identical against a
// single-service reference, --hedge-ms reports hedging effectiveness, and
// --chaos targets shard --chaos-shard only, showing per-shard blast-radius
// containment.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "layout/dot_export.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/serving.h"
#include "obs/export.h"
#include "service/query_service.h"
#include "service/resilience/fault_injector.h"
#include "service/resilience/service_client.h"
#include "shard/sharded_router.h"
#include "sim/usability.h"
#include "sim/workload.h"
#include "vqi/builder.h"
#include "vqi/serialize.h"
#include "vqi/suggestion.h"

namespace vqi {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: vqi_cli <command> ...\n"
               "  gen-molecules <count> <seed> <out.lg>\n"
               "  gen-network   <n> <m> <seed> <out.lg>\n"
               "  build-db      <in.lg> <out.vqi> [budget]\n"
               "  build-net     <in.lg> <out.vqi> [budget]\n"
               "  show          <file.vqi>\n"
               "  export-dot    <file.vqi> <out.dot>\n"
               "  suggest       <in.lg> <vertex-label> [k]\n"
               "  usability     <in.lg> <file.vqi> [queries]\n"
               "  serve-bench   <in.lg> [queries] [threads] [repeat]\n"
               "                [--clients=N] [--threads=N] [--deadline-ms=X]\n"
               "                [--dup-ratio=X] [--coalesce] [--cache=N]\n"
               "                [--chaos=<spec>] [--metrics-out=<file>]\n"
               "                [--http] [--shards=N] [--replicas=R]\n"
               "                [--hedge-ms=X] [--gather-slack-ms=X]\n"
               "                [--chaos-shard=K] [--chaos-replica=K]\n"
               "  serve         <in.lg> [--port=N] [--threads=N] [--cache=N]\n"
               "                [--shards=N] [--replicas=R] [--hedge-ms=X]\n"
               "                [--gather-slack-ms=X] [--chaos-shard=K]\n"
               "                [--chaos-replica=K] [--chaos=<spec>] [--smoke]\n"
               "  metrics-demo\n");
  return 2;
}

// Parses a bounded integer CLI value into `out`; malformed or out-of-range
// text comes back as kInvalidArgument instead of exiting mid-command.
Status ParseCount(const std::string& text, const char* name, int64_t min_value,
                  int64_t max_value, int64_t* out) {
  if (!ParseInt64(text, out)) {
    return Status::InvalidArgument(std::string(name) + ": '" + text +
                                   "' is not an integer");
  }
  if (*out < min_value || *out > max_value) {
    return Status::InvalidArgument(std::string(name) + " must be between " +
                                   std::to_string(min_value) + " and " +
                                   std::to_string(max_value) + ", got " + text);
  }
  return Status::OK();
}

// ParseCount's floating-point sibling, for millisecond and ratio flags.
Status ParseDoubleArg(const std::string& text, const char* name,
                      double min_value, double max_value, double* out) {
  if (!ParseDouble(text, out)) {
    return Status::InvalidArgument(std::string(name) + ": '" + text +
                                   "' is not a number");
  }
  if (!(*out >= min_value && *out <= max_value)) {
    return Status::InvalidArgument(std::string(name) + " must be between " +
                                   std::to_string(min_value) + " and " +
                                   std::to_string(max_value) + ", got " + text);
  }
  return Status::OK();
}

int GenMolecules(int argc, char** argv) {
  if (argc != 3) return Usage();
  int64_t count = 0;
  int64_t seed = 0;
  if (Status s = ParseCount(argv[0], "count", 1, 100000000, &count); !s.ok()) {
    return Fail(s);
  }
  if (Status s = ParseCount(argv[1], "seed", 0,
                            std::numeric_limits<int64_t>::max(), &seed);
      !s.ok()) {
    return Fail(s);
  }
  GraphDatabase db =
      gen::MoleculeDatabase(static_cast<size_t>(count), gen::MoleculeConfig{},
                            static_cast<uint64_t>(seed));
  if (Status s = io::SaveDatabase(db, argv[2]); !s.ok()) return Fail(s);
  std::printf("wrote %zu molecule graphs to %s\n", db.size(), argv[2]);
  return 0;
}

int GenNetwork(int argc, char** argv) {
  if (argc != 4) return Usage();
  int64_t n_arg = 0;
  int64_t m_arg = 0;
  int64_t seed = 0;
  if (Status s = ParseCount(argv[0], "n", 1, 1000000000, &n_arg); !s.ok()) {
    return Fail(s);
  }
  if (Status s = ParseCount(argv[1], "m", 1, 1000000, &m_arg); !s.ok()) {
    return Fail(s);
  }
  if (Status s = ParseCount(argv[2], "seed", 0,
                            std::numeric_limits<int64_t>::max(), &seed);
      !s.ok()) {
    return Fail(s);
  }
  size_t n = static_cast<size_t>(n_arg);
  size_t m = static_cast<size_t>(m_arg);
  Rng rng(static_cast<uint64_t>(seed));
  gen::LabelConfig labels;
  labels.num_vertex_labels = 6;
  Graph network = gen::BarabasiAlbert(n, m, labels, rng);
  network.set_id(0);
  GraphDatabase db;
  db.Add(std::move(network));
  if (Status s = io::SaveDatabase(db, argv[3]); !s.ok()) return Fail(s);
  std::printf("wrote %zu-vertex network to %s\n", n, argv[3]);
  return 0;
}

int BuildDb(int argc, char** argv) {
  if (argc < 2 || argc > 3) return Usage();
  auto db = io::LoadDatabase(argv[0]);
  if (!db.ok()) return Fail(db.status());
  CatapultConfig config;
  int64_t budget = 10;
  if (argc == 3) {
    if (Status s = ParseCount(argv[2], "budget", 1, 1000000, &budget);
        !s.ok()) {
      return Fail(s);
    }
  }
  config.budget = static_cast<size_t>(budget);
  config.tree_config.min_support = std::max<size_t>(2, db->size() / 20);
  auto built = BuildVqiForDatabase(*db, config);
  if (!built.ok()) return Fail(built.status());
  if (Status s = SaveVqi(built->vqi, argv[1]); !s.ok()) return Fail(s);
  std::printf("%s\n", built->vqi.Summary().c_str());
  std::printf("selection took %.2fs (%zu candidates); wrote %s\n",
              built->catapult_stats.total_seconds(),
              built->catapult_stats.num_candidates, argv[1]);
  return 0;
}

int BuildNet(int argc, char** argv) {
  if (argc < 2 || argc > 3) return Usage();
  auto db = io::LoadDatabase(argv[0]);
  if (!db.ok()) return Fail(db.status());
  if (db->empty()) {
    return Fail(Status::InvalidArgument("input has no graphs"));
  }
  const Graph& network = db->graphs()[0];
  TattooConfig config;
  int64_t budget = 10;
  if (argc == 3) {
    if (Status s = ParseCount(argv[2], "budget", 1, 1000000, &budget);
        !s.ok()) {
      return Fail(s);
    }
  }
  config.budget = static_cast<size_t>(budget);
  auto built = BuildVqiForNetwork(network, config);
  if (!built.ok()) return Fail(built.status());
  if (Status s = SaveVqi(built->vqi, argv[1]); !s.ok()) return Fail(s);
  std::printf("%s\n", built->vqi.Summary().c_str());
  std::printf("truss split %zu/%zu, %zu candidates; wrote %s\n",
              built->tattoo_stats.infested_edges,
              built->tattoo_stats.oblivious_edges,
              built->tattoo_stats.num_candidates, argv[1]);
  return 0;
}

int Show(int argc, char** argv) {
  if (argc != 1) return Usage();
  auto vqi = LoadVqi(argv[0]);
  if (!vqi.ok()) return Fail(vqi.status());
  std::printf("%s\n", vqi->Summary().c_str());
  std::printf("vertex attributes:\n");
  for (const AttributeEntry& e : vqi->attribute_panel().vertex_attributes()) {
    std::printf("  %-12s label=%u count=%zu\n", e.name.c_str(), e.label,
                e.count);
  }
  std::printf("patterns:\n");
  for (const PatternEntry& p : vqi->pattern_panel().entries()) {
    std::printf("  %-6s %zuv/%zue coverage=%.3f\n",
                p.is_basic ? "basic" : "canned", p.graph.NumVertices(),
                p.graph.NumEdges(), p.coverage);
  }
  return 0;
}

int ExportDot(int argc, char** argv) {
  if (argc != 2) return Usage();
  auto vqi = LoadVqi(argv[0]);
  if (!vqi.ok()) return Fail(vqi.status());
  std::ofstream out(argv[1]);
  if (!out) return Fail(Status::IoError("cannot open output"));
  DotOptions options;
  options.name = "pattern_panel";
  out << PatternsToDot(vqi->pattern_panel().AllPatterns(), options);
  std::printf("wrote %zu patterns to %s\n", vqi->pattern_panel().size(),
              argv[1]);
  return 0;
}

int Suggest(int argc, char** argv) {
  if (argc < 2 || argc > 3) return Usage();
  auto db = io::LoadDatabase(argv[0]);
  if (!db.ok()) return Fail(db.status());
  int64_t from_arg = 0;
  int64_t k_arg = 5;
  if (Status s = ParseCount(argv[1], "vertex-label", 0, 0xFFFFFFFF, &from_arg);
      !s.ok()) {
    return Fail(s);
  }
  if (argc == 3) {
    if (Status s = ParseCount(argv[2], "k", 1, 1000000, &k_arg); !s.ok()) {
      return Fail(s);
    }
  }
  Label from = static_cast<Label>(from_arg);
  size_t k = static_cast<size_t>(k_arg);
  SuggestionIndex index = SuggestionIndex::Build(*db);
  std::printf("continuations from a vertex labeled %u:\n", from);
  for (const EdgeSuggestion& s : index.SuggestFrom(from, k)) {
    std::printf("  --[%u]--> label %u   (seen %zu times)\n", s.edge_label,
                s.to_label, s.support);
  }
  return 0;
}

int Usability(int argc, char** argv) {
  if (argc < 2 || argc > 3) return Usage();
  auto db = io::LoadDatabase(argv[0]);
  if (!db.ok()) return Fail(db.status());
  auto vqi = LoadVqi(argv[1]);
  if (!vqi.ok()) return Fail(vqi.status());
  WorkloadConfig wconfig;
  int64_t num_queries = 40;
  if (argc == 3) {
    if (Status s = ParseCount(argv[2], "queries", 1, 1000000, &num_queries);
        !s.ok()) {
      return Fail(s);
    }
  }
  wconfig.num_queries = static_cast<size_t>(num_queries);
  std::vector<Graph> workload = GenerateDbWorkload(*db, wconfig);
  VisualQueryInterface manual = BuildManualBaselineVqi(
      db->ComputeLabelStats(), DataSourceKind::kGraphCollection);
  UsabilityComparison cmp = CompareUsability(
      workload, vqi->pattern_panel(), manual.pattern_panel());
  std::printf("queries: %zu\n", workload.size());
  std::printf("data-driven: %.1f steps, %.1f s\n",
              cmp.data_driven.mean_steps, cmp.data_driven.mean_seconds);
  std::printf("manual:      %.1f steps, %.1f s\n", cmp.manual.mean_steps,
              cmp.manual.mean_seconds);
  std::printf("reduction:   %.0f%% steps, %.0f%% time\n",
              cmp.step_reduction_percent(), cmp.time_reduction_percent());
  return 0;
}

// One serve-bench submitter thread's outcome. `attempts` counts Submit calls
// (admitted + rejected), so rejected/attempts is the client's reject rate.
struct ClientOutcome {
  uint64_t attempts = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
};

// One chaos-mode client's result-status tally.
struct ChaosOutcome {
  uint64_t ok = 0;
  uint64_t truncated = 0;  // subset of ok when allow_partial is set
  uint64_t unavailable = 0;
  uint64_t internal_error = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t other = 0;

  uint64_t total() const {
    return ok + unavailable + internal_error + deadline_exceeded + other;
  }
};

// Chaos-mode bench client: drives its share of the workload through a
// resilient ServiceClient (breaker + budgeted retries) instead of raw Submit,
// and tallies final statuses. With a deadline set, requests opt into partial
// results, so deadline expiries surface as truncated OK answers.
void RunChaosClient(resilience::ServiceClient& client,
                    const std::vector<Graph>& queries, size_t repeat,
                    size_t client_id, size_t num_clients, double deadline_ms,
                    ChaosOutcome* outcome) {
  for (size_t round = 0; round < repeat; ++round) {
    for (size_t qi = client_id; qi < queries.size(); qi += num_clients) {
      QueryRequest request;
      request.pattern = queries[qi];
      request.max_embeddings = 2000;
      request.deadline_ms = deadline_ms;
      request.allow_partial = deadline_ms > 0;
      request.priority = static_cast<RequestPriority>(qi % 3);
      QueryResult result = client.Execute(std::move(request));
      if (result.truncated) ++outcome->truncated;
      switch (result.status.code()) {
        case StatusCode::kOk:
          ++outcome->ok;
          break;
        case StatusCode::kUnavailable:
          ++outcome->unavailable;
          break;
        case StatusCode::kInternal:
          ++outcome->internal_error;
          break;
        case StatusCode::kDeadlineExceeded:
          ++outcome->deadline_exceeded;
          break;
        default:
          ++outcome->other;
          break;
      }
    }
  }
}

// Replays this client's share of the workload (queries striped across
// clients). On kUnavailable the client waits for its own oldest outstanding
// request, then retries — the retry-after-drain loop a well-behaved caller
// runs under backpressure. A barrier between rounds models users re-issuing
// popular queries after earlier answers came back.
void RunBenchClient(QueryService& service, const std::vector<Graph>& queries,
                    size_t repeat, size_t client_id, size_t num_clients,
                    double deadline_ms, ClientOutcome* outcome) {
  std::vector<std::future<QueryResult>> futures;
  size_t next_wait = 0;
  for (size_t round = 0; round < repeat; ++round) {
    for (size_t qi = client_id; qi < queries.size(); qi += num_clients) {
      QueryRequest request;
      request.pattern = queries[qi];
      request.max_embeddings = 2000;
      request.deadline_ms = deadline_ms;
      for (;;) {
        ++outcome->attempts;
        auto submitted = service.Submit(request);
        if (submitted.ok()) {
          futures.push_back(std::move(submitted).value());
          break;
        }
        ++outcome->rejected;
        if (next_wait < futures.size()) {
          futures[next_wait++].get();
        } else {
          std::this_thread::yield();
        }
      }
    }
    for (; next_wait < futures.size(); ++next_wait) futures[next_wait].get();
  }
  for (; next_wait < futures.size(); ++next_wait) futures[next_wait].get();
  outcome->completed = futures.size();
}

// The wire form of one bench query: the JSON body POST /query decodes back
// into the same QueryRequest RunBenchClient submits in-process.
std::string QueryBodyJson(const Graph& pattern, double deadline_ms) {
  net::JsonValue vertices = net::JsonValue::Array();
  for (VertexId v = 0; v < pattern.NumVertices(); ++v) {
    vertices.Append(net::JsonValue::Number(pattern.VertexLabel(v)));
  }
  net::JsonValue edges = net::JsonValue::Array();
  for (const Edge& e : pattern.Edges()) {
    net::JsonValue edge = net::JsonValue::Array();
    edge.Append(net::JsonValue::Number(e.u));
    edge.Append(net::JsonValue::Number(e.v));
    edge.Append(net::JsonValue::Number(e.label));
    edges.Append(edge);
  }
  net::JsonValue json_pattern = net::JsonValue::Object();
  json_pattern.Set("vertices", std::move(vertices));
  json_pattern.Set("edges", std::move(edges));
  net::JsonValue body = net::JsonValue::Object();
  body.Set("pattern", std::move(json_pattern));
  body.Set("max_embeddings", net::JsonValue::Number(2000));
  if (deadline_ms > 0) {
    body.Set("deadline_ms", net::JsonValue::Number(deadline_ms));
    body.Set("allow_partial", net::JsonValue::Bool(true));
  }
  return body.Dump();
}

// Re-extracts the deterministic content subset from a /query response body,
// in the same key order QueryResultContentJson emits, so equal results dump
// to equal bytes regardless of transport diagnostics in the full response.
StatusOr<std::string> ResponseContentDump(const std::string& body) {
  auto parsed = net::ParseJson(body);
  if (!parsed.ok()) return parsed.status();
  if (!parsed.value().is_object()) {
    return Status::ParseError("response body is not a JSON object");
  }
  net::JsonValue content = net::JsonValue::Object();
  for (const char* key :
       {"status", "embedding_count", "matched_graphs", "suggestions",
        "truncated"}) {
    const net::JsonValue* field = parsed.value().Find(key);
    if (field == nullptr) {
      return Status::ParseError(std::string("response is missing '") + key +
                                "'");
    }
    content.Set(key, *field);
  }
  return content.Dump();
}

double Quantile(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0;
  size_t index = static_cast<size_t>(q * static_cast<double>(sorted_ms.size()));
  if (index >= sorted_ms.size()) index = sorted_ms.size() - 1;
  return sorted_ms[index];
}

// One HTTP bench client's tally. Latencies are client-observed (serialize +
// wire + parse), the numbers E17 compares against in-process Execute calls.
struct HttpClientOutcome {
  std::vector<double> latencies_ms;
  uint64_t ok = 0;
  uint64_t http_errors = 0;      // non-2xx responses (503 under chaos)
  uint64_t transport_errors = 0; // torn reads, resets, timeouts
  uint64_t content_matches = 0;
  uint64_t content_mismatches = 0;
};

// Drives this client's stripe of the workload through a real socket. On any
// failure the client reconnects but never re-sends the failed request, so
// under chaos the server draws exactly one http_read fault decision per
// request and the availability tally is a deterministic function of the
// seed (EXPERIMENTS.md E17).
void RunHttpBenchClient(uint16_t port, const std::vector<std::string>& bodies,
                        const std::vector<std::string>& expected,
                        size_t distinct, size_t repeat, size_t client_id,
                        size_t num_clients, bool verify_content,
                        HttpClientOutcome* outcome) {
  net::HttpClient client;
  for (size_t round = 0; round < repeat; ++round) {
    for (size_t qi = client_id; qi < bodies.size(); qi += num_clients) {
      if (!client.connected() &&
          !client.Connect("127.0.0.1", port).ok()) {
        ++outcome->transport_errors;
        continue;
      }
      Stopwatch timer;
      auto response = client.Roundtrip("POST", "/query", bodies[qi]);
      if (!response.ok()) {
        ++outcome->transport_errors;
        client.Close();
        continue;
      }
      outcome->latencies_ms.push_back(timer.ElapsedMillis());
      if (response.value().status < 200 || response.value().status >= 300) {
        ++outcome->http_errors;
        continue;
      }
      ++outcome->ok;
      if (verify_content) {
        auto content = ResponseContentDump(response.value().body);
        if (content.ok() && content.value() == expected[qi % distinct]) {
          ++outcome->content_matches;
        } else {
          ++outcome->content_mismatches;
        }
      }
    }
  }
}

// serve-bench --http: the same workload, twice — in-process Execute calls,
// then real loopback sockets — so the delta is exactly the serving stack
// (JSON codec + HTTP framing + TCP + thread handoff).
int RunHttpBench(const GraphDatabase& db, const std::vector<Graph>& queries,
                 size_t distinct_queries, size_t repeat, size_t clients,
                 size_t threads, double deadline_ms, int64_t cache_arg,
                 bool coalesce, const std::string& chaos_spec,
                 const std::string& metrics_out) {
  QueryServiceOptions options;
  options.num_threads = threads;
  options.queue_capacity = 512;
  options.cache_capacity = static_cast<size_t>(cache_arg);
  options.enable_coalescing = coalesce;

  // Expected result content per distinct query, computed by a throwaway
  // service so both timed phases start with a cold cache.
  std::vector<std::string> bodies;
  bodies.reserve(queries.size());
  for (const Graph& q : queries) {
    bodies.push_back(QueryBodyJson(q, deadline_ms));
  }
  const bool verify_content = chaos_spec.empty() && deadline_ms == 0;
  std::vector<std::string> expected(distinct_queries);
  {
    QueryService reference(db, options);
    for (size_t qi = 0; qi < distinct_queries; ++qi) {
      auto parsed = net::ParseJson(bodies[qi]);
      auto request = net::QueryRequestFromJson(parsed.value());
      if (!request.ok()) return Fail(request.status());
      QueryResult result = reference.Execute(std::move(request).value());
      expected[qi] = net::QueryResultContentJson(result).Dump();
    }
  }

  // Phase A: in-process. Same striping and client threads as the HTTP
  // phase; the only difference is the call is a function call.
  std::vector<std::vector<double>> direct_latencies(clients);
  double direct_seconds = 0;
  {
    QueryService service(db, options);
    Stopwatch timer;
    auto run_direct = [&](size_t c) {
      for (size_t round = 0; round < repeat; ++round) {
        for (size_t qi = c; qi < queries.size(); qi += clients) {
          auto parsed = net::ParseJson(bodies[qi]);
          auto request = net::QueryRequestFromJson(parsed.value());
          Stopwatch one;
          service.Execute(std::move(request).value());
          direct_latencies[c].push_back(one.ElapsedMillis());
        }
      }
    };
    std::vector<std::thread> workers;
    for (size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&run_direct, c] { run_direct(c); });
    }
    for (auto& w : workers) w.join();
    direct_seconds = timer.ElapsedSeconds();
  }

  // Phase B: the same requests through real sockets.
  std::optional<resilience::FaultInjector> injector;
  if (!chaos_spec.empty()) {
    auto plan = resilience::FaultInjector::ParseChaosSpec(chaos_spec);
    if (!plan.ok()) return Fail(plan.status());
    injector.emplace(plan.value());
  }
  QueryService service(db, options);
  net::QueryServing::Options serving_options;
  serving_options.metrics = &service.metrics();
  net::QueryServing serving(&service, serving_options);
  net::HttpServerOptions server_options;
  server_options.num_threads = threads;
  server_options.metrics = &service.metrics();
  // Chaos arms only the wire: the experiment isolates transport faults, so
  // the backend itself stays fault-free.
  if (injector.has_value()) server_options.fault_injector = &*injector;
  net::HttpServer server(
      [&serving](const net::HttpRequest& r) { return serving.Handle(r); },
      server_options);
  serving.set_server(&server);
  if (Status s = server.Start(); !s.ok()) return Fail(s);

  std::vector<HttpClientOutcome> outcomes(clients);
  std::atomic<bool> bench_done{false};
  uint64_t scrape_metrics_ok = 0;
  uint64_t scrape_healthz_ok = 0;
  uint64_t scrape_failures = 0;
  // Under chaos the scraper would consume http_read fault draws and break
  // run-to-run determinism, so it scrapes after the load loop instead.
  std::thread scraper;
  auto scrape_once = [&](net::HttpClient& probe) {
    if (!probe.connected() &&
        !probe.Connect("127.0.0.1", server.port()).ok()) {
      ++scrape_failures;
      return;
    }
    auto metrics = probe.Roundtrip("GET", "/metrics");
    if (metrics.ok() && metrics.value().status == 200) {
      ++scrape_metrics_ok;
    } else {
      ++scrape_failures;
    }
    auto healthz = probe.Roundtrip("GET", "/healthz");
    if (healthz.ok() && healthz.value().status == 200) {
      ++scrape_healthz_ok;
    } else {
      ++scrape_failures;
    }
  };
  if (!injector.has_value()) {
    scraper = std::thread([&] {
      net::HttpClient probe;
      while (!bench_done.load(std::memory_order_relaxed)) {
        scrape_once(probe);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }

  Stopwatch timer;
  {
    std::vector<std::thread> workers;
    for (size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        RunHttpBenchClient(server.port(), bodies, expected, distinct_queries,
                           repeat, c, clients, verify_content, &outcomes[c]);
      });
    }
    for (auto& w : workers) w.join();
  }
  double http_seconds = timer.ElapsedSeconds();
  bench_done.store(true, std::memory_order_relaxed);
  if (scraper.joinable()) scraper.join();
  if (injector.has_value()) {
    // The probe itself draws http_read faults, so give it a few attempts;
    // these draws come after every bench request's, so the availability
    // tally above stays seed-deterministic.
    net::HttpClient probe;
    for (int attempt = 0;
         attempt < 5 && (scrape_metrics_ok == 0 || scrape_healthz_ok == 0);
         ++attempt) {
      scrape_once(probe);
    }
  }

  std::vector<double> direct_all;
  for (auto& v : direct_latencies) {
    direct_all.insert(direct_all.end(), v.begin(), v.end());
  }
  std::sort(direct_all.begin(), direct_all.end());
  std::vector<double> http_all;
  HttpClientOutcome tally;
  for (const HttpClientOutcome& o : outcomes) {
    http_all.insert(http_all.end(), o.latencies_ms.begin(),
                    o.latencies_ms.end());
    tally.ok += o.ok;
    tally.http_errors += o.http_errors;
    tally.transport_errors += o.transport_errors;
    tally.content_matches += o.content_matches;
    tally.content_mismatches += o.content_mismatches;
  }
  std::sort(http_all.begin(), http_all.end());
  const uint64_t total_requests =
      tally.ok + tally.http_errors + tally.transport_errors;

  std::printf("http bench:  %zu distinct queries x %zu rounds, %zu clients, "
              "%zu server threads\n",
              distinct_queries, repeat, clients, threads);
  std::printf("in-process:  %zu requests in %.3fs  p50 %.3fms  p99 %.3fms\n",
              direct_all.size(), direct_seconds, Quantile(direct_all, 0.50),
              Quantile(direct_all, 0.99));
  std::printf("http:        %llu requests in %.3fs  p50 %.3fms  p99 %.3fms\n",
              static_cast<unsigned long long>(total_requests), http_seconds,
              Quantile(http_all, 0.50), Quantile(http_all, 0.99));
  std::printf("wire overhead: p50 %+.3fms  p99 %+.3fms\n",
              Quantile(http_all, 0.50) - Quantile(direct_all, 0.50),
              Quantile(http_all, 0.99) - Quantile(direct_all, 0.99));
  if (verify_content) {
    std::printf("content:     %llu/%llu responses byte-identical to "
                "in-process results\n",
                static_cast<unsigned long long>(tally.content_matches),
                static_cast<unsigned long long>(tally.content_matches +
                                                tally.content_mismatches));
  }
  if (injector.has_value()) {
    double availability =
        total_requests == 0
            ? 0.0
            : 100.0 * static_cast<double>(tally.ok) /
                  static_cast<double>(total_requests);
    std::printf("chaos:       spec '%s' (seed %llu)\n", chaos_spec.c_str(),
                static_cast<unsigned long long>(injector->seed()));
    auto point = resilience::FaultPoint::kHttpRead;
    std::printf("  http_read  %llu errors, %llu latencies, %llu drops\n",
                static_cast<unsigned long long>(
                    injector->InjectedErrors(point)),
                static_cast<unsigned long long>(
                    injector->InjectedLatencies(point)),
                static_cast<unsigned long long>(
                    injector->InjectedDrops(point)));
    std::printf("availability: %.1f%% ok (%llu http errors, %llu transport "
                "errors)\n",
                availability,
                static_cast<unsigned long long>(tally.http_errors),
                static_cast<unsigned long long>(tally.transport_errors));
  }
  std::printf("scrapes:     /metrics %llu ok, /healthz %llu ok, %llu "
              "failures%s\n",
              static_cast<unsigned long long>(scrape_metrics_ok),
              static_cast<unsigned long long>(scrape_healthz_ok),
              static_cast<unsigned long long>(scrape_failures),
              injector.has_value() ? " (post-load under chaos)" : "");
  if (!metrics_out.empty()) {
    if (Status s = obs::WritePrometheusFile(service.metrics(), metrics_out);
        !s.ok()) {
      return Fail(s);
    }
    std::printf("metrics:     wrote Prometheus snapshot to %s\n",
                metrics_out.c_str());
  }
  server.Shutdown();
  service.Shutdown();
  if (verify_content && tally.content_mismatches > 0) return 1;
  if (scrape_metrics_ok == 0 || scrape_healthz_ok == 0) {
    std::fprintf(stderr, "error: observability endpoints never answered\n");
    return 1;
  }
  return 0;
}

// serve-bench --shards: the sharded scatter-gather path (EXPERIMENTS.md E18,
// and E19 with --replicas). Phase A computes reference results on one
// unsharded QueryService; phase B replays the same workload through a
// ShardedRouter over N shards x R replicas and checks the merged content is
// byte-identical to the reference. With --chaos the injector is wired into
// replica (--chaos-shard, --chaos-replica) only, so the report shows whether
// the damage stayed contained — and with R > 1, whether the sibling replicas
// absorbed it entirely.
int RunShardBench(const GraphDatabase& db, const std::vector<Graph>& queries,
                  size_t distinct_queries, size_t repeat, size_t clients,
                  size_t threads, double deadline_ms, int64_t cache_arg,
                  bool coalesce, const std::string& chaos_spec,
                  const std::string& metrics_out, size_t shards,
                  size_t replicas, double hedge_ms, double gather_slack_ms,
                  size_t chaos_shard, size_t chaos_replica) {
  QueryServiceOptions shard_options;
  shard_options.num_threads = threads;
  shard_options.queue_capacity = 512;
  shard_options.cache_capacity = static_cast<size_t>(cache_arg);
  shard_options.enable_coalescing = coalesce;

  std::optional<resilience::FaultInjector> injector;
  if (!chaos_spec.empty()) {
    auto plan = resilience::FaultInjector::ParseChaosSpec(chaos_spec);
    if (!plan.ok()) return Fail(plan.status());
    injector.emplace(plan.value());
  }

  auto bench_request = [&](size_t qi) {
    QueryRequest request;
    request.pattern = queries[qi];
    request.max_embeddings = 2000;
    request.deadline_ms = deadline_ms;
    // Chaos runs opt into graceful degradation: a dark shard then costs its
    // slice of the collection, not the whole answer.
    request.allow_partial = injector.has_value();
    return request;
  };

  // Reference content per distinct query from one unsharded service — the
  // ground truth the merged sharded results must reproduce byte-for-byte.
  // Skipped under chaos or deadlines, where divergence is the experiment.
  const bool verify_content = !injector.has_value() && deadline_ms == 0;
  std::vector<std::string> expected(distinct_queries);
  if (verify_content) {
    QueryService reference(db, shard_options);
    for (size_t qi = 0; qi < distinct_queries; ++qi) {
      QueryResult result = reference.Execute(bench_request(qi));
      expected[qi] = net::QueryResultContentJson(result).Dump();
    }
  }

  shard::ShardedRouterOptions router_options;
  router_options.num_shards = shards;
  router_options.num_replicas = replicas;
  router_options.shard_options = shard_options;
  router_options.hedge_ms = hedge_ms;
  if (gather_slack_ms >= 0) router_options.gather_slack_ms = gather_slack_ms;
  if (injector.has_value()) {
    router_options.chaos_injector = &*injector;
    router_options.chaos_shard = chaos_shard;
    router_options.chaos_replica = chaos_replica;
  }
  shard::ShardedRouter router(db, router_options);

  struct ShardBenchOutcome {
    ChaosOutcome statuses;
    uint64_t content_matches = 0;
    uint64_t content_mismatches = 0;
  };
  std::vector<ShardBenchOutcome> outcomes(clients);
  auto run_client = [&](size_t c) {
    ShardBenchOutcome& outcome = outcomes[c];
    for (size_t round = 0; round < repeat; ++round) {
      for (size_t qi = c; qi < queries.size(); qi += clients) {
        QueryResult result = router.Execute(bench_request(qi));
        if (result.truncated) ++outcome.statuses.truncated;
        switch (result.status.code()) {
          case StatusCode::kOk:
            ++outcome.statuses.ok;
            break;
          case StatusCode::kUnavailable:
            ++outcome.statuses.unavailable;
            break;
          case StatusCode::kInternal:
            ++outcome.statuses.internal_error;
            break;
          case StatusCode::kDeadlineExceeded:
            ++outcome.statuses.deadline_exceeded;
            break;
          default:
            ++outcome.statuses.other;
            break;
        }
        if (verify_content) {
          std::string content = net::QueryResultContentJson(result).Dump();
          if (content == expected[qi % distinct_queries]) {
            ++outcome.content_matches;
          } else {
            ++outcome.content_mismatches;
          }
        }
      }
    }
  };

  Stopwatch timer;
  if (clients == 1) {
    run_client(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&run_client, c] { run_client(c); });
    }
    for (auto& w : workers) w.join();
  }
  double seconds = timer.ElapsedSeconds();
  // Drain before snapshotting: leg bookkeeping runs on pool threads after
  // the gather resolves, so counters are only exact once the pool is idle.
  router.Shutdown();

  ShardBenchOutcome tally;
  for (const ShardBenchOutcome& o : outcomes) {
    tally.statuses.ok += o.statuses.ok;
    tally.statuses.truncated += o.statuses.truncated;
    tally.statuses.unavailable += o.statuses.unavailable;
    tally.statuses.internal_error += o.statuses.internal_error;
    tally.statuses.deadline_exceeded += o.statuses.deadline_exceeded;
    tally.statuses.other += o.statuses.other;
    tally.content_matches += o.content_matches;
    tally.content_mismatches += o.content_mismatches;
  }
  shard::RouterStats stats = router.Snapshot();

  std::printf("shard bench: %zu distinct queries x %zu rounds, %zu clients, "
              "%zu shards x %zu replicas x %zu threads\n",
              distinct_queries, repeat, clients, shards, replicas, threads);
  std::printf("placement:   %s (",
              shard::ShardPlacementName(router.shard_map().placement()));
  for (size_t i = 0; i < shards; ++i) {
    std::printf("%s%zu", i == 0 ? "" : "/", router.shard_map().Members(i).size());
  }
  std::printf(" graphs per shard)\n");
  std::printf("throughput:  %.0f queries/s  (%llu routed, %llu fanned out)\n",
              static_cast<double>(stats.requests) / seconds,
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.fanouts));
  std::printf("latency:     p50 %.3fms  p99 %.3fms\n", stats.p50_latency_ms,
              stats.p99_latency_ms);
  if (verify_content) {
    std::printf("content:     %llu/%llu merged results byte-identical to the "
                "single-service reference\n",
                static_cast<unsigned long long>(tally.content_matches),
                static_cast<unsigned long long>(tally.content_matches +
                                                tally.content_mismatches));
  }
  if (hedge_ms > 0) {
    std::printf("hedging:     %llu fired, %llu won, %llu denied "
                "(trigger max(%.1fms, p%.0f))\n",
                static_cast<unsigned long long>(stats.hedges_fired),
                static_cast<unsigned long long>(stats.hedges_won),
                static_cast<unsigned long long>(stats.hedges_denied),
                hedge_ms, 100 * router_options.hedge_quantile);
    if (replicas > 1) {
      std::printf("             %llu cross-replica fired, %llu won\n",
                  static_cast<unsigned long long>(stats.cross_hedges_fired),
                  static_cast<unsigned long long>(stats.cross_hedges_won));
    }
  }
  if (replicas > 1) {
    std::printf("replication: %llu failovers, %llu all-replicas-down "
                "dispatches\n",
                static_cast<unsigned long long>(stats.failovers),
                static_cast<unsigned long long>(stats.all_replicas_down));
  }
  std::printf("per-shard leg tallies:\n");
  for (size_t i = 0; i < stats.shards.size(); ++i) {
    std::printf("  shard %zu: %llu legs, %llu errors%s%s\n", i,
                static_cast<unsigned long long>(stats.shards[i].requests),
                static_cast<unsigned long long>(stats.shards[i].errors),
                replicas > 1
                    ? ""
                    : (std::string(", breaker ") +
                       resilience::BreakerStateName(
                           router.client(i).breaker_state()))
                          .c_str(),
                injector.has_value() && i == chaos_shard && replicas == 1
                    ? "  <- chaos"
                    : "");
    for (size_t r = 0; r < replicas && replicas > 1; ++r) {
      std::printf("    replica %zu: %llu picks, %llu errors, breaker %s%s\n",
                  r,
                  static_cast<unsigned long long>(stats.replica_picks[i][r]),
                  static_cast<unsigned long long>(stats.replica_errors[i][r]),
                  resilience::BreakerStateName(
                      router.client(i, r).breaker_state()),
                  injector.has_value() && i == chaos_shard &&
                          r == chaos_replica
                      ? "  <- chaos"
                      : "");
    }
  }
  if (injector.has_value()) {
    std::printf("chaos:       spec '%s' (seed %llu) on shard %zu replica %zu "
                "only\n",
                chaos_spec.c_str(),
                static_cast<unsigned long long>(injector->seed()), chaos_shard,
                chaos_replica);
    for (size_t p = 0; p < resilience::kNumFaultPoints; ++p) {
      auto point = static_cast<resilience::FaultPoint>(p);
      uint64_t errors = injector->InjectedErrors(point);
      uint64_t latencies = injector->InjectedLatencies(point);
      uint64_t drops = injector->InjectedDrops(point);
      if (errors + latencies + drops == 0) continue;
      std::printf("  %-11s %llu errors, %llu latencies, %llu drops\n",
                  resilience::FaultPointName(point),
                  static_cast<unsigned long long>(errors),
                  static_cast<unsigned long long>(latencies),
                  static_cast<unsigned long long>(drops));
    }
    double availability =
        tally.statuses.total() == 0
            ? 0.0
            : 100.0 * static_cast<double>(tally.statuses.ok) /
                  static_cast<double>(tally.statuses.total());
    std::printf("availability: %.1f%% ok (%llu truncated partials; "
                "%llu unavailable, %llu internal, %llu deadline-exceeded)\n",
                availability,
                static_cast<unsigned long long>(tally.statuses.truncated),
                static_cast<unsigned long long>(tally.statuses.unavailable),
                static_cast<unsigned long long>(tally.statuses.internal_error),
                static_cast<unsigned long long>(
                    tally.statuses.deadline_exceeded));
    std::printf("degradation: %llu merged partials, %llu gather timeouts\n",
                static_cast<unsigned long long>(stats.partials),
                static_cast<unsigned long long>(stats.gather_timeouts));
  }
  if (!metrics_out.empty()) {
    if (Status s = obs::WritePrometheusFile(router.metrics(), metrics_out);
        !s.ok()) {
      return Fail(s);
    }
    std::printf("metrics:     wrote Prometheus snapshot to %s\n",
                metrics_out.c_str());
  }
  if (verify_content && tally.content_mismatches > 0) return 1;
  return 0;
}

// SIGINT/SIGTERM flip this; the serve loop polls it and drains. Signal-safe:
// handlers may only touch lock-free atomics.
std::atomic<bool> g_serve_stop{false};

void HandleServeSignal(int) { g_serve_stop.store(true); }

int Serve(int argc, char** argv) {
  int64_t port_arg = 8080;
  int64_t threads_arg = 4;
  int64_t cache_arg = 1024;
  int64_t shards_arg = 1;
  int64_t replicas_arg = 1;
  int64_t chaos_shard_arg = 0;
  int64_t chaos_replica_arg = 0;
  double hedge_ms = 0;
  // Negative sentinel: "flag absent, keep the router's default slack".
  double gather_slack_ms = -1;
  std::string chaos_spec;
  bool smoke = false;
  std::vector<char*> positional;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--port=", 0) == 0) {
      if (Status s = ParseCount(arg.substr(7), "--port", 0, 65535, &port_arg);
          !s.ok()) {
        return Fail(s);
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (Status s = ParseCount(arg.substr(10), "--threads", 1, 1024,
                                &threads_arg);
          !s.ok()) {
        return Fail(s);
      }
    } else if (arg.rfind("--cache=", 0) == 0) {
      if (Status s = ParseCount(arg.substr(8), "--cache", 0, 1 << 20,
                                &cache_arg);
          !s.ok()) {
        return Fail(s);
      }
    } else if (arg.rfind("--shards=", 0) == 0) {
      if (Status s = ParseCount(arg.substr(9), "--shards", 1, 64, &shards_arg);
          !s.ok()) {
        return Fail(s);
      }
    } else if (arg.rfind("--replicas=", 0) == 0) {
      if (Status s = ParseCount(arg.substr(11), "--replicas", 1, 64,
                                &replicas_arg);
          !s.ok()) {
        return Fail(s);
      }
    } else if (arg.rfind("--hedge-ms=", 0) == 0) {
      if (Status s = ParseDoubleArg(arg.substr(11), "--hedge-ms", 0, 1e6,
                                    &hedge_ms);
          !s.ok()) {
        return Fail(s);
      }
    } else if (arg.rfind("--gather-slack-ms=", 0) == 0) {
      if (Status s = ParseDoubleArg(arg.substr(18), "--gather-slack-ms", 0,
                                    1e6, &gather_slack_ms);
          !s.ok()) {
        return Fail(s);
      }
    } else if (arg.rfind("--chaos-shard=", 0) == 0) {
      if (Status s = ParseCount(arg.substr(14), "--chaos-shard", 0, 63,
                                &chaos_shard_arg);
          !s.ok()) {
        return Fail(s);
      }
    } else if (arg.rfind("--chaos-replica=", 0) == 0) {
      if (Status s = ParseCount(arg.substr(16), "--chaos-replica", 0, 63,
                                &chaos_replica_arg);
          !s.ok()) {
        return Fail(s);
      }
    } else if (arg.rfind("--chaos=", 0) == 0) {
      chaos_spec = arg.substr(8);
      if (chaos_spec.empty()) {
        return Fail(Status::InvalidArgument(
            "--chaos: empty spec (see docs/resilience.md for the grammar)"));
      }
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return Usage();
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() != 1) return Usage();
  if (chaos_shard_arg >= shards_arg) {
    return Fail(Status::InvalidArgument(
        "--chaos-shard must name one of the --shards shards"));
  }
  if (chaos_replica_arg >= replicas_arg) {
    return Fail(Status::InvalidArgument(
        "--chaos-replica must name one of the --replicas replicas"));
  }
  auto db = io::LoadDatabase(positional[0]);
  if (!db.ok()) return Fail(db.status());
  if (db->empty()) return Fail(Status::InvalidArgument("input has no graphs"));

  std::optional<resilience::FaultInjector> injector;
  if (!chaos_spec.empty()) {
    auto plan = resilience::FaultInjector::ParseChaosSpec(chaos_spec);
    if (!plan.ok()) return Fail(plan.status());
    injector.emplace(plan.value());
  }

  QueryServiceOptions options;
  options.num_threads = static_cast<size_t>(threads_arg);
  options.queue_capacity = 256;
  options.cache_capacity = static_cast<size_t>(cache_arg);

  // Either one QueryService or a sharded fleet behind a router; the serving
  // layer and the HTTP server are identical from here on.
  std::unique_ptr<QueryService> service;
  std::unique_ptr<shard::ShardedRouter> router;
  std::unique_ptr<net::QueryServing> serving;
  obs::MetricsRegistry* registry = nullptr;
  net::QueryServing::Options serving_options;
  if (shards_arg > 1 || replicas_arg > 1) {
    shard::ShardedRouterOptions router_options;
    router_options.num_shards = static_cast<size_t>(shards_arg);
    router_options.num_replicas = static_cast<size_t>(replicas_arg);
    router_options.shard_options = options;
    router_options.hedge_ms = hedge_ms;
    if (gather_slack_ms >= 0) router_options.gather_slack_ms = gather_slack_ms;
    if (injector.has_value()) {
      // Service-level chaos lands on one replica; wire faults (http_read)
      // are armed on the server below regardless.
      router_options.chaos_injector = &*injector;
      router_options.chaos_shard = static_cast<size_t>(chaos_shard_arg);
      router_options.chaos_replica = static_cast<size_t>(chaos_replica_arg);
    }
    router = std::make_unique<shard::ShardedRouter>(*db, router_options);
    registry = &router->metrics();
    serving_options.metrics = registry;
    serving = std::make_unique<net::QueryServing>(router.get(),
                                                  serving_options);
  } else {
    if (injector.has_value()) options.fault_injector = &*injector;
    service = std::make_unique<QueryService>(*db, options);
    registry = &service->metrics();
    serving_options.metrics = registry;
    serving = std::make_unique<net::QueryServing>(service.get(),
                                                  serving_options);
  }

  net::HttpServerOptions server_options;
  // --smoke binds an ephemeral port so CI runs never collide.
  server_options.port = smoke ? 0 : static_cast<uint16_t>(port_arg);
  server_options.num_threads = static_cast<size_t>(threads_arg);
  server_options.metrics = registry;
  if (injector.has_value()) server_options.fault_injector = &*injector;
  net::HttpServer server(
      [&serving](const net::HttpRequest& r) { return serving->Handle(r); },
      server_options);
  serving->set_server(&server);
  if (Status s = server.Start(); !s.ok()) return Fail(s);
  if (router != nullptr) {
    std::printf("serving %zu graphs on http://127.0.0.1:%u across %zu shards"
                " x %zu replicas%s  (GET /metrics, GET /healthz, POST "
                "/query)\n",
                db->size(), server.port(), router->num_shards(),
                router->num_replicas(), hedge_ms > 0 ? " with hedging" : "");
  } else {
    std::printf("serving %zu graphs on http://127.0.0.1:%u  "
                "(GET /metrics, GET /healthz, POST /query)\n",
                db->size(), server.port());
  }

  if (smoke) {
    // Hermetic self-drive: one request through each endpoint over a real
    // loopback socket, then a graceful drain. Exit status is the check.
    net::HttpClient client;
    if (Status s = client.Connect("127.0.0.1", server.port()); !s.ok()) {
      return Fail(s);
    }
    auto healthz = client.Roundtrip("GET", "/healthz");
    if (!healthz.ok()) return Fail(healthz.status());
    std::printf("smoke /healthz: %d %s\n", healthz.value().status,
                healthz.value().body.c_str());
    Graph pattern;
    pattern.AddVertex(db->graphs()[0].VertexLabel(0));
    auto query =
        client.Roundtrip("POST", "/query", QueryBodyJson(pattern, 0));
    if (!query.ok()) return Fail(query.status());
    std::printf("smoke /query: %d %s\n", query.value().status,
                query.value().body.c_str());
    auto metrics = client.Roundtrip("GET", "/metrics");
    if (!metrics.ok()) return Fail(metrics.status());
    bool instrumented =
        metrics.value().body.find("vqi_http_requests_total") !=
        std::string::npos;
    std::printf("smoke /metrics: %d (%zu bytes, vqi_http_requests_total %s)\n",
                metrics.value().status, metrics.value().body.size(),
                instrumented ? "present" : "MISSING");
    bool sharded_ok = true;
    if (router != nullptr) {
      // Router mode must expose one labeled series per shard plus the
      // router's own instruments, and /healthz must report the fleet. An
      // unreplicated fleet keeps the bare {shard="i"} label shape.
      const std::string last_shard_series =
          router->num_replicas() == 1
              ? "vqi_requests_admitted_total{shard=\"" +
                    std::to_string(router->num_shards() - 1) + "\"}"
              : "vqi_requests_admitted_total{shard=\"" +
                    std::to_string(router->num_shards() - 1) +
                    "\",replica=\"" +
                    std::to_string(router->num_replicas() - 1) + "\"}";
      sharded_ok =
          metrics.value().body.find(last_shard_series) != std::string::npos &&
          metrics.value().body.find("vqi_router_requests_total") !=
              std::string::npos &&
          healthz.value().body.find("shard_breakers") != std::string::npos;
      std::printf("smoke shards: per-shard series + router instruments + "
                  "fleet health %s\n",
                  sharded_ok ? "present" : "MISSING");
      if (router->num_replicas() > 1) {
        // Replicated fleet: every replica gets its own pick counter and its
        // own breaker entry in the fleet health view.
        const std::string last_replica_series =
            "vqi_replica_picks_total{shard=\"" +
            std::to_string(router->num_shards() - 1) + "\",replica=\"" +
            std::to_string(router->num_replicas() - 1) + "\"}";
        const bool replicas_ok =
            metrics.value().body.find(last_replica_series) !=
                std::string::npos &&
            healthz.value().body.find("\"replicas\"") != std::string::npos;
        std::printf("smoke replicas: per-replica series + replica health %s\n",
                    replicas_ok ? "present" : "MISSING");
        sharded_ok = sharded_ok && replicas_ok;
      }
    }
    server.Shutdown();
    if (router != nullptr) {
      router->Shutdown();
    } else {
      service->Shutdown();
    }
    bool pass = healthz.value().status == 200 &&
                query.value().status == 200 && metrics.value().status == 200 &&
                instrumented && sharded_ok;
    std::printf("smoke: %s\n", pass ? "ok" : "FAILED");
    return pass ? 0 : 1;
  }

  g_serve_stop.store(false);
  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);
  while (!g_serve_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("\nsignal received; draining (grace %.0fms)...\n",
              server_options.drain_grace_ms);
  server.Shutdown();
  ServiceStats stats;
  if (router != nullptr) {
    router->Shutdown();
    stats = router->AggregateSnapshot();
  } else {
    service->Shutdown();
    stats = service->Snapshot();
  }
  std::printf("served %llu connections, %llu requests admitted, %llu shed\n",
              static_cast<unsigned long long>(server.connections_accepted()),
              static_cast<unsigned long long>(stats.admitted),
              static_cast<unsigned long long>(stats.shed));
  return 0;
}

int ServeBench(int argc, char** argv) {
  // Flags may appear anywhere; everything else is positional. Every value is
  // validated into a Status — a bad flag must never crash or misconfigure a
  // long bench run.
  std::string metrics_out;
  std::string chaos_spec;
  int64_t clients_arg = 1;
  int64_t threads_arg = 4;
  int64_t cache_arg = 1024;
  int64_t shards_arg = 1;
  int64_t replicas_arg = 1;
  int64_t chaos_shard_arg = 0;
  int64_t chaos_replica_arg = 0;
  bool threads_flag_set = false;
  double deadline_ms = 0;
  double dup_ratio = 0;
  double hedge_ms = 0;
  // Negative sentinel: "flag absent, keep the router's default slack".
  double gather_slack_ms = -1;
  bool coalesce = false;
  bool http_mode = false;
  std::vector<char*> positional;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(14);
    } else if (arg == "--http") {
      http_mode = true;
    } else if (arg == "--coalesce") {
      coalesce = true;
    } else if (arg.rfind("--dup-ratio=", 0) == 0) {
      if (Status s = ParseDoubleArg(arg.substr(12), "--dup-ratio", 0, 0.99,
                                    &dup_ratio);
          !s.ok()) {
        return Fail(s);
      }
    } else if (arg.rfind("--cache=", 0) == 0) {
      if (Status s = ParseCount(arg.substr(8), "--cache", 0, 1 << 20,
                                &cache_arg);
          !s.ok()) {
        return Fail(s);
      }
    } else if (arg.rfind("--clients=", 0) == 0) {
      if (Status s = ParseCount(arg.substr(10), "--clients", 1, 256,
                                &clients_arg);
          !s.ok()) {
        return Fail(s);
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (Status s = ParseCount(arg.substr(10), "--threads", 1, 1024,
                                &threads_arg);
          !s.ok()) {
        return Fail(s);
      }
      threads_flag_set = true;
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      if (Status s = ParseDoubleArg(arg.substr(14), "--deadline-ms", 0, 1e9,
                                    &deadline_ms);
          !s.ok()) {
        return Fail(s);
      }
    } else if (arg.rfind("--shards=", 0) == 0) {
      if (Status s = ParseCount(arg.substr(9), "--shards", 1, 64, &shards_arg);
          !s.ok()) {
        return Fail(s);
      }
    } else if (arg.rfind("--replicas=", 0) == 0) {
      if (Status s = ParseCount(arg.substr(11), "--replicas", 1, 64,
                                &replicas_arg);
          !s.ok()) {
        return Fail(s);
      }
    } else if (arg.rfind("--hedge-ms=", 0) == 0) {
      if (Status s = ParseDoubleArg(arg.substr(11), "--hedge-ms", 0, 1e6,
                                    &hedge_ms);
          !s.ok()) {
        return Fail(s);
      }
    } else if (arg.rfind("--gather-slack-ms=", 0) == 0) {
      if (Status s = ParseDoubleArg(arg.substr(18), "--gather-slack-ms", 0,
                                    1e6, &gather_slack_ms);
          !s.ok()) {
        return Fail(s);
      }
    } else if (arg.rfind("--chaos-shard=", 0) == 0) {
      if (Status s = ParseCount(arg.substr(14), "--chaos-shard", 0, 63,
                                &chaos_shard_arg);
          !s.ok()) {
        return Fail(s);
      }
    } else if (arg.rfind("--chaos-replica=", 0) == 0) {
      if (Status s = ParseCount(arg.substr(16), "--chaos-replica", 0, 63,
                                &chaos_replica_arg);
          !s.ok()) {
        return Fail(s);
      }
    } else if (arg.rfind("--chaos=", 0) == 0) {
      chaos_spec = arg.substr(8);
      if (chaos_spec.empty()) {
        return Fail(Status::InvalidArgument(
            "--chaos: empty spec (see docs/resilience.md for the grammar)"));
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return Usage();
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() < 1 || positional.size() > 4) return Usage();
  auto db = io::LoadDatabase(positional[0]);
  if (!db.ok()) return Fail(db.status());
  if (db->empty()) return Fail(Status::InvalidArgument("input has no graphs"));

  int64_t queries_arg = 40;
  int64_t repeat_arg = 3;
  if (positional.size() >= 2) {
    if (Status s = ParseCount(positional[1], "queries", 1, 1000000,
                              &queries_arg);
        !s.ok()) {
      return Fail(s);
    }
  }
  if (positional.size() >= 3) {
    if (threads_flag_set) {
      return Fail(Status::InvalidArgument(
          "threads given both positionally and via --threads"));
    }
    if (Status s = ParseCount(positional[2], "threads", 1, 1024, &threads_arg);
        !s.ok()) {
      return Fail(s);
    }
  }
  if (positional.size() >= 4) {
    if (Status s = ParseCount(positional[3], "repeat", 1, 1000000,
                              &repeat_arg);
        !s.ok()) {
      return Fail(s);
    }
  }
  WorkloadConfig wconfig;
  wconfig.num_queries = static_cast<size_t>(queries_arg);
  size_t threads = static_cast<size_t>(threads_arg);
  size_t repeat = static_cast<size_t>(repeat_arg);
  size_t clients = static_cast<size_t>(clients_arg);
  std::vector<Graph> queries = GenerateDbWorkload(*db, wconfig);
  size_t distinct_queries = queries.size();
  if (dup_ratio > 0) {
    // Expand so a fraction `dup_ratio` of the stream are duplicates of an
    // earlier query, interleaved (q0..qN, q0..qN, ...) so the copies are in
    // flight together — the burst shape single-flight coalescing targets.
    size_t total = static_cast<size_t>(
        static_cast<double>(distinct_queries) / (1.0 - dup_ratio) + 0.5);
    std::vector<Graph> expanded;
    expanded.reserve(total);
    for (size_t i = 0; i < total; ++i) {
      expanded.push_back(queries[i % distinct_queries]);
    }
    queries = std::move(expanded);
  }

  if (shards_arg > 1 || replicas_arg > 1) {
    if (http_mode) {
      return Fail(Status::InvalidArgument(
          "--shards/--replicas and --http are mutually exclusive; bench one "
          "serving stack at a time"));
    }
    if (chaos_shard_arg >= shards_arg) {
      return Fail(Status::InvalidArgument(
          "--chaos-shard must name one of the --shards shards"));
    }
    if (chaos_replica_arg >= replicas_arg) {
      return Fail(Status::InvalidArgument(
          "--chaos-replica must name one of the --replicas replicas"));
    }
    return RunShardBench(*db, queries, distinct_queries, repeat, clients,
                         threads, deadline_ms, cache_arg, coalesce, chaos_spec,
                         metrics_out, static_cast<size_t>(shards_arg),
                         static_cast<size_t>(replicas_arg), hedge_ms,
                         gather_slack_ms, static_cast<size_t>(chaos_shard_arg),
                         static_cast<size_t>(chaos_replica_arg));
  }

  if (http_mode) {
    return RunHttpBench(*db, queries, distinct_queries, repeat, clients,
                        threads, deadline_ms, cache_arg, coalesce, chaos_spec,
                        metrics_out);
  }

  std::optional<resilience::FaultInjector> injector;
  if (!chaos_spec.empty()) {
    auto plan = resilience::FaultInjector::ParseChaosSpec(chaos_spec);
    if (!plan.ok()) return Fail(plan.status());
    injector.emplace(plan.value());
  }

  QueryServiceOptions options;
  options.num_threads = threads;
  options.queue_capacity = 512;
  options.cache_capacity = static_cast<size_t>(cache_arg);
  options.enable_coalescing = coalesce;
  if (injector.has_value()) options.fault_injector = &*injector;
  QueryService service(*db, options);

  Stopwatch timer;
  std::vector<ClientOutcome> outcomes(clients);
  std::vector<ChaosOutcome> chaos_outcomes(clients);
  std::vector<std::unique_ptr<resilience::ServiceClient>> chaos_clients;
  if (injector.has_value()) {
    // Chaos mode: each bench client gets its own resilient wrapper (its own
    // breaker and retry budget), labeled in the metrics by client id.
    for (size_t c = 0; c < clients; ++c) {
      resilience::ServiceClientOptions client_options;
      client_options.metric_label = std::to_string(c);
      chaos_clients.push_back(std::make_unique<resilience::ServiceClient>(
          service, client_options));
    }
  }
  auto run_client = [&](size_t c) {
    if (injector.has_value()) {
      RunChaosClient(*chaos_clients[c], queries, repeat, c, clients,
                     deadline_ms, &chaos_outcomes[c]);
    } else {
      RunBenchClient(service, queries, repeat, c, clients, deadline_ms,
                     &outcomes[c]);
    }
  };
  if (clients == 1) {
    run_client(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&run_client, c] { run_client(c); });
    }
    for (auto& w : workers) w.join();
  }
  double seconds = timer.ElapsedSeconds();

  uint64_t total_completed = 0;
  for (const ClientOutcome& o : outcomes) total_completed += o.completed;
  for (const ChaosOutcome& o : chaos_outcomes) total_completed += o.total();

  ServiceStats stats = service.Snapshot();
  std::printf("replayed %llu requests (%zu distinct queries x %zu rounds, "
              "%zu clients) on %zu threads in %.3fs\n",
              static_cast<unsigned long long>(total_completed),
              distinct_queries, repeat, clients, threads, seconds);
  if (dup_ratio > 0) {
    std::printf("workload:    dup-ratio %.2f (%zu requests per round, "
                "coalescing %s)\n",
                dup_ratio, queries.size(), coalesce ? "on" : "off");
  }
  std::printf("throughput:  %.0f queries/s\n",
              static_cast<double>(total_completed) / seconds);
  std::printf("latency:     p50 %.3fms  p99 %.3fms\n", stats.p50_latency_ms,
              stats.p99_latency_ms);
  obs::HistogramSnapshot queue_wait =
      service.metrics()
          .GetHistogram("vqi_pool_queue_wait_ms", "",
                        obs::Histogram::DefaultLatencyBoundsMs())
          .Snapshot();
  std::printf("queue wait:  p50 %.3fms  p99 %.3fms\n",
              queue_wait.Quantile(0.50), queue_wait.Quantile(0.99));
  std::printf("admission:   %llu admitted, %llu rejected (backpressure)\n",
              static_cast<unsigned long long>(stats.admitted),
              static_cast<unsigned long long>(stats.rejected));
  std::printf("cache:       %llu hits / %llu misses / %llu evictions\n",
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              static_cast<unsigned long long>(stats.cache_evictions));
  // Backend executions are the cost coalescing and caching both drive down:
  // requests that actually ran the matcher / suggestion index.
  std::printf("backend:     %llu executions (%.2f per admitted request)\n",
              static_cast<unsigned long long>(stats.backend_executions),
              stats.admitted == 0
                  ? 0.0
                  : static_cast<double>(stats.backend_executions) /
                        static_cast<double>(stats.admitted));
  if (coalesce) {
    std::printf("coalesce:    %llu leaders, %llu waiters, %llu fanned out\n",
                static_cast<unsigned long long>(stats.coalesce_leaders),
                static_cast<unsigned long long>(stats.coalesce_waiters),
                static_cast<unsigned long long>(stats.coalesce_fanout));
  }
  if (injector.has_value()) {
    // Resilience summary: what the chaos layer injected and how the client
    // stack (retries, budget, breaker, partial results) absorbed it.
    std::printf("chaos:       spec '%s' (seed %llu)\n", chaos_spec.c_str(),
                static_cast<unsigned long long>(injector->seed()));
    for (size_t p = 0; p < resilience::kNumFaultPoints; ++p) {
      auto point = static_cast<resilience::FaultPoint>(p);
      uint64_t errors = injector->InjectedErrors(point);
      uint64_t latencies = injector->InjectedLatencies(point);
      uint64_t drops = injector->InjectedDrops(point);
      if (errors + latencies + drops == 0) continue;
      std::printf("  %-11s %llu errors, %llu latencies, %llu drops\n",
                  resilience::FaultPointName(point),
                  static_cast<unsigned long long>(errors),
                  static_cast<unsigned long long>(latencies),
                  static_cast<unsigned long long>(drops));
    }
    resilience::ClientStats totals;
    uint64_t opened = 0;
    for (const auto& client : chaos_clients) {
      resilience::ClientStats s = client->stats();
      totals.requests += s.requests;
      totals.attempts += s.attempts;
      totals.retries += s.retries;
      totals.ok += s.ok;
      totals.failed += s.failed;
      totals.budget_denied += s.budget_denied;
      totals.breaker_rejected += s.breaker_rejected;
      opened += client->breaker().TimesOpened();
    }
    ChaosOutcome tally;
    for (const ChaosOutcome& o : chaos_outcomes) {
      tally.ok += o.ok;
      tally.truncated += o.truncated;
      tally.unavailable += o.unavailable;
      tally.internal_error += o.internal_error;
      tally.deadline_exceeded += o.deadline_exceeded;
      tally.other += o.other;
    }
    std::printf("resilience:  %llu attempts for %llu requests "
                "(amplification %.3f), %llu retries, %llu budget-denied\n",
                static_cast<unsigned long long>(totals.attempts),
                static_cast<unsigned long long>(totals.requests),
                totals.amplification(),
                static_cast<unsigned long long>(totals.retries),
                static_cast<unsigned long long>(totals.budget_denied));
    std::printf("breaker:     opened %llu times, fast-failed %llu requests\n",
                static_cast<unsigned long long>(opened),
                static_cast<unsigned long long>(totals.breaker_rejected));
    double availability =
        tally.total() == 0
            ? 0.0
            : 100.0 * static_cast<double>(tally.ok) /
                  static_cast<double>(tally.total());
    std::printf("availability: %.1f%% ok (%llu truncated partials; "
                "%llu unavailable, %llu internal, %llu deadline-exceeded)\n",
                availability,
                static_cast<unsigned long long>(tally.truncated),
                static_cast<unsigned long long>(tally.unavailable),
                static_cast<unsigned long long>(tally.internal_error),
                static_cast<unsigned long long>(tally.deadline_exceeded));
    std::printf("degradation: %llu shed by priority, %llu truncated answers "
                "served\n",
                static_cast<unsigned long long>(stats.shed),
                static_cast<unsigned long long>(stats.truncated));
  }
  if (clients > 1 && !injector.has_value()) {
    std::printf("per-client reject rates:\n");
    for (size_t c = 0; c < clients; ++c) {
      const ClientOutcome& o = outcomes[c];
      double rate = o.attempts == 0
                        ? 0.0
                        : static_cast<double>(o.rejected) /
                              static_cast<double>(o.attempts);
      std::printf("  client %zu: %llu completed, %llu/%llu submits rejected "
                  "(%.1f%%)\n",
                  c, static_cast<unsigned long long>(o.completed),
                  static_cast<unsigned long long>(o.rejected),
                  static_cast<unsigned long long>(o.attempts), 100.0 * rate);
    }
  }
  std::printf("traces:      %llu recorded, last %zu retained\n",
              static_cast<unsigned long long>(service.traces().total_recorded()),
              service.traces().Recent().size());
  if (!metrics_out.empty()) {
    if (Status s = obs::WritePrometheusFile(service.metrics(), metrics_out);
        !s.ok()) {
      return Fail(s);
    }
    std::printf("metrics:     wrote Prometheus snapshot to %s\n",
                metrics_out.c_str());
  }
  return 0;
}

// Serves a small in-memory workload and dumps every observability surface —
// the quickest way to see the instrument catalog of docs/observability.md
// populated with real traffic (cache hits, a shed deadline, traces).
int MetricsDemo(int argc, char** argv) {
  (void)argv;
  if (argc != 0) return Usage();
  GraphDatabase db = gen::MoleculeDatabase(80, gen::MoleculeConfig{}, 7);
  WorkloadConfig wconfig;
  wconfig.num_queries = 10;
  wconfig.seed = 7;
  std::vector<Graph> queries = GenerateDbWorkload(db, wconfig);

  QueryServiceOptions options;
  options.num_threads = 2;
  options.queue_capacity = 64;
  options.cache_capacity = 256;
  options.cache_shards = 4;
  options.trace_capacity = 64;
  QueryService service(db, options);

  // Two rounds of the same queries (second round hits the cache), one
  // suggestion, and one request whose deadline expires before execution.
  for (int round = 0; round < 2; ++round) {
    for (const Graph& q : queries) {
      QueryRequest request;
      request.pattern = q;
      request.max_embeddings = 2000;
      service.Execute(std::move(request));
    }
  }
  {
    QueryRequest request;
    request.kind = QueryKind::kSuggest;
    request.pattern = queries[0];
    request.focus = 0;
    service.Execute(std::move(request));
  }
  {
    QueryRequest request;
    request.pattern = queries[0];
    request.deadline_ms = 1e-9;
    service.Execute(std::move(request));
  }

  std::printf("--- Prometheus text exposition ---\n%s\n",
              obs::ToPrometheusText(service.metrics()).c_str());
  std::printf("--- JSON snapshot ---\n%s\n",
              obs::ToJson(service.metrics()).c_str());
  std::printf("--- recent request traces (oldest first) ---\n%s",
              obs::FormatTraceTable(service.traces().Recent()).c_str());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  int rest = argc - 2;
  char** rest_argv = argv + 2;
  if (command == "gen-molecules") return GenMolecules(rest, rest_argv);
  if (command == "gen-network") return GenNetwork(rest, rest_argv);
  if (command == "build-db") return BuildDb(rest, rest_argv);
  if (command == "build-net") return BuildNet(rest, rest_argv);
  if (command == "show") return Show(rest, rest_argv);
  if (command == "export-dot") return ExportDot(rest, rest_argv);
  if (command == "suggest") return Suggest(rest, rest_argv);
  if (command == "usability") return Usability(rest, rest_argv);
  if (command == "serve-bench") return ServeBench(rest, rest_argv);
  if (command == "serve") return Serve(rest, rest_argv);
  if (command == "metrics-demo") return MetricsDemo(rest, rest_argv);
  return Usage();
}

}  // namespace
}  // namespace vqi

int main(int argc, char** argv) { return vqi::Main(argc, argv); }
