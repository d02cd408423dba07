// vqi_cli — command-line front end for the library's end-to-end workflows:
// generate data, build a data-driven VQI, inspect/serialize it, export
// patterns to Graphviz, run the simulated usability study, and serve the
// collection (`serve`) or replay a query workload against it
// (`serve-bench`). Usage() lists the commands and their flags.
//
// `serve` and `serve-bench` share one flag parser and one serving stack:
// one QueryService, or a ShardedRouter over shards x replicas, with the
// --chaos fault plan armed on the service or on one chosen replica, and
// optionally a loopback HTTP front that arms the same plan's http_read
// point. `serve` puts the front on a real port; `serve-bench` drives the
// stack through one client loop whatever the layer: every client gets a
// start function for its layer that returns a future answer. Only
// QueryService::Submit answers asynchronously or refuses (backpressure), so
// a plain in-process replay is pipelined with retry-after-drain; the
// resilient ServiceClients of an in-process chaos run, the router and HTTP
// answer inside the call, so their clients run closed loops. Every answer
// lands in one tally, and without chaos or a deadline each one is checked
// byte for byte against one unsharded, uncached QueryService. --http runs
// the loop twice, in-process on a twin stack and then over HTTP, and
// reports the difference as the wire's cost (EXPERIMENTS.md E14c-E19).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
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

// ---------------------------------------------------------------------------
// serve and serve-bench: one flag parser, one stack, one client loop.

// True when `arg` is `<name>=<value>`; stores the value, which may be empty.
bool FlagValue(const std::string& arg, std::string_view name,
               std::string* value) {
  if (arg.size() <= name.size() || arg.compare(0, name.size(), name) != 0 ||
      arg[name.size()] != '=') {
    return false;
  }
  *value = arg.substr(name.size() + 1);
  return true;
}

// The flags `serve` and `serve-bench` share: the shape of the serving stack
// and the chaos armed on it.
struct StackFlags {
  int64_t threads = 4;
  bool threads_set = false;
  int64_t cache = 1024;
  int64_t shards = 1;
  int64_t replicas = 1;
  std::optional<double> hedge_ms;
  std::optional<double> gather_slack_ms;
  std::string chaos;  // the --chaos spec as given
  std::optional<resilience::FaultPlan> chaos_plan;
  int64_t chaos_shard = 0;
  int64_t chaos_replica = 0;

  bool routed() const { return shards > 1 || replicas > 1; }
};

// Parses `arg` into `flags` when it is a stack flag: nullopt for any other
// argument, else the status of parsing its value.
std::optional<Status> ParseStackFlag(const std::string& arg,
                                     StackFlags* flags) {
  std::string value;
  if (FlagValue(arg, "--threads", &value)) {
    flags->threads_set = true;
    return ParseCount(value, "--threads", 1, 1024, &flags->threads);
  }
  if (FlagValue(arg, "--cache", &value)) {
    return ParseCount(value, "--cache", 0, 1 << 20, &flags->cache);
  }
  if (FlagValue(arg, "--shards", &value)) {
    return ParseCount(value, "--shards", 1, 64, &flags->shards);
  }
  if (FlagValue(arg, "--replicas", &value)) {
    return ParseCount(value, "--replicas", 1, 64, &flags->replicas);
  }
  if (FlagValue(arg, "--hedge-ms", &value)) {
    return ParseDoubleArg(value, "--hedge-ms", 0, 1e6,
                          &flags->hedge_ms.emplace());
  }
  if (FlagValue(arg, "--gather-slack-ms", &value)) {
    return ParseDoubleArg(value, "--gather-slack-ms", 0, 1e6,
                          &flags->gather_slack_ms.emplace());
  }
  if (FlagValue(arg, "--chaos-shard", &value)) {
    return ParseCount(value, "--chaos-shard", 0, 63, &flags->chaos_shard);
  }
  if (FlagValue(arg, "--chaos-replica", &value)) {
    return ParseCount(value, "--chaos-replica", 0, 63, &flags->chaos_replica);
  }
  if (FlagValue(arg, "--chaos", &value)) {
    if (value.empty()) {
      return Status::InvalidArgument(
          "--chaos: empty spec (see docs/resilience.md for the grammar)");
    }
    auto plan = resilience::FaultInjector::ParseChaosSpec(value);
    if (!plan.ok()) return plan.status();
    flags->chaos = value;
    flags->chaos_plan = plan.value();
    return Status::OK();
  }
  return std::nullopt;
}

// Parses one of a command's own flags: nullopt for an argument it does not
// know, else the status of parsing its value.
using OwnFlags = std::function<std::optional<Status>(const std::string&)>;

// Splits the command line of `serve` or `serve-bench` into stack flags, the
// command's own flags and positionals, then checks what no single flag can.
// Returns 0, or the exit code for a bad command line.
int ParseCommandLine(int argc, char** argv, const OwnFlags& own,
                     StackFlags* flags, std::vector<char*>* positional) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    std::optional<Status> parsed = ParseStackFlag(arg, flags);
    if (!parsed.has_value()) parsed = own(arg);
    if (parsed.has_value()) {
      if (!parsed->ok()) return Fail(*parsed);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return Usage();
    } else {
      positional->push_back(argv[i]);
    }
  }
  if (flags->chaos_shard >= flags->shards) {
    return Fail(Status::InvalidArgument(
        "--chaos-shard must name one of the --shards shards"));
  }
  if (flags->chaos_replica >= flags->replicas) {
    return Fail(Status::InvalidArgument(
        "--chaos-replica must name one of the --replicas replicas"));
  }
  if (!flags->routed() &&
      (flags->hedge_ms.has_value() || flags->gather_slack_ms.has_value())) {
    return Fail(Status::InvalidArgument(
        "--hedge-ms and --gather-slack-ms tune the router; they need "
        "--shards or --replicas"));
  }
  return 0;
}

// The serving stack of both commands: one QueryService, or a ShardedRouter
// over shards x replicas, plus the FaultInjector --chaos arms. Service fault
// points land on the service, or on replica (--chaos-shard,
// --chaos-replica) of the router; an HttpFront arms http_read.
class Stack {
 public:
  // `options` is the template for every service; the flags set its threads,
  // cache and chaos.
  Stack(const GraphDatabase& db, const StackFlags& flags,
        QueryServiceOptions options) {
    if (flags.chaos_plan.has_value()) injector_.emplace(*flags.chaos_plan);
    options.num_threads = static_cast<size_t>(flags.threads);
    options.cache_capacity = static_cast<size_t>(flags.cache);
    if (!flags.routed()) {
      options.fault_injector = injector();
      service_ = std::make_unique<QueryService>(db, options);
      return;
    }
    shard::ShardedRouterOptions router_options;
    router_options.num_shards = static_cast<size_t>(flags.shards);
    router_options.num_replicas = static_cast<size_t>(flags.replicas);
    router_options.shard_options = options;
    router_options.hedge_ms = flags.hedge_ms.value_or(0);
    if (flags.gather_slack_ms.has_value()) {
      router_options.gather_slack_ms = *flags.gather_slack_ms;
    }
    router_options.chaos_injector = injector();
    router_options.chaos_shard = static_cast<size_t>(flags.chaos_shard);
    router_options.chaos_replica = static_cast<size_t>(flags.chaos_replica);
    router_ = std::make_unique<shard::ShardedRouter>(db, router_options);
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  QueryService* service() { return service_.get(); }
  shard::ShardedRouter* router() { return router_.get(); }
  resilience::FaultInjector* injector() {
    return injector_.has_value() ? &*injector_ : nullptr;
  }
  obs::MetricsRegistry& metrics() {
    return router_ != nullptr ? router_->metrics() : service_->metrics();
  }

  QueryResult Execute(QueryRequest request) {
    return router_ != nullptr ? router_->Execute(std::move(request))
                              : service_->Execute(std::move(request));
  }

  // Summed over the fleet under a router.
  ServiceStats Stats() const {
    return router_ != nullptr ? router_->AggregateSnapshot()
                              : service_->Snapshot();
  }

  // Drains every pool. Counters are exact only afterwards: router legs
  // finish their bookkeeping on pool threads after the gather resolves.
  void Shutdown() {
    if (router_ != nullptr) {
      router_->Shutdown();
    } else {
      service_->Shutdown();
    }
  }

  std::string Describe() const {
    if (router_ == nullptr) {
      return "1 service x " + std::to_string(service_->num_threads()) +
             " threads";
    }
    return std::to_string(router_->num_shards()) + " shards x " +
           std::to_string(router_->num_replicas()) + " replicas x " +
           std::to_string(router_->shard(0).num_threads()) + " threads";
  }

 private:
  std::optional<resilience::FaultInjector> injector_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<shard::ShardedRouter> router_;
};

// A loopback HTTP server in front of a Stack: QueryServing routes its
// endpoints into the stack, and the server arms the stack's injector at
// http_read.
class HttpFront {
 public:
  HttpFront(Stack& stack, uint16_t port, size_t threads)
      : serving_(Serving(stack)),
        server_(
            [this](const net::HttpRequest& r) { return serving_.Handle(r); },
            ServerOptions(stack, port, threads)) {
    serving_.set_server(&server_);
  }

  HttpFront(const HttpFront&) = delete;
  HttpFront& operator=(const HttpFront&) = delete;

  Status Start() { return server_.Start(); }
  void Shutdown() { server_.Shutdown(); }
  uint16_t port() const { return server_.port(); }
  const net::HttpServer& server() const { return server_; }

 private:
  static net::QueryServing Serving(Stack& stack) {
    net::QueryServing::Options options;
    options.metrics = &stack.metrics();
    if (stack.router() != nullptr) {
      return net::QueryServing(stack.router(), options);
    }
    return net::QueryServing(stack.service(), options);
  }

  static net::HttpServerOptions ServerOptions(Stack& stack, uint16_t port,
                                              size_t threads) {
    net::HttpServerOptions options;
    options.port = port;
    options.num_threads = threads;
    options.metrics = &stack.metrics();
    options.fault_injector = stack.injector();
    return options;
  }

  net::QueryServing serving_;
  net::HttpServer server_;
};

// The wire form of a request: the JSON body POST /query decodes back into
// the same QueryRequest.
std::string QueryBodyJson(const QueryRequest& request) {
  const Graph& pattern = request.pattern;
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
  body.Set("max_embeddings",
           net::JsonValue::Number(static_cast<double>(request.max_embeddings)));
  if (request.deadline_ms > 0) {
    body.Set("deadline_ms", net::JsonValue::Number(request.deadline_ms));
  }
  if (request.allow_partial) {
    body.Set("allow_partial", net::JsonValue::Bool(true));
  }
  return body.Dump();
}

// One answer as the client loop sees it, from any layer: its status, its
// deterministic content (QueryResultContentJson's bytes) and its latency.
struct Answer {
  Status status;
  bool truncated = false;
  std::string content;
  double latency_ms = 0;
};

// An answer that is only a failure: no content, latency stamped by caller.
Answer Failure(Status status) {
  Answer answer;
  answer.status = std::move(status);
  return answer;
}

Answer AnswerOf(const QueryResult& result, double latency_ms) {
  return Answer{result.status, result.truncated,
                net::QueryResultContentJson(result).Dump(), latency_ms};
}

// The StatusCode that StatusCodeToString names `name`; kInternal for a name
// it never returns.
StatusCode CodeNamed(const std::string& name) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kCancelled); ++c) {
    if (name == StatusCodeToString(static_cast<StatusCode>(c))) {
      return static_cast<StatusCode>(c);
    }
  }
  return StatusCode::kInternal;
}

// Reads a /query reply back into an Answer. A 2xx reply carries the result
// content, re-extracted in the key order QueryResultContentJson emits; any
// other reply carries the documented {"error": {"code", "message"}}.
Answer DecodeAnswer(const net::HttpResponseParser::Response& response) {
  auto parsed = net::ParseJson(response.body);
  if (!parsed.ok() || !parsed.value().is_object()) {
    return Failure(Status::Internal("reply body is not a JSON object"));
  }
  const net::JsonValue& body = parsed.value();
  if (response.status < 200 || response.status >= 300) {
    const net::JsonValue* error = body.Find("error");
    const net::JsonValue* code = nullptr;
    const net::JsonValue* message = nullptr;
    if (error != nullptr && error->is_object()) {
      code = error->Find("code");
      message = error->Find("message");
    }
    if (code == nullptr || !code->is_string() || message == nullptr ||
        !message->is_string()) {
      return Failure(Status::Internal("error reply without a code"));
    }
    return Failure(
        Status(CodeNamed(code->string_value()), message->string_value()));
  }
  net::JsonValue content = net::JsonValue::Object();
  for (const char* key : {"status", "embedding_count", "matched_graphs",
                          "suggestions", "truncated"}) {
    const net::JsonValue* field = body.Find(key);
    if (field == nullptr) {
      return Failure(
          Status::Internal(std::string("reply is missing '") + key + "'"));
    }
    content.Set(key, *field);
  }
  const net::JsonValue* truncated = body.Find("truncated");
  return Answer{Status::OK(), truncated->is_bool() && truncated->bool_value(),
                content.Dump()};
}

// Starts one request on a layer and returns its future answer, or the
// refusal of a layer that pushes back.
using StartFn = std::function<StatusOr<std::future<Answer>>(QueryRequest)>;

std::future<Answer> Ready(Answer answer) {
  std::promise<Answer> promise;
  promise.set_value(std::move(answer));
  return promise.get_future();
}

// A layer that answers inside the call, so its client loop stays closed.
StartFn ClosedLoop(std::function<QueryResult(QueryRequest)> call) {
  return [call = std::move(call)](
             QueryRequest request) -> StatusOr<std::future<Answer>> {
    Stopwatch timer;
    QueryResult result = call(std::move(request));
    return Ready(AnswerOf(result, timer.ElapsedMillis()));
  };
}

StartFn InProcess(Stack& stack) {
  return ClosedLoop([&stack](QueryRequest request) {
    return stack.Execute(std::move(request));
  });
}

// QueryService::Submit: the one asynchronous start, and the one that can
// refuse (backpressure). Its answers are pipelined, each timed by the
// service from admission to completion.
StartFn Pipelined(QueryService& service) {
  return [&service](QueryRequest request) -> StatusOr<std::future<Answer>> {
    auto submitted = service.Submit(std::move(request));
    if (!submitted.ok()) return submitted.status();
    return std::async(std::launch::deferred,
                      [future = std::move(submitted).value()]() mutable {
                        QueryResult result = future.get();
                        return AnswerOf(result, result.latency_ms);
                      });
  };
}

// POST /query over one keep-alive connection, which closes when the
// client's stripe ends and the function dies. A failed request is never
// re-sent, so under chaos the server draws one http_read fault per request
// and the tally is a function of the seed (EXPERIMENTS.md E17).
StartFn OverHttp(uint16_t port) {
  // Shared only because std::function copies its callable.
  auto client = std::make_shared<net::HttpClient>();
  return [client, port](QueryRequest request) -> StatusOr<std::future<Answer>> {
    const std::string body = QueryBodyJson(request);
    if (!client->connected()) {
      if (Status s = client->Connect("127.0.0.1", port); !s.ok()) {
        return Ready(Failure(s));
      }
    }
    Stopwatch timer;
    auto response = client->Roundtrip("POST", "/query", body);
    const double latency_ms = timer.ElapsedMillis();
    Answer answer = response.ok() ? DecodeAnswer(response.value())
                                  : Failure(response.status());
    answer.latency_ms = latency_ms;
    return Ready(std::move(answer));
  };
}

// What one client saw: its starts, the starts its layer refused, and every
// answer's status, latency and match against the reference.
struct Tally {
  uint64_t attempts = 0;
  uint64_t refused = 0;
  uint64_t ok = 0;
  uint64_t truncated = 0;  // partial answers
  uint64_t unavailable = 0;
  uint64_t internal = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t other = 0;
  uint64_t matches = 0;
  uint64_t mismatches = 0;
  std::vector<double> latencies_ms;

  // `expected` is the reference content, or null when not verifying.
  void Add(const Answer& answer, const std::string* expected) {
    latencies_ms.push_back(answer.latency_ms);
    if (answer.truncated) ++truncated;
    switch (answer.status.code()) {
      case StatusCode::kOk:
        ++ok;
        break;
      case StatusCode::kUnavailable:
        ++unavailable;
        break;
      case StatusCode::kInternal:
        ++internal;
        break;
      case StatusCode::kDeadlineExceeded:
        ++deadline_exceeded;
        break;
      default:
        ++other;
        break;
    }
    if (expected != nullptr) {
      ++(answer.content == *expected ? matches : mismatches);
    }
  }

  void Merge(const Tally& t) {
    attempts += t.attempts;
    refused += t.refused;
    ok += t.ok;
    truncated += t.truncated;
    unavailable += t.unavailable;
    internal += t.internal;
    deadline_exceeded += t.deadline_exceeded;
    other += t.other;
    matches += t.matches;
    mismatches += t.mismatches;
    latencies_ms.insert(latencies_ms.end(), t.latencies_ms.begin(),
                        t.latencies_ms.end());
  }

  uint64_t answers() const { return latencies_ms.size(); }
};

// The replayed workload: the distinct queries, then the duplicates
// --dup-ratio adds, striped across clients for `repeat` rounds.
struct Replay {
  std::vector<Graph> queries;
  size_t distinct = 0;
  size_t repeat = 1;
  size_t clients = 1;
  double deadline_ms = 0;
  bool allow_partial = false;
  // Reference content per distinct query; empty when not verifying.
  std::vector<std::string> expected;

  // Every request has one shape: embeddings capped at 2000, the
  // --deadline-ms budget, and partial answers accepted whenever chaos or a
  // deadline may cut one.
  QueryRequest Request(size_t qi) const {
    QueryRequest request;
    request.pattern = queries[qi];
    request.max_embeddings = 2000;
    request.deadline_ms = deadline_ms;
    request.allow_partial = allow_partial;
    return request;
  }
};

// One client's stripe of the replay. A refused start waits for the
// client's oldest pending answer, then retries: the retry-after-drain loop
// a well-behaved caller runs under backpressure. A barrier between rounds
// models users re-issuing popular queries after earlier answers came back.
void RunClient(const StartFn& start, const Replay& replay, size_t client,
               Tally* tally) {
  std::vector<std::pair<size_t, std::future<Answer>>> pending;
  size_t next = 0;
  auto collect = [&] {
    auto& [qi, answer] = pending[next++];
    tally->Add(answer.get(), replay.expected.empty()
                                 ? nullptr
                                 : &replay.expected[qi % replay.distinct]);
  };
  for (size_t round = 0; round < replay.repeat; ++round) {
    for (size_t qi = client; qi < replay.queries.size(); qi += replay.clients) {
      for (;;) {
        ++tally->attempts;
        auto started = start(replay.Request(qi));
        if (started.ok()) {
          pending.emplace_back(qi, std::move(started).value());
          break;
        }
        ++tally->refused;
        if (next < pending.size()) {
          collect();
        } else {
          std::this_thread::yield();
        }
      }
    }
    while (next < pending.size()) collect();
  }
}

struct Run {
  std::vector<Tally> clients;
  Tally total;  // latencies sorted
  double seconds = 0;
};

// Runs every client's stripe on its own thread. `start_for(c)` makes client
// c's start function on that thread, so whatever it holds (a connection)
// lives exactly as long as the stripe.
Run RunReplay(const Replay& replay,
              const std::function<StartFn(size_t)>& start_for) {
  Run run;
  run.clients.resize(replay.clients);
  Stopwatch timer;
  std::vector<std::thread> workers;
  for (size_t c = 0; c < replay.clients; ++c) {
    workers.emplace_back([&, c] {
      RunClient(start_for(c), replay, c, &run.clients[c]);
    });
  }
  for (std::thread& w : workers) w.join();
  run.seconds = timer.ElapsedSeconds();
  for (const Tally& t : run.clients) run.total.Merge(t);
  std::sort(run.total.latencies_ms.begin(), run.total.latencies_ms.end());
  return run;
}

double Quantile(const std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0;
  size_t index = static_cast<size_t>(q * static_cast<double>(sorted_ms.size()));
  if (index >= sorted_ms.size()) index = sorted_ms.size() - 1;
  return sorted_ms[index];
}

// GET /metrics and /healthz over one probe connection.
struct Scrapes {
  uint64_t metrics_ok = 0;
  uint64_t healthz_ok = 0;
  uint64_t failures = 0;

  bool answered() const { return metrics_ok > 0 && healthz_ok > 0; }

  void Once(net::HttpClient& probe, uint16_t port) {
    if (!probe.connected() && !probe.Connect("127.0.0.1", port).ok()) {
      ++failures;
      return;
    }
    for (auto [path, ok] : {std::pair{"/metrics", &metrics_ok},
                            std::pair{"/healthz", &healthz_ok}}) {
      auto response = probe.Roundtrip("GET", path);
      ++(response.ok() && response.value().status == 200 ? *ok : failures);
    }
  }
};

void PrintChaos(Stack& stack, const StackFlags& flags) {
  resilience::FaultInjector& injector = *stack.injector();
  std::printf("chaos:       spec '%s' (seed %llu)", flags.chaos.c_str(),
              static_cast<unsigned long long>(injector.seed()));
  if (stack.router() != nullptr) {
    std::printf(" on shard %lld replica %lld only",
                static_cast<long long>(flags.chaos_shard),
                static_cast<long long>(flags.chaos_replica));
  }
  std::printf("\n");
  for (size_t p = 0; p < resilience::kNumFaultPoints; ++p) {
    auto point = static_cast<resilience::FaultPoint>(p);
    uint64_t errors = injector.InjectedErrors(point);
    uint64_t latencies = injector.InjectedLatencies(point);
    uint64_t drops = injector.InjectedDrops(point);
    if (errors + latencies + drops == 0) continue;
    std::printf("  %-11s %llu errors, %llu latencies, %llu drops\n",
                resilience::FaultPointName(point),
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(latencies),
                static_cast<unsigned long long>(drops));
  }
}

// The in-process service's view of the run: queueing, admission, cache,
// backend work, and what the resilient clients absorbed under chaos.
void PrintServiceReport(QueryService& service, const Run& run,
                        const std::vector<std::unique_ptr<
                            resilience::ServiceClient>>& resilient,
                        bool coalesce, bool degraded, bool pipelined) {
  ServiceStats stats = service.Snapshot();
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
  if (!resilient.empty()) {
    resilience::ClientStats totals;
    uint64_t opened = 0;
    for (const auto& client : resilient) {
      resilience::ClientStats s = client->stats();
      totals.requests += s.requests;
      totals.attempts += s.attempts;
      totals.retries += s.retries;
      totals.budget_denied += s.budget_denied;
      totals.breaker_rejected += s.breaker_rejected;
      opened += client->breaker().TimesOpened();
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
  }
  if (degraded) {
    std::printf("degradation: %llu shed by priority, %llu truncated answers "
                "served\n",
                static_cast<unsigned long long>(stats.shed),
                static_cast<unsigned long long>(stats.truncated));
  }
  if (pipelined && run.clients.size() > 1) {
    std::printf("per-client reject rates:\n");
    for (size_t c = 0; c < run.clients.size(); ++c) {
      const Tally& t = run.clients[c];
      std::printf("  client %zu: %llu completed, %llu/%llu submits rejected "
                  "(%.1f%%)\n",
                  c, static_cast<unsigned long long>(t.answers()),
                  static_cast<unsigned long long>(t.refused),
                  static_cast<unsigned long long>(t.attempts),
                  t.attempts == 0 ? 0.0
                                  : 100.0 * static_cast<double>(t.refused) /
                                        static_cast<double>(t.attempts));
    }
  }
  std::printf("traces:      %llu recorded, last %zu retained\n",
              static_cast<unsigned long long>(service.traces().total_recorded()),
              service.traces().Recent().size());
}

// The router's view of the run: placement, fan-out, hedging, failover and
// every shard's and replica's tally.
void PrintRouterReport(shard::ShardedRouter& router, const StackFlags& flags,
                       bool degraded) {
  shard::RouterStats stats = router.Snapshot();
  const size_t replicas = router.num_replicas();
  const bool chaos = flags.chaos_plan.has_value();
  std::printf("placement:   %s (",
              shard::ShardPlacementName(router.shard_map().placement()));
  for (size_t i = 0; i < router.num_shards(); ++i) {
    std::printf("%s%zu", i == 0 ? "" : "/", router.shard_map().Members(i).size());
  }
  std::printf(" graphs per shard), %llu routed, %llu fanned out\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.fanouts));
  if (flags.hedge_ms.value_or(0) > 0) {
    std::printf("hedging:     %llu fired, %llu won, %llu denied "
                "(trigger max(%.1fms, p%.0f))\n",
                static_cast<unsigned long long>(stats.hedges_fired),
                static_cast<unsigned long long>(stats.hedges_won),
                static_cast<unsigned long long>(stats.hedges_denied),
                *flags.hedge_ms,
                100 * shard::ShardedRouterOptions().hedge_quantile);
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
    const bool chaos_shard =
        chaos && i == static_cast<size_t>(flags.chaos_shard);
    std::printf("  shard %zu: %llu legs, %llu errors", i,
                static_cast<unsigned long long>(stats.shards[i].requests),
                static_cast<unsigned long long>(stats.shards[i].errors));
    if (replicas == 1) {
      std::printf(
          ", breaker %s%s\n",
          resilience::BreakerStateName(router.client(i).breaker_state()),
          chaos_shard ? "  <- chaos" : "");
      continue;
    }
    std::printf("\n");
    for (size_t r = 0; r < replicas; ++r) {
      std::printf("    replica %zu: %llu picks, %llu errors, breaker %s%s\n", r,
                  static_cast<unsigned long long>(stats.replica_picks[i][r]),
                  static_cast<unsigned long long>(stats.replica_errors[i][r]),
                  resilience::BreakerStateName(
                      router.client(i, r).breaker_state()),
                  chaos_shard && r == static_cast<size_t>(flags.chaos_replica)
                      ? "  <- chaos"
                      : "");
    }
  }
  if (degraded) {
    std::printf("degradation: %llu merged partials, %llu gather timeouts\n",
                static_cast<unsigned long long>(stats.partials),
                static_cast<unsigned long long>(stats.gather_timeouts));
  }
}

// SIGINT/SIGTERM flip this; the serve loop polls it and drains. Signal-safe:
// handlers may only touch lock-free atomics.
std::atomic<bool> g_serve_stop{false};

void HandleServeSignal(int) { g_serve_stop.store(true); }

// `serve --smoke`: one request through each endpoint over a real loopback
// socket, then a graceful drain. The exit status is the check.
int Smoke(Stack& stack, HttpFront& front, const GraphDatabase& db) {
  net::HttpClient client;
  if (Status s = client.Connect("127.0.0.1", front.port()); !s.ok()) {
    return Fail(s);
  }
  auto healthz = client.Roundtrip("GET", "/healthz");
  if (!healthz.ok()) return Fail(healthz.status());
  std::printf("smoke /healthz: %d %s\n", healthz.value().status,
              healthz.value().body.c_str());
  QueryRequest request;
  request.pattern.AddVertex(db.graphs()[0].VertexLabel(0));
  request.max_embeddings = 2000;
  auto query = client.Roundtrip("POST", "/query", QueryBodyJson(request));
  if (!query.ok()) return Fail(query.status());
  std::printf("smoke /query: %d %s\n", query.value().status,
              query.value().body.c_str());
  auto metrics = client.Roundtrip("GET", "/metrics");
  if (!metrics.ok()) return Fail(metrics.status());
  bool instrumented =
      metrics.value().body.find("vqi_http_requests_total") != std::string::npos;
  std::printf("smoke /metrics: %d (%zu bytes, vqi_http_requests_total %s)\n",
              metrics.value().status, metrics.value().body.size(),
              instrumented ? "present" : "MISSING");
  client.Close();  // the drain below then has no connection to wait out
  bool sharded_ok = true;
  if (shard::ShardedRouter* router = stack.router(); router != nullptr) {
    // Router mode must expose one labeled series per shard plus the
    // router's own instruments, and /healthz must report the fleet. An
    // unreplicated fleet keeps the bare {shard="i"} label shape.
    const std::string last_shard = std::to_string(router->num_shards() - 1);
    const std::string last_replica =
        std::to_string(router->num_replicas() - 1);
    const std::string last_shard_series =
        router->num_replicas() == 1
            ? "vqi_requests_admitted_total{shard=\"" + last_shard + "\"}"
            : "vqi_requests_admitted_total{shard=\"" + last_shard +
                  "\",replica=\"" + last_replica + "\"}";
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
          "vqi_replica_picks_total{shard=\"" + last_shard + "\",replica=\"" +
          last_replica + "\"}";
      const bool replicas_ok =
          metrics.value().body.find(last_replica_series) !=
              std::string::npos &&
          healthz.value().body.find("\"replicas\"") != std::string::npos;
      std::printf("smoke replicas: per-replica series + replica health %s\n",
                  replicas_ok ? "present" : "MISSING");
      sharded_ok = sharded_ok && replicas_ok;
    }
  }
  front.Shutdown();
  stack.Shutdown();
  bool pass = healthz.value().status == 200 && query.value().status == 200 &&
              metrics.value().status == 200 && instrumented && sharded_ok;
  std::printf("smoke: %s\n", pass ? "ok" : "FAILED");
  return pass ? 0 : 1;
}

int Serve(int argc, char** argv) {
  StackFlags flags;
  int64_t port = 8080;
  bool smoke = false;
  std::vector<char*> positional;
  const OwnFlags own = [&](const std::string& arg) -> std::optional<Status> {
    std::string value;
    if (arg == "--smoke") {
      smoke = true;
      return Status::OK();
    }
    if (FlagValue(arg, "--port", &value)) {
      return ParseCount(value, "--port", 0, 65535, &port);
    }
    return std::nullopt;
  };
  if (int code = ParseCommandLine(argc, argv, own, &flags, &positional);
      code != 0) {
    return code;
  }
  if (positional.size() != 1) return Usage();
  auto db = io::LoadDatabase(positional[0]);
  if (!db.ok()) return Fail(db.status());
  if (db->empty()) return Fail(Status::InvalidArgument("input has no graphs"));

  QueryServiceOptions options;
  options.queue_capacity = 256;
  Stack stack(*db, flags, options);
  // --smoke binds an ephemeral port so CI runs never collide.
  HttpFront front(stack, smoke ? 0 : static_cast<uint16_t>(port),
                  static_cast<size_t>(flags.threads));
  if (Status s = front.Start(); !s.ok()) return Fail(s);
  std::printf("serving %zu graphs on http://127.0.0.1:%u, %s%s  (GET "
              "/metrics, GET /healthz, POST /query)\n",
              db->size(), front.port(), stack.Describe().c_str(),
              flags.hedge_ms.value_or(0) > 0 ? " with hedging" : "");
  if (smoke) return Smoke(stack, front, *db);

  g_serve_stop.store(false);
  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);
  while (!g_serve_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("\nsignal received; draining (grace %.0fms)...\n",
              net::HttpServerOptions().drain_grace_ms);
  front.Shutdown();
  stack.Shutdown();
  ServiceStats stats = stack.Stats();
  std::printf("served %llu connections, %llu requests admitted, %llu shed\n",
              static_cast<unsigned long long>(
                  front.server().connections_accepted()),
              static_cast<unsigned long long>(stats.admitted),
              static_cast<unsigned long long>(stats.shed));
  return 0;
}

int ServeBench(int argc, char** argv) {
  StackFlags flags;
  int64_t clients_arg = 1;
  double deadline_ms = 0;
  double dup_ratio = 0;
  bool coalesce = false;
  bool http = false;
  std::string metrics_out;
  std::vector<char*> positional;
  const OwnFlags own = [&](const std::string& arg) -> std::optional<Status> {
    std::string value;
    if (arg == "--http") {
      http = true;
      return Status::OK();
    }
    if (arg == "--coalesce") {
      coalesce = true;
      return Status::OK();
    }
    if (FlagValue(arg, "--clients", &value)) {
      return ParseCount(value, "--clients", 1, 256, &clients_arg);
    }
    if (FlagValue(arg, "--deadline-ms", &value)) {
      return ParseDoubleArg(value, "--deadline-ms", 0, 1e9, &deadline_ms);
    }
    if (FlagValue(arg, "--dup-ratio", &value)) {
      return ParseDoubleArg(value, "--dup-ratio", 0, 0.99, &dup_ratio);
    }
    if (FlagValue(arg, "--metrics-out", &value)) {
      metrics_out = value;
      return value.empty()
                 ? Status::InvalidArgument("--metrics-out: empty path")
                 : Status::OK();
    }
    return std::nullopt;
  };
  if (int code = ParseCommandLine(argc, argv, own, &flags, &positional);
      code != 0) {
    return code;
  }
  if (positional.empty() || positional.size() > 4) return Usage();
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
    if (flags.threads_set) {
      return Fail(Status::InvalidArgument(
          "threads given both positionally and via --threads"));
    }
    if (Status s = ParseCount(positional[2], "threads", 1, 1024,
                              &flags.threads);
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

  const bool chaos = flags.chaos_plan.has_value();
  Replay replay;
  WorkloadConfig wconfig;
  wconfig.num_queries = static_cast<size_t>(queries_arg);
  replay.queries = GenerateDbWorkload(*db, wconfig);
  replay.distinct = replay.queries.size();
  if (dup_ratio > 0) {
    // Expand so a fraction `dup_ratio` of the stream are duplicates of an
    // earlier query, interleaved (q0..qN, q0..qN, ...) so the copies are in
    // flight together — the burst shape single-flight coalescing targets.
    size_t total = static_cast<size_t>(
        static_cast<double>(replay.distinct) / (1.0 - dup_ratio) + 0.5);
    for (size_t i = replay.distinct; i < total; ++i) {
      replay.queries.push_back(replay.queries[i % replay.distinct]);
    }
  }
  replay.repeat = static_cast<size_t>(repeat_arg);
  replay.clients = static_cast<size_t>(clients_arg);
  replay.deadline_ms = deadline_ms;
  replay.allow_partial = chaos || deadline_ms > 0;

  QueryServiceOptions options;
  options.queue_capacity = 512;
  options.enable_coalescing = coalesce;
  // Without chaos or a deadline every answer must equal one unsharded,
  // uncached service's, byte for byte: cache hits, coalesced waiters,
  // merged shards and wire round trips alike.
  const bool verify = !replay.allow_partial;
  if (verify) {
    QueryServiceOptions reference_options = options;
    reference_options.cache_capacity = 0;
    QueryService reference(*db, reference_options);
    for (size_t qi = 0; qi < replay.distinct; ++qi) {
      replay.expected.push_back(
          net::QueryResultContentJson(reference.Execute(replay.Request(qi)))
              .Dump());
    }
  }

  // --http runs the replay twice: in-process on a twin stack, then over
  // loopback HTTP in front of a fresh one; the difference is the wire.
  Run in_process;
  if (http) {
    Stack twin(*db, flags, options);
    in_process = RunReplay(replay, [&twin](size_t) { return InProcess(twin); });
    twin.Shutdown();
  }
  Stack stack(*db, flags, options);
  std::optional<HttpFront> front;
  if (http) {
    front.emplace(stack, 0, static_cast<size_t>(flags.threads));
    if (Status s = front->Start(); !s.ok()) return Fail(s);
  }
  // Chaos on one in-process service: every client drives its stripe
  // through its own resilient ServiceClient (breaker + budgeted retries),
  // labeled in the metrics by client id.
  std::vector<std::unique_ptr<resilience::ServiceClient>> resilient;
  if (!http && chaos && stack.service() != nullptr) {
    for (size_t c = 0; c < replay.clients; ++c) {
      resilience::ServiceClientOptions client_options;
      client_options.metric_label = std::to_string(c);
      resilient.push_back(std::make_unique<resilience::ServiceClient>(
          *stack.service(), client_options));
    }
  }
  const bool pipelined = !http && !chaos && stack.service() != nullptr;
  auto start_for = [&](size_t c) -> StartFn {
    if (front.has_value()) return OverHttp(front->port());
    if (!resilient.empty()) {
      return ClosedLoop([client = resilient[c].get()](QueryRequest request) {
        return client->Execute(std::move(request));
      });
    }
    return pipelined ? Pipelined(*stack.service()) : InProcess(stack);
  };

  // Scrapes poll during the load, or under chaos once after it, so that
  // their http_read draws come after every request's and the tallies stay a
  // function of the seed.
  Scrapes scrapes;
  std::atomic<bool> done{false};
  std::thread scraper;
  if (http && !chaos) {
    scraper = std::thread([&] {
      net::HttpClient probe;
      do {
        scrapes.Once(probe, front->port());
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      } while (!done.load(std::memory_order_relaxed));
    });
  }
  Run run = RunReplay(replay, start_for);
  done.store(true, std::memory_order_relaxed);
  if (scraper.joinable()) scraper.join();
  if (http && chaos) {
    // The probe draws http_read faults too, so give it a few attempts.
    net::HttpClient probe;
    for (int attempt = 0; attempt < 5 && !scrapes.answered(); ++attempt) {
      scrapes.Once(probe, front->port());
    }
  }
  if (front.has_value()) front->Shutdown();
  stack.Shutdown();

  const Tally& total = run.total;
  std::printf("replayed %llu requests (%zu distinct queries x %zu rounds, "
              "%zu clients) %s %s\n",
              static_cast<unsigned long long>(total.answers()), replay.distinct,
              replay.repeat, replay.clients, http ? "over HTTP into" : "on",
              stack.Describe().c_str());
  if (dup_ratio > 0) {
    std::printf("workload:    dup-ratio %.2f (%zu requests per round, "
                "coalescing %s)\n",
                dup_ratio, replay.queries.size(), coalesce ? "on" : "off");
  }
  std::printf("throughput:  %.0f queries/s (%.3fs)",
              total.answers() / run.seconds, run.seconds);
  if (http) {
    std::printf(" over HTTP, %.0f queries/s (%.3fs) in-process",
                in_process.total.answers() / in_process.seconds,
                in_process.seconds);
  }
  std::printf("\n");
  const std::vector<double>& latencies = total.latencies_ms;
  std::printf("latency:     p50 %.3fms  p99 %.3fms%s\n",
              Quantile(latencies, 0.50), Quantile(latencies, 0.99),
              http ? " over HTTP" : "");
  if (http) {
    const std::vector<double>& direct = in_process.total.latencies_ms;
    std::printf("latency:     p50 %.3fms  p99 %.3fms in-process\n",
                Quantile(direct, 0.50), Quantile(direct, 0.99));
    std::printf("latency:     p50 %+.3fms  p99 %+.3fms wire overhead\n",
                Quantile(latencies, 0.50) - Quantile(direct, 0.50),
                Quantile(latencies, 0.99) - Quantile(direct, 0.99));
  }
  if (verify) {
    std::printf("content:     %llu/%llu answers byte-identical to the "
                "single-service reference",
                static_cast<unsigned long long>(total.matches),
                static_cast<unsigned long long>(total.answers()));
    if (http) {
      std::printf(" (in-process %llu/%llu)",
                  static_cast<unsigned long long>(in_process.total.matches),
                  static_cast<unsigned long long>(in_process.total.answers()));
    }
    std::printf("\n");
  } else {
    std::printf("availability: %.1f%% ok (%llu truncated partials; "
                "%llu unavailable, %llu internal, %llu deadline-exceeded)\n",
                total.answers() == 0 ? 0.0 : 100.0 * total.ok / total.answers(),
                static_cast<unsigned long long>(total.truncated),
                static_cast<unsigned long long>(total.unavailable),
                static_cast<unsigned long long>(total.internal),
                static_cast<unsigned long long>(total.deadline_exceeded));
  }
  if (chaos) PrintChaos(stack, flags);
  if (stack.router() != nullptr) {
    PrintRouterReport(*stack.router(), flags, !verify);
  } else {
    PrintServiceReport(*stack.service(), run, resilient, coalesce, !verify,
                       pipelined);
  }
  if (http) {
    std::printf("scrapes:     /metrics %llu ok, /healthz %llu ok, %llu "
                "failures%s\n",
                static_cast<unsigned long long>(scrapes.metrics_ok),
                static_cast<unsigned long long>(scrapes.healthz_ok),
                static_cast<unsigned long long>(scrapes.failures),
                chaos ? " (post-load under chaos)" : "");
  }
  if (!metrics_out.empty()) {
    if (Status s = obs::WritePrometheusFile(stack.metrics(), metrics_out);
        !s.ok()) {
      return Fail(s);
    }
    std::printf("metrics:     wrote Prometheus snapshot to %s\n",
                metrics_out.c_str());
  }
  if (total.mismatches + in_process.total.mismatches > 0) return 1;
  if (http && !scrapes.answered()) {
    std::fprintf(stderr, "error: observability endpoints never answered\n");
    return 1;
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
