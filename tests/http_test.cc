// Wire-level suite for src/net: the JSON codec, the incremental HTTP
// parser's malformed-input handling (truncated request lines, oversized and
// missing Content-Length, header-count overflow), the QueryService handlers,
// and real loopback-socket round trips including torn mid-body disconnects,
// pipelined keep-alive, read deadlines, graceful drain with an in-flight
// request, and seeded http_read chaos. Every server binds port 0 (kernel-
// assigned), so the suite is safe to run in parallel; every injector seed is
// fixed, so it is deterministic under TSan/ASan.

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "net/http_client.h"
#include "net/http_message.h"
#include "net/http_parser.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/serving.h"
#include "service/query_service.h"
#include "service/resilience/fault_injector.h"

namespace vqi {
namespace net {
namespace {

using resilience::FaultInjector;
using resilience::FaultPlan;
using resilience::FaultPoint;

// ---------------------------------------------------------------------------
// JSON codec

TEST(JsonTest, ParsesAndDumpsRoundTrip) {
  auto parsed = ParseJson(
      R"({"a":1,"b":[true,null,"x"],"c":{"d":-2.5},"e":""})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Dump(),
            R"({"a":1,"b":[true,null,"x"],"c":{"d":-2.5},"e":""})");
}

TEST(JsonTest, IntegersDumpWithoutDecimalPoint) {
  JsonValue v = JsonValue::Object();
  v.Set("count", JsonValue::Number(702));
  v.Set("frac", JsonValue::Number(0.5));
  EXPECT_EQ(v.Dump(), R"({"count":702,"frac":0.5})");
}

// Pins the number formatter's bytes: integers below 2^53 in plain decimal,
// every other finite value as %.17g, NaN and infinities as null.
TEST(JsonTest, NumbersDumpToPinnedBytes) {
  const double two53 = 9007199254740992.0;
  const std::vector<std::pair<double, std::string>> cases = {
      {0.0, "0"},
      {-0.0, "0"},
      {1.0, "1"},
      {-1.0, "-1"},
      {two53 - 1, "9007199254740991"},
      {-(two53 - 1), "-9007199254740991"},
      {two53, "9007199254740992"},
      {1152921504606846976.0 /* 2^60 */, "1.152921504606847e+18"},
      {1e300, "1.0000000000000001e+300"},
      {-1e300, "-1.0000000000000001e+300"},
      {-0.5, "-0.5"},
      {0.1, "0.10000000000000001"},
      {1099511627776.25, "1099511627776.25"},
      {std::numeric_limits<double>::quiet_NaN(), "null"},
      {std::numeric_limits<double>::infinity(), "null"},
      {-std::numeric_limits<double>::infinity(), "null"},
  };
  for (const auto& [value, expected] : cases) {
    EXPECT_EQ(JsonValue::Number(value).Dump(), expected) << value;
  }
}

TEST(JsonTest, NestedArraysOfIdsDump) {
  JsonValue inner = JsonValue::Array();
  inner.Append(JsonValue::Number(3));
  inner.Append(JsonValue::Number(1099511627776.0 /* 2^40 */));
  JsonValue empty = JsonValue::Array();
  JsonValue outer = JsonValue::Array();
  outer.Append(JsonValue::Number(0));
  outer.Append(inner);
  outer.Append(empty);
  JsonValue deepest = JsonValue::Array();
  deepest.Append(std::move(outer));
  deepest.Append(JsonValue::Number(-7));
  EXPECT_EQ(deepest.Dump(), "[[0,[3,1099511627776],[]],-7]");
}

TEST(JsonTest, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), R"("a\"b\\c\nd")");
  auto parsed = ParseJson(R"("tab\there A")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().string_value(), "tab\there A");
}

TEST(JsonTest, RejectsTrailingGarbageAndDeepNesting) {
  EXPECT_FALSE(ParseJson("{} extra").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("").ok());
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonTest, ContainerSizeCapsRejectAbusiveBodies) {
  // Duplicate-key detection scans linearly, so member count is capped while
  // parsing: a body packing ~100k keys must fail fast, not burn CPU.
  std::string object = "{";
  for (int i = 0; i < 1025; ++i) {
    if (i > 0) object += ',';
    object += "\"k" + std::to_string(i) + "\":0";
  }
  object += "}";
  EXPECT_FALSE(ParseJson(object).ok());
  std::string array = "[";
  for (int i = 0; i < (1 << 16) + 1; ++i) {
    if (i > 0) array += ',';
    array += '0';
  }
  array += "]";
  EXPECT_FALSE(ParseJson(array).ok());
}

TEST(JsonTest, ObjectFindAndUnknownKey) {
  auto parsed = ParseJson(R"({"x":1})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(parsed.value().Find("x"), nullptr);
  EXPECT_EQ(parsed.value().Find("y"), nullptr);
}

// ---------------------------------------------------------------------------
// Request parser: malformed and adversarial wire input

TEST(HttpParserTest, ParsesBytewiseIdenticallyToOneShot) {
  const std::string wire =
      "POST /query?x=1 HTTP/1.1\r\nHost: a\r\nContent-Length: 4\r\n\r\nbody";
  HttpRequestParser one_shot;
  ASSERT_EQ(one_shot.Consume(wire), HttpRequestParser::State::kComplete);
  HttpRequestParser bytewise;
  HttpRequestParser::State state = HttpRequestParser::State::kNeedMore;
  for (char c : wire) state = bytewise.Consume(std::string_view(&c, 1));
  ASSERT_EQ(state, HttpRequestParser::State::kComplete);
  EXPECT_EQ(bytewise.request().method, "POST");
  EXPECT_EQ(bytewise.request().target, "/query?x=1");
  EXPECT_EQ(bytewise.request().path(), "/query");
  EXPECT_EQ(bytewise.request().body, "body");
  EXPECT_EQ(bytewise.request().body, one_shot.request().body);
}

TEST(HttpParserTest, TruncatedRequestLineNeedsMore) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume("GET /hea"), HttpRequestParser::State::kNeedMore);
  EXPECT_EQ(parser.Consume("lthz HTT"), HttpRequestParser::State::kNeedMore);
  EXPECT_EQ(parser.Consume("P/1.1\r\n\r\n"),
            HttpRequestParser::State::kComplete);
}

TEST(HttpParserTest, MalformedRequestLineIs400) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume("NONSENSE\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParserTest, UnsupportedVersionIs505) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume("GET / HTTP/2.0\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 505);
}

TEST(HttpParserTest, PostWithoutContentLengthIs411) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume("POST /query HTTP/1.1\r\nHost: a\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 411);
}

TEST(HttpParserTest, OversizedContentLengthIs413) {
  HttpParserLimits limits;
  limits.max_body_bytes = 64;
  HttpRequestParser parser(limits);
  EXPECT_EQ(parser.Consume(
                "POST /query HTTP/1.1\r\nContent-Length: 65\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParserTest, ConflictingContentLengthsAre400) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume("POST / HTTP/1.1\r\nContent-Length: 2\r\n"
                           "Content-Length: 3\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParserTest, HeaderCountOverflowIs431) {
  HttpParserLimits limits;
  limits.max_header_count = 4;
  HttpRequestParser parser(limits);
  std::string wire = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 5; ++i) {
    wire += "X-H" + std::to_string(i) + ": v\r\n";
  }
  wire += "\r\n";
  EXPECT_EQ(parser.Consume(wire), HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParserTest, RequestLineOverLimitIs414) {
  HttpParserLimits limits;
  limits.max_request_line_bytes = 32;
  HttpRequestParser parser(limits);
  std::string wire = "GET /" + std::string(64, 'a') + " HTTP/1.1\r\n\r\n";
  EXPECT_EQ(parser.Consume(wire), HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 414);
}

TEST(HttpParserTest, LeadingCrlfFloodIsBoundedAnd400) {
  HttpParserLimits limits;
  limits.max_request_line_bytes = 32;
  // A few leading CRLFs are legal (RFC 9112 §2.2) and skipped.
  HttpRequestParser tolerant(limits);
  EXPECT_EQ(tolerant.Consume("\r\n\r\nGET / HTTP/1.1\r\n\r\n"),
            HttpRequestParser::State::kComplete);
  // A peer streaming bare CRLFs forever is cut off at the request-line
  // budget instead of holding the parser in kNeedMore — and the parse
  // buffer is compacted along the way, so it never accumulates the flood.
  HttpRequestParser flooded(limits);
  HttpRequestParser::State state = HttpRequestParser::State::kNeedMore;
  size_t sent = 0;
  while (state == HttpRequestParser::State::kNeedMore && sent < 1024) {
    state = flooded.Consume("\r\n");
    sent += 2;
    EXPECT_LE(flooded.buffered_bytes(), 2u);
  }
  ASSERT_EQ(state, HttpRequestParser::State::kError);
  EXPECT_EQ(flooded.error_status(), 400);
  EXPECT_LE(sent, 2 * limits.max_request_line_bytes);
}

TEST(HttpParserTest, TransferEncodingIsRejected) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume("POST / HTTP/1.1\r\n"
                           "Transfer-Encoding: chunked\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParserTest, PipelinedRequestsSurviveReset) {
  HttpRequestParser parser;
  const std::string two =
      "GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
  ASSERT_EQ(parser.Consume(two), HttpRequestParser::State::kComplete);
  EXPECT_EQ(parser.request().target, "/healthz");
  EXPECT_GT(parser.buffered_bytes(), 0u);
  // The second request was already buffered: Reset completes immediately.
  ASSERT_EQ(parser.Reset(), HttpRequestParser::State::kComplete);
  EXPECT_EQ(parser.request().target, "/metrics");
  EXPECT_EQ(parser.Reset(), HttpRequestParser::State::kNeedMore);
}

TEST(HttpParserTest, KeepAliveSemantics) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Consume("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"),
            HttpRequestParser::State::kComplete);
  EXPECT_FALSE(parser.request().keep_alive());
  HttpRequestParser old_http;
  ASSERT_EQ(old_http.Consume("GET / HTTP/1.0\r\n\r\n"),
            HttpRequestParser::State::kComplete);
  EXPECT_FALSE(old_http.request().keep_alive());
}

// ---------------------------------------------------------------------------
// Serving layer: request decoding, result encoding, routing

GraphDatabase SmallDatabase() {
  return gen::MoleculeDatabase(30, gen::MoleculeConfig{}, /*seed=*/7);
}

TEST(ServingTest, DecodesFullRequest) {
  auto parsed = ParseJson(
      R"({"kind":"match_count","pattern":{"vertices":[0,1],"edges":[[0,1,2]]},)"
      R"("targets":[3,4],"deadline_ms":50,"max_embeddings":10,)"
      R"("priority":"interactive","allow_partial":true})");
  ASSERT_TRUE(parsed.ok());
  auto request = QueryRequestFromJson(parsed.value());
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request.value().kind, QueryKind::kMatchCount);
  EXPECT_EQ(request.value().pattern.NumVertices(), 2u);
  EXPECT_EQ(request.value().pattern.NumEdges(), 1u);
  EXPECT_EQ(request.value().targets, (std::vector<GraphId>{3, 4}));
  EXPECT_DOUBLE_EQ(request.value().deadline_ms, 50);
  EXPECT_EQ(request.value().max_embeddings, 10u);
  EXPECT_EQ(request.value().priority, RequestPriority::kInteractive);
  EXPECT_TRUE(request.value().allow_partial);
}

TEST(ServingTest, RejectsBadRequests) {
  for (const char* body : {
           R"({"pattern":{"vertices":[]}})",          // empty pattern
           R"({"kind":"match_count"})",               // missing pattern
           R"({"pattern":{"vertices":[0]},"zzz":1})", // unknown key
           R"({"pattern":{"vertices":[0],"edges":[[0,5]]}})",  // bad endpoint
           R"({"pattern":{"vertices":[0]},"priority":"urgent"})",
           R"({"pattern":{"vertices":[0]},"deadline_ms":-1})",
           R"({"pattern":{"vertices":[0,1]},"kind":"suggest","focus":9})",
           // INT64_MAX is not double-representable: strtod yields exactly
           // 2^63, which must be rejected, not cast (that would be UB).
           R"({"pattern":{"vertices":[0]},)"
           R"("max_embeddings":9223372036854775807})",
           R"([1,2,3])",                              // not an object
       }) {
    auto parsed = ParseJson(body);
    ASSERT_TRUE(parsed.ok()) << body;
    auto request = QueryRequestFromJson(parsed.value());
    EXPECT_FALSE(request.ok()) << body;
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument) << body;
  }
}

TEST(ServingTest, HttpStatusMapping) {
  EXPECT_EQ(HttpStatusFor(Status::OK()), 200);
  EXPECT_EQ(HttpStatusFor(Status::InvalidArgument("x")), 400);
  EXPECT_EQ(HttpStatusFor(Status::NotFound("x")), 404);
  EXPECT_EQ(HttpStatusFor(Status::Unavailable("x")), 503);
  EXPECT_EQ(HttpStatusFor(Status::DeadlineExceeded("x")), 504);
  EXPECT_EQ(HttpStatusFor(Status::Internal("x")), 500);
}

TEST(ServingTest, RoutesWithoutSockets) {
  GraphDatabase db = SmallDatabase();
  QueryService service(db, QueryServiceOptions{});
  QueryServing::Options options;
  options.metrics = &service.metrics();
  QueryServing serving(&service, options);

  HttpRequest request;
  request.method = "GET";
  request.target = "/nope";
  request.version = "HTTP/1.1";
  EXPECT_EQ(serving.Handle(request).status, 404);

  request.target = "/query";  // GET on a POST-only endpoint
  HttpResponse method_response = serving.Handle(request);
  EXPECT_EQ(method_response.status, 405);

  request.target = "/healthz";
  HttpResponse healthz = serving.Handle(request);
  EXPECT_EQ(healthz.status, 200);
  EXPECT_NE(healthz.body.find("\"status\":\"ok\""), std::string::npos);

  request.target = "/metrics";
  HttpResponse metrics = serving.Handle(request);
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("vqi_requests_admitted_total"),
            std::string::npos);
}

TEST(ServingTest, QueryHandlerMatchesDirectExecute) {
  GraphDatabase db = SmallDatabase();
  QueryService service(db, QueryServiceOptions{});
  QueryServing::Options options;
  options.metrics = &service.metrics();
  QueryServing serving(&service, options);

  HttpRequest request;
  request.method = "POST";
  request.target = "/query";
  request.version = "HTTP/1.1";
  request.body = R"({"pattern":{"vertices":[0,1],"edges":[[0,1]]}})";
  HttpResponse response = serving.Handle(request);
  ASSERT_EQ(response.status, 200);

  QueryRequest direct;
  direct.pattern.AddVertex(0);
  direct.pattern.AddVertex(1);
  direct.pattern.AddEdge(0, 1, 0);
  QueryResult expected = service.Execute(std::move(direct));

  auto body = ParseJson(response.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value().Find("embedding_count")->number_value(),
            static_cast<double>(expected.embedding_count));
  EXPECT_EQ(
      body.value().Find("matched_graphs")->array().size(),
      expected.matched_graphs.size());
}

// The streaming writer must produce exactly the tree encoder's bytes.
std::string WriterBytes(const QueryResult& result) {
  std::string out;
  AppendQueryResultJson(result, &out);
  return out;
}

TEST(ServingTest, WriterMatchesTreeEncoderOnEveryStatusCode) {
  const std::vector<std::string> messages = {
      "", "plain", "quote \" inside", "back\\slash",
      std::string("control \x01\x1f\b\f\n\r\t bytes"), "unicode \xc3\xa9"};
  for (int code = static_cast<int>(StatusCode::kOk);
       code <= static_cast<int>(StatusCode::kCancelled); ++code) {
    for (const std::string& message : messages) {
      QueryResult result;
      result.status = Status(static_cast<StatusCode>(code), message);
      result.embedding_count = 12;
      result.matched_graphs = {1, 5};
      result.truncated = code % 2 == 0;
      result.latency_ms = 0.25 * code;
      EXPECT_EQ(WriterBytes(result), QueryResultToJson(result).Dump())
          << StatusCodeToString(static_cast<StatusCode>(code)) << " / "
          << message;
    }
  }
}

TEST(ServingTest, WriterMatchesTreeEncoderOnSeededCorpus) {
  Rng rng(20221);
  const int64_t two40 = int64_t{1} << 40;
  for (int round = 0; round < 200; ++round) {
    QueryResult result;
    const size_t ids = round % 4 == 0   ? 0
                       : round % 4 == 1 ? 1000
                                        : rng.UniformInt(40);
    for (size_t i = 0; i < ids; ++i) {
      result.matched_graphs.push_back(rng.UniformRange(0, two40));
    }
    const size_t suggestions = round % 3 == 0 ? 0 : round % 3 == 1 ? 18 : 3;
    for (size_t i = 0; i < suggestions; ++i) {
      result.suggestions.push_back(EdgeSuggestion{
          static_cast<Label>(rng.UniformInt(64)),
          static_cast<Label>(rng.UniformInt(4)),
          static_cast<Label>(rng.UniformInt(0xFFFFFFFF)),
          static_cast<size_t>(rng.UniformInt(100000))});
    }
    result.embedding_count = rng.UniformInt(uint64_t{1} << 52);
    result.match_steps = round % 5 == 0 ? 0 : rng.Next();
    result.truncated = rng.Bernoulli(0.3);
    result.from_cache = rng.Bernoulli(0.5);
    result.coalesced = rng.Bernoulli(0.2);
    // Integer and non-integer latencies, including sub-microsecond ones.
    result.latency_ms = round % 2 == 0
                            ? static_cast<double>(rng.UniformInt(5000))
                            : rng.UniformDouble() * std::pow(10.0, round % 7 - 4);
    if (round % 6 == 5) {
      result.status = Status::DeadlineExceeded("deadline \"" +
                                               std::to_string(round) + "\"");
    }
    EXPECT_EQ(WriterBytes(result), QueryResultToJson(result).Dump())
        << "round " << round;
  }
}

TEST(ServingTest, WriterAppendsToExistingBytes) {
  QueryResult result;
  result.matched_graphs = {3};
  std::string out = "prefix:";
  AppendQueryResultJson(result, &out);
  EXPECT_EQ(out, "prefix:" + QueryResultToJson(result).Dump());
}

// ---------------------------------------------------------------------------
// Loopback socket round trips

struct ServingHarness {
  GraphDatabase db = SmallDatabase();
  QueryService service;
  QueryServing serving;
  HttpServer server;

  explicit ServingHarness(HttpServerOptions options = {})
      : service(db,
                [] {
                  QueryServiceOptions o;
                  o.num_threads = 2;
                  return o;
                }()),
        serving(&service,
                [this] {
                  QueryServing::Options o;
                  o.metrics = &service.metrics();
                  return o;
                }()),
        server([this](const HttpRequest& r) { return serving.Handle(r); },
               [&] {
                 options.num_threads = 2;
                 options.metrics = &service.metrics();
                 return options;
               }()) {
    serving.set_server(&server);
  }
};

TEST(HttpSocketTest, HealthzAndQueryOverRealSockets) {
  ServingHarness harness;
  ASSERT_TRUE(harness.server.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server.port()).ok());
  auto healthz = client.Roundtrip("GET", "/healthz");
  ASSERT_TRUE(healthz.ok()) << healthz.status().ToString();
  EXPECT_EQ(healthz.value().status, 200);

  auto query = client.Roundtrip(
      "POST", "/query", R"({"pattern":{"vertices":[0,1],"edges":[[0,1]]}})");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query.value().status, 200);

  // The wire answer matches a direct in-process call byte-for-byte on the
  // deterministic content subset — the E17 acceptance invariant.
  QueryRequest direct;
  direct.pattern.AddVertex(0);
  direct.pattern.AddVertex(1);
  direct.pattern.AddEdge(0, 1, 0);
  QueryResult expected = harness.service.Execute(std::move(direct));
  auto body = ParseJson(query.value().body);
  ASSERT_TRUE(body.ok());
  JsonValue content = JsonValue::Object();
  for (const char* key : {"status", "embedding_count", "matched_graphs",
                          "suggestions", "truncated"}) {
    content.Set(key, *body.value().Find(key));
  }
  EXPECT_EQ(content.Dump(), QueryResultContentJson(expected).Dump());

  auto metrics = client.Roundtrip("GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().status, 200);
  EXPECT_NE(metrics.value().body.find("vqi_http_requests_total"),
            std::string::npos);
  EXPECT_NE(metrics.value().body.find("pool=\"http\""), std::string::npos);
}

TEST(HttpSocketTest, MalformedRequestGets400AndClose) {
  ServingHarness harness;
  ASSERT_TRUE(harness.server.Start().ok());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server.port()).ok());
  ASSERT_TRUE(client.SendRaw("NONSENSE\r\n\r\n").ok());
  std::string raw = client.ReadAvailable(2000);
  EXPECT_NE(raw.find("400 Bad Request"), std::string::npos);
  EXPECT_NE(raw.find("Connection: close"), std::string::npos);
}

// Replies the server writes itself, for requests the handler never sees,
// keep the documented error shape: {"error": {"code", "message"}}.
void ExpectErrorBody(const std::string& body, const std::string& code) {
  auto json = ParseJson(body);
  ASSERT_TRUE(json.ok()) << body;
  ASSERT_TRUE(json.value().is_object()) << body;
  const JsonValue* error = json.value().Find("error");
  ASSERT_NE(error, nullptr) << body;
  ASSERT_TRUE(error->is_object()) << body;
  const JsonValue* error_code = error->Find("code");
  const JsonValue* message = error->Find("message");
  ASSERT_TRUE(error_code != nullptr && error_code->is_string()) << body;
  ASSERT_TRUE(message != nullptr && message->is_string()) << body;
  EXPECT_EQ(error_code->string_value(), code);
  EXPECT_FALSE(message->string_value().empty());
}

std::string RawBody(const std::string& raw) {
  size_t end_of_headers = raw.find("\r\n\r\n");
  return end_of_headers == std::string::npos ? ""
                                             : raw.substr(end_of_headers + 4);
}

TEST(HttpSocketTest, MalformedRequestReplyHasTheErrorShape) {
  ServingHarness harness;
  ASSERT_TRUE(harness.server.Start().ok());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server.port()).ok());
  ASSERT_TRUE(client.SendRaw("NONSENSE\r\n\r\n").ok());
  std::string raw = client.ReadAvailable(2000);
  ASSERT_NE(raw.find("400 Bad Request"), std::string::npos);
  ExpectErrorBody(RawBody(raw), "InvalidArgument");
}

TEST(HttpSocketTest, ReadDeadlineReplyHasTheErrorShape) {
  HttpServerOptions options;
  options.read_timeout_ms = 100;
  ServingHarness harness(options);
  ASSERT_TRUE(harness.server.Start().ok());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server.port()).ok());
  ASSERT_TRUE(client.SendRaw("GET /healthz HTT").ok());
  std::string raw = client.ReadAvailable(3000);
  ASSERT_NE(raw.find("408 "), std::string::npos);
  ExpectErrorBody(RawBody(raw), "DeadlineExceeded");
}

TEST(HttpSocketTest, InjectedReadErrorCarriesTheInjectorsCode) {
  FaultPlan plan;
  plan.seed = 11;
  plan.At(FaultPoint::kHttpRead).error_p = 1.0;
  plan.At(FaultPoint::kHttpRead).error_code = StatusCode::kInternal;
  FaultInjector injector(plan);
  HttpServerOptions options;
  options.fault_injector = &injector;
  ServingHarness harness(options);
  ASSERT_TRUE(harness.server.Start().ok());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server.port()).ok());
  auto response = client.Roundtrip("GET", "/healthz");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 503);
  ExpectErrorBody(response.value().body, "Internal");
  EXPECT_EQ(injector.InjectedErrors(FaultPoint::kHttpRead), 1u);
}

TEST(HttpSocketTest, HeaderOverflowGets431) {
  HttpServerOptions options;
  options.parser_limits.max_header_count = 4;
  ServingHarness harness(options);
  ASSERT_TRUE(harness.server.Start().ok());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server.port()).ok());
  std::string wire = "GET /healthz HTTP/1.1\r\n";
  for (int i = 0; i < 6; ++i) wire += "X-H" + std::to_string(i) + ": v\r\n";
  wire += "\r\n";
  ASSERT_TRUE(client.SendRaw(wire).ok());
  std::string raw = client.ReadAvailable(2000);
  EXPECT_NE(raw.find("431 "), std::string::npos);
}

TEST(HttpSocketTest, TornMidBodyDisconnectIsCountedAndServerSurvives) {
  ServingHarness harness;
  ASSERT_TRUE(harness.server.Start().ok());
  {
    HttpClient torn;
    ASSERT_TRUE(torn.Connect("127.0.0.1", harness.server.port()).ok());
    // Promise 100 body bytes, deliver 10, vanish.
    ASSERT_TRUE(torn.SendRaw("POST /query HTTP/1.1\r\n"
                             "Content-Length: 100\r\n\r\n0123456789")
                    .ok());
    torn.Close();
  }
  // The server must shrug it off: a fresh connection still gets answers.
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server.port()).ok());
  auto healthz = client.Roundtrip("GET", "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz.value().status, 200);
  auto metrics = client.Roundtrip("GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  // The torn read may still be in flight; poll the counter briefly.
  bool counted = false;
  for (int i = 0; i < 100 && !counted; ++i) {
    auto scrape = client.Roundtrip("GET", "/metrics");
    ASSERT_TRUE(scrape.ok());
    counted = scrape.value().body.find("vqi_http_torn_reads_total 1") !=
              std::string::npos;
    if (!counted) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(counted);
}

TEST(HttpSocketTest, PipelinedKeepAliveServesBothRequests) {
  ServingHarness harness;
  ASSERT_TRUE(harness.server.Start().ok());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server.port()).ok());
  ASSERT_TRUE(client
                  .SendRaw("GET /healthz HTTP/1.1\r\n\r\n"
                           "GET /healthz HTTP/1.1\r\n\r\n")
                  .ok());
  std::string raw = client.ReadAvailable(2000);
  size_t first = raw.find("HTTP/1.1 200");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(raw.find("HTTP/1.1 200", first + 1), std::string::npos);
}

TEST(HttpSocketTest, KeepAliveIsBounded) {
  HttpServerOptions options;
  options.max_keepalive_requests = 2;
  ServingHarness harness(options);
  ASSERT_TRUE(harness.server.Start().ok());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server.port()).ok());
  auto first = client.Roundtrip("GET", "/healthz");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(FindHeader(first.value().headers, "connection"), "keep-alive");
  auto second = client.Roundtrip("GET", "/healthz");
  ASSERT_TRUE(second.ok());
  // The bounded connection announces the close on its final response.
  EXPECT_EQ(FindHeader(second.value().headers, "connection"), "close");
  EXPECT_FALSE(client.connected());
}

TEST(HttpSocketTest, SilentMidRequestPeerGets408) {
  HttpServerOptions options;
  options.read_timeout_ms = 100;
  ServingHarness harness(options);
  ASSERT_TRUE(harness.server.Start().ok());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server.port()).ok());
  ASSERT_TRUE(client.SendRaw("GET /healthz HTT").ok());  // ...then silence
  std::string raw = client.ReadAvailable(3000);
  EXPECT_NE(raw.find("408 "), std::string::npos);
}

TEST(HttpSocketTest, TrickledBytesDoNotExtendTheReadDeadline) {
  HttpServerOptions options;
  options.read_timeout_ms = 200;
  ServingHarness harness(options);
  ASSERT_TRUE(harness.server.Start().ok());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server.port()).ok());
  // A slowloris peer trickling one byte per poll: each byte keeps the
  // socket "live", so only a cumulative per-request deadline ends it. The
  // wire is long enough that a deadline which reset on every byte would
  // keep the worker busy far past the elapsed bound asserted below.
  const std::string wire =
      "GET /healthz HTTP/1.1\r\nX-Slow: " + std::string(100, 'a');
  Stopwatch elapsed;
  std::string raw;
  size_t sent = 0;
  while (raw.find("408 ") == std::string::npos && sent < wire.size() &&
         elapsed.ElapsedMillis() < 10000) {
    if (!client.SendRaw(wire.substr(sent, 1)).ok()) break;  // server closed
    ++sent;
    raw += client.ReadAvailable(50);
  }
  raw += client.ReadAvailable(500);
  EXPECT_NE(raw.find("408 "), std::string::npos);
  // The cumulative deadline fired after ~200ms, having accepted only a
  // few trickled bytes — not the whole header.
  EXPECT_LT(sent, wire.size());
}

TEST(HttpSocketTest, GracefulDrainFinishesInFlightRequest) {
  // A bare HttpServer with a deliberately slow handler: Shutdown must wait
  // for the in-flight response instead of cutting the socket.
  std::atomic<int> handled{0};
  HttpServerOptions options;
  options.num_threads = 2;
  options.drain_grace_ms = 5000;
  HttpServer server(
      [&handled](const HttpRequest&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        ++handled;
        HttpResponse response;
        response.body = "{\"slow\":true}";
        return response;
      },
      options);
  ASSERT_TRUE(server.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto pending = std::async(std::launch::async, [&client] {
    return client.Roundtrip("GET", "/slow");
  });
  // Let the request reach the handler, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.Shutdown();
  auto response = pending.get();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 200);
  EXPECT_EQ(response.value().body, "{\"slow\":true}");
  // Drain responses advertise the close.
  EXPECT_EQ(FindHeader(response.value().headers, "connection"), "close");
  EXPECT_EQ(handled.load(), 1);

  // After drain, new connections are refused (accept loop is gone).
  HttpClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server.port()).ok() &&
               late.Roundtrip("GET", "/healthz").ok());
}

TEST(HttpSocketTest, HttpReadChaosLatencyDelaysButServes) {
  FaultPlan plan;
  plan.seed = 11;
  plan.At(FaultPoint::kHttpRead).latency_p = 1.0;
  plan.At(FaultPoint::kHttpRead).latency_ms = 60;
  FaultInjector injector(plan);
  HttpServerOptions options;
  options.fault_injector = &injector;
  ServingHarness harness(options);
  ASSERT_TRUE(harness.server.Start().ok());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server.port()).ok());
  Stopwatch timer;
  auto response = client.Roundtrip("GET", "/healthz");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 200);
  EXPECT_GE(timer.ElapsedMillis(), 50.0);
  EXPECT_EQ(injector.InjectedLatencies(FaultPoint::kHttpRead), 1u);
}

TEST(HttpSocketTest, HttpReadChaosDropTearsConnection) {
  FaultPlan plan;
  plan.seed = 11;
  plan.At(FaultPoint::kHttpRead).drop_p = 1.0;
  FaultInjector injector(plan);
  HttpServerOptions options;
  options.fault_injector = &injector;
  ServingHarness harness(options);
  ASSERT_TRUE(harness.server.Start().ok());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server.port()).ok());
  auto response = client.Roundtrip("GET", "/healthz");
  EXPECT_FALSE(response.ok());
  EXPECT_GE(injector.InjectedDrops(FaultPoint::kHttpRead), 1u);
}

}  // namespace
}  // namespace net
}  // namespace vqi
