#include "inputs.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "graph/generators.h"
#include "match/canonical.h"
#include "match/pattern_utils.h"
#include "net/json.h"
#include "net/serving.h"

namespace perfbench {

using vqi::Graph;
using vqi::net::JsonValue;

vqi::GraphDatabase Molecules(size_t count, uint64_t seed) {
  return vqi::gen::MoleculeDatabase(count, vqi::gen::MoleculeConfig{}, seed);
}

std::vector<Graph> DistinctPatterns(const vqi::GraphDatabase& db, size_t count,
                                    size_t min_edges, size_t max_edges,
                                    vqi::Rng& rng,
                                    std::unordered_set<std::string>* seen) {
  std::vector<Graph> patterns;
  const auto& graphs = db.graphs();
  // Bounded so a collection too small to hold `count` distinct patterns
  // ends generation instead of looping forever.
  for (size_t attempt = 0; patterns.size() < count && attempt < 200 * count;
       ++attempt) {
    const Graph& source = graphs[rng.UniformInt(graphs.size())];
    const size_t edges = static_cast<size_t>(rng.UniformRange(
        static_cast<int64_t>(min_edges), static_cast<int64_t>(max_edges)));
    std::optional<Graph> pattern = vqi::RandomConnectedSubgraph(source, edges, rng);
    if (!pattern.has_value()) continue;
    if (!seen->insert(vqi::CanonicalCode(*pattern)).second) continue;
    pattern->set_id(-1);
    patterns.push_back(std::move(*pattern));
  }
  return patterns;
}

Graph Permuted(const Graph& pattern, vqi::Rng& rng,
               std::vector<vqi::VertexId>* old_to_new) {
  const size_t n = pattern.NumVertices();
  std::vector<vqi::VertexId> new_to_old(n);
  for (size_t i = 0; i < n; ++i) new_to_old[i] = static_cast<vqi::VertexId>(i);
  rng.Shuffle(new_to_old);
  old_to_new->assign(n, 0);
  Graph permuted;
  for (size_t i = 0; i < n; ++i) {
    (*old_to_new)[new_to_old[i]] = static_cast<vqi::VertexId>(i);
    permuted.AddVertex(pattern.VertexLabel(new_to_old[i]));
  }
  std::vector<vqi::Edge> edges = pattern.Edges();
  rng.Shuffle(edges);
  for (const vqi::Edge& e : edges) {
    permuted.AddEdge((*old_to_new)[e.u], (*old_to_new)[e.v], e.label);
  }
  return permuted;
}

ZipfSampler::ZipfSampler(size_t n) {
  double total = 0;
  cumulative_.reserve(n);
  for (size_t rank = 0; rank < n; ++rank) {
    total += 1.0 / static_cast<double>(rank + 1);
    cumulative_.push_back(total);
  }
}

size_t ZipfSampler::Sample(vqi::Rng& rng) const {
  const double target = rng.UniformDouble() * cumulative_.back();
  auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), target);
  return std::min<size_t>(it - cumulative_.begin(), cumulative_.size() - 1);
}

std::string QueryBody(const vqi::QueryRequest& request) {
  JsonValue vertices = JsonValue::Array();
  for (vqi::VertexId v = 0; v < request.pattern.NumVertices(); ++v) {
    vertices.Append(JsonValue::Number(request.pattern.VertexLabel(v)));
  }
  JsonValue edges = JsonValue::Array();
  for (const vqi::Edge& e : request.pattern.Edges()) {
    JsonValue edge = JsonValue::Array();
    edge.Append(JsonValue::Number(e.u));
    edge.Append(JsonValue::Number(e.v));
    edge.Append(JsonValue::Number(e.label));
    edges.Append(std::move(edge));
  }
  JsonValue pattern = JsonValue::Object();
  pattern.Set("vertices", std::move(vertices));
  pattern.Set("edges", std::move(edges));
  JsonValue body = JsonValue::Object();
  const bool suggest = request.kind == vqi::QueryKind::kSuggest;
  body.Set("kind", JsonValue::String(suggest ? "suggest" : "match_count"));
  body.Set("pattern", std::move(pattern));
  if (suggest) {
    body.Set("focus", JsonValue::Number(request.focus));
    body.Set("top_k", JsonValue::Number(static_cast<double>(request.top_k)));
  } else {
    body.Set("max_embeddings",
             JsonValue::Number(static_cast<double>(request.max_embeddings)));
  }
  return body.Dump();
}

namespace {

// The content fields in a fixed order, whatever order the encoder used, so a
// wire response and an in-process result compare equal exactly when their
// contents do.
uint64_t HashContentFields(const JsonValue& json) {
  JsonValue content = JsonValue::Object();
  for (const char* key : {"status", "embedding_count", "matched_graphs",
                          "suggestions", "truncated"}) {
    const JsonValue* field = json.Find(key);
    content.Set(key, field == nullptr ? JsonValue::Null() : *field);
  }
  uint64_t hash = 1469598103934665603ull;  // FNV-1a
  for (unsigned char c : content.Dump()) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

uint64_t ContentHash(const vqi::QueryResult& result) {
  auto parsed =
      vqi::net::ParseJson(vqi::net::QueryResultContentJson(result).Dump());
  return parsed.ok() ? HashContentFields(parsed.value()) : 0;
}

vqi::StatusOr<WireResult> ParseWireResult(const std::string& body) {
  auto parsed = vqi::net::ParseJson(body);
  if (!parsed.ok()) return parsed.status();
  if (!parsed.value().is_object()) {
    return vqi::Status::ParseError("response body is not a JSON object");
  }
  WireResult result;
  result.content_hash = HashContentFields(parsed.value());
  const JsonValue* matched = parsed.value().Find("matched_graphs");
  if (matched != nullptr && matched->is_array()) {
    result.matched_graphs = matched->array().size();
  }
  const JsonValue* steps = parsed.value().Find("match_steps");
  if (steps != nullptr && steps->is_number()) {
    result.match_steps = static_cast<uint64_t>(steps->number_value());
  }
  return result;
}

double SpeedFactor() {
  static std::vector<uint32_t> values(1 << 16);
  const auto begin = std::chrono::steady_clock::now();
  uint64_t x = 88172645463325252ull;  // xorshift64
  for (uint32_t& value : values) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    value = static_cast<uint32_t>(x);
  }
  std::sort(values.begin(), values.end());
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - begin)
                        .count();
  return kProbeReferenceMs / ms;
}

double ProbeSpeed() {
  double factors[] = {SpeedFactor(), SpeedFactor(), SpeedFactor()};
  std::sort(std::begin(factors), std::end(factors));
  return factors[1];
}

double RssMb() {
  long pages = 0;
  long resident = 0;
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  if (std::fscanf(statm, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(statm);
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
