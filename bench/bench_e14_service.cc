// E14 — the serving layer for interactive VQIs (ROADMAP north star:
// production-scale traffic). Two claims: (1) QueryService throughput on a
// subgraph-match workload grows as workers grow 1 -> 8 (each request is an
// independent VF2 run);
// (2) on a repeated-query workload — the canned-pattern / re-drawn-query
// access pattern TATTOO targets — the canonical-form result cache beats the
// uncached configuration by a wide margin, because isomorphic re-draws
// collapse onto one cache entry; (3, E16) on duplicate-heavy bursts,
// single-flight coalescing collapses backend VF2 executions toward the
// unique-query count as the dup-ratio rises.

#include <benchmark/benchmark.h>

#include <future>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "graph/generators.h"
#include "match/pattern_utils.h"
#include "service/query_service.h"
#include "sim/workload.h"

namespace vqi {
namespace {

constexpr uint64_t kSeed = 14;
constexpr size_t kDbSize = 300;
constexpr size_t kDistinctQueries = 48;
// E14a replays the workload this many times so that its 1-thread row runs
// for about a second: a run of a few tens of milliseconds is too short to
// show pool scaling.
constexpr size_t kScalingRepeats = 80;
// E14b draws this many queries and keeps the pairwise non-isomorphic ones,
// so that its cache-off row runs for about a second; its cache holds them
// all.
constexpr size_t kCacheDraws = 20000;
constexpr size_t kCacheCapacity = 16384;

GraphDatabase MakeDb() {
  return gen::MoleculeDatabase(kDbSize, gen::MoleculeConfig{}, kSeed);
}

std::vector<Graph> MakeQueries(const GraphDatabase& db, size_t count) {
  WorkloadConfig config;
  config.num_queries = count;
  config.min_edges = 3;
  config.max_edges = 8;
  config.seed = kSeed;
  return GenerateDbWorkload(db, config);
}

std::vector<QueryRequest> MakeRequests(const std::vector<Graph>& queries,
                                       size_t repeats) {
  // Interleave the repeats (q0, q1, ..., q0, q1, ...) so cached runs mix hits
  // and misses the way a panel of popular patterns would.
  std::vector<QueryRequest> requests;
  requests.reserve(queries.size() * repeats);
  for (size_t round = 0; round < repeats; ++round) {
    for (const Graph& q : queries) {
      QueryRequest request;
      request.pattern = q;
      request.target = kAllGraphs;
      request.max_embeddings = 2000;
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

struct ReplayOutcome {
  double seconds = 0;
  uint64_t completed = 0;
};

// Replay with backpressure handling: on kUnavailable, wait for the oldest
// outstanding future (the client-side analogue of retry-after-drain). When
// `round_size` > 0 a barrier is placed every `round_size` requests — each
// repeat round models users re-issuing popular queries after earlier results
// came back, rather than one simultaneous burst of duplicates.
ReplayOutcome Replay(QueryService& service,
                     const std::vector<QueryRequest>& requests,
                     size_t round_size = 0) {
  Stopwatch timer;
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(requests.size());
  size_t next_wait = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    for (;;) {
      auto submitted = service.Submit(requests[i]);
      if (submitted.ok()) {
        futures.push_back(std::move(submitted).value());
        break;
      }
      if (next_wait < futures.size()) {
        futures[next_wait++].get();
      } else {
        std::this_thread::yield();
      }
    }
    if (round_size > 0 && (i + 1) % round_size == 0) {
      for (; next_wait < futures.size(); ++next_wait) futures[next_wait].get();
    }
  }
  for (; next_wait < futures.size(); ++next_wait) futures[next_wait].get();
  return {timer.ElapsedSeconds(), futures.size()};
}

QueryServiceOptions Options(size_t threads, size_t cache_capacity) {
  QueryServiceOptions options;
  options.num_threads = threads;
  options.queue_capacity = 512;
  options.cache_capacity = cache_capacity;
  options.cache_shards = 8;
  // E14 measures pool scaling and the result cache in isolation; the E16
  // comparison flips single-flight coalescing on explicitly.
  options.enable_coalescing = false;
  return options;
}

void RunScalingExperiment() {
  GraphDatabase db = MakeDb();
  std::vector<QueryRequest> requests =
      MakeRequests(MakeQueries(db, kDistinctQueries), kScalingRepeats);
  unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u\n", hw);
  if (hw < 8) {
    std::printf("note: fewer hardware threads than the largest pool tested; "
                "speedup is capped near %u on this machine\n", hw);
  }
  bench::Table table(
      "E14a: QueryService throughput scaling (match workload, cache off)",
      {"threads", "total (s)", "queries/s", "speedup", "p50 (ms)", "p99 (ms)",
       "qwait p50", "qwait p99"});
  double baseline_qps = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    QueryService service(db, Options(threads, /*cache_capacity=*/0));
    ReplayOutcome outcome = Replay(service, requests);
    ServiceStats stats = service.Snapshot();
    // Queue-wait distribution comes straight off the pool's histogram: time a
    // request sat admitted-but-not-running, the dominant latency term when
    // the pool is saturated.
    obs::HistogramSnapshot queue_wait =
        service.metrics()
            .GetHistogram("vqi_pool_queue_wait_ms", "",
                          obs::Histogram::DefaultLatencyBoundsMs())
            .Snapshot();
    double qps = static_cast<double>(outcome.completed) / outcome.seconds;
    if (threads == 1) baseline_qps = qps;
    table.AddRow({std::to_string(threads), bench::Fmt(outcome.seconds),
                  bench::Fmt(qps, 0), bench::Fmt(qps / baseline_qps, 2),
                  bench::Fmt(stats.p50_latency_ms, 2),
                  bench::Fmt(stats.p99_latency_ms, 2),
                  bench::Fmt(queue_wait.Quantile(0.50), 2),
                  bench::Fmt(queue_wait.Quantile(0.99), 2)});
  }
  table.Print();
}

void RunCacheExperiment() {
  GraphDatabase db = MakeDb();
  const std::vector<Graph> queries =
      DedupIsomorphic(MakeQueries(db, kCacheDraws));
  std::vector<QueryRequest> requests = MakeRequests(queries, /*repeats=*/5);
  bench::Table table(
      "E14b: canonical-form result cache on a repeated-query workload (" +
          std::to_string(queries.size()) +
          " distinct queries x 5 rounds, 4 threads)",
      {"cache", "total (s)", "queries/s", "hit rate", "hits", "evictions"});
  for (size_t capacity : {size_t{0}, kCacheCapacity}) {
    QueryServiceOptions options = Options(4, capacity);
    // A whole round fits in the queue, so no request is refused and probed
    // again: each first-round request misses twice (admission and dequeue)
    // and every later one hits, a hit rate of 4 in 6.
    options.queue_capacity = 2 * queries.size();
    QueryService service(db, options);
    ReplayOutcome outcome = Replay(service, requests, queries.size());
    ServiceStats stats = service.Snapshot();
    uint64_t lookups = stats.cache_hits + stats.cache_misses;
    double hit_rate =
        lookups == 0 ? 0.0
                     : static_cast<double>(stats.cache_hits) / lookups;
    table.AddRow(
        {capacity == 0 ? "off" : std::to_string(capacity),
         bench::Fmt(outcome.seconds),
         bench::Fmt(static_cast<double>(outcome.completed) / outcome.seconds,
                    0),
         bench::Fmt(hit_rate, 2), std::to_string(stats.cache_hits),
         std::to_string(stats.cache_evictions)});
  }
  table.Print();
}

// A duplicate-heavy burst stream over the first `unique` distinct queries:
// with dup-ratio d the stream holds round(unique / (1 - d)) requests, so a
// fraction d of them are re-issues of an earlier query. Interactive priority
// keeps shedding out of the comparison, and interleaved rounds put the
// duplicates in flight together — the burst shape canned-pattern VQI panels
// produce.
std::vector<QueryRequest> MakeDupWorkload(const std::vector<Graph>& queries,
                                          double dup_ratio) {
  size_t total = static_cast<size_t>(
      static_cast<double>(queries.size()) / (1.0 - dup_ratio) + 0.5);
  std::vector<QueryRequest> requests;
  requests.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    QueryRequest request;
    request.pattern = queries[i % queries.size()];
    request.target = kAllGraphs;
    request.max_embeddings = 2000;
    request.priority = RequestPriority::kInteractive;
    requests.push_back(std::move(request));
  }
  return requests;
}

void RunCoalescingExperiment() {
  GraphDatabase db = MakeDb();
  std::vector<Graph> queries = MakeQueries(db, kDistinctQueries);

  // Cache off isolates single-flight coalescing: with it on, the dequeue-time
  // re-probe already rescues duplicates that arrive after their leader
  // finished, and on a small machine that masks the in-flight effect.
  bench::Table table(
      "E16: single-flight coalescing on duplicate-heavy bursts (4 threads, "
      "cache off)",
      {"dup-ratio", "requests", "coalesce", "total (s)", "queries/s",
       "backend", "vs uncoal", "waiters", "fanout"});
  for (double dup_ratio : {0.0, 0.5, 0.8, 0.9}) {
    std::vector<QueryRequest> requests = MakeDupWorkload(queries, dup_ratio);
    uint64_t uncoalesced_backend = 0;
    for (bool coalesce : {false, true}) {
      QueryServiceOptions options = Options(4, /*cache_capacity=*/0);
      options.enable_coalescing = coalesce;
      QueryService service(db, options);
      ReplayOutcome outcome = Replay(service, requests);
      ServiceStats stats = service.Snapshot();
      if (!coalesce) uncoalesced_backend = stats.backend_executions;
      double vs_uncoalesced =
          uncoalesced_backend == 0
              ? 1.0
              : static_cast<double>(stats.backend_executions) /
                    static_cast<double>(uncoalesced_backend);
      table.AddRow(
          {bench::Fmt(dup_ratio, 1), std::to_string(requests.size()),
           coalesce ? "on" : "off", bench::Fmt(outcome.seconds),
           bench::Fmt(static_cast<double>(outcome.completed) / outcome.seconds,
                      0),
           std::to_string(stats.backend_executions),
           bench::Fmt(vs_uncoalesced, 2), std::to_string(stats.coalesce_waiters),
           std::to_string(stats.coalesce_fanout)});
    }
  }
  table.Print();
}

void BM_ServiceMatchThroughput(benchmark::State& state) {
  GraphDatabase db = MakeDb();
  std::vector<QueryRequest> requests =
      MakeRequests(MakeQueries(db, kDistinctQueries), /*repeats=*/1);
  size_t threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    QueryService service(db, Options(threads, /*cache_capacity=*/0));
    ReplayOutcome outcome = Replay(service, requests);
    benchmark::DoNotOptimize(outcome.completed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(requests.size()));
}
BENCHMARK(BM_ServiceMatchThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_CachedSubmitLatency(benchmark::State& state) {
  GraphDatabase db = MakeDb();
  std::vector<QueryRequest> requests =
      MakeRequests(MakeQueries(db, kDistinctQueries), /*repeats=*/1);
  QueryService service(db, Options(2, /*cache_capacity=*/1024));
  Replay(service, requests);  // warm the cache
  size_t i = 0;
  for (auto _ : state) {
    QueryResult result = service.Execute(requests[i++ % requests.size()]);
    benchmark::DoNotOptimize(result.embedding_count);
  }
}
BENCHMARK(BM_CachedSubmitLatency)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace vqi

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  vqi::RunScalingExperiment();
  vqi::RunCacheExperiment();
  vqi::RunCoalescingExperiment();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
