// Tests for the concurrent query service layer: thread-pool backpressure,
// LRU cache behaviour, deadline handling, result freshness across database
// edits (single edits and maintenance batches, with no invalidation call),
// the service's metrics/trace surface, and multi-threaded stress runs.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/mutex.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "gtest/gtest.h"
#include "obs/export.h"
#include "service/lru_cache.h"
#include "service/query_service.h"
#include "service/resilience/fault_injector.h"
#include "service/thread_pool.h"
#include "shard/sharded_router.h"
#include "vqi/builder.h"
#include "vqi/maintainer.h"

namespace vqi {
namespace {

// ---------------------------------------------------------------------------
// Aggregate shapes

// `QueryServiceOptions{}` / `ServiceStats{}` must mean the documented
// defaults: every member carries an explicit initializer (enforced by the
// FieldCount static_asserts in query_service.h), so a zero-argument brace
// init can never leave a field indeterminate.
TEST(AggregateDefaultsTest, ZeroArgBraceInitIsTheDocumentedConfiguration) {
  QueryServiceOptions options{};
  EXPECT_EQ(options.num_threads, 4u);
  EXPECT_EQ(options.queue_capacity, 256u);
  EXPECT_EQ(options.cache_capacity, 1024u);
  EXPECT_EQ(options.cache_shards, 8u);
  EXPECT_FALSE(options.match_options.induced);
  EXPECT_TRUE(options.match_options.match_vertex_labels);
  EXPECT_EQ(options.trace_capacity, 256u);
  EXPECT_DOUBLE_EQ(options.shed_high_water, 0.75);
  EXPECT_EQ(options.fault_injector, nullptr);
  EXPECT_TRUE(options.enable_coalescing);
  EXPECT_DOUBLE_EQ(options.coalesce_retry_ratio, 0.5);
  EXPECT_DOUBLE_EQ(options.coalesce_retry_capacity, 8.0);
  EXPECT_EQ(options.metrics, nullptr);
  EXPECT_TRUE(options.metric_labels.empty());

  ServiceStats stats{};
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.backend_executions, 0u);
  EXPECT_EQ(stats.index_builds, 0u);
  EXPECT_DOUBLE_EQ(stats.p99_latency_ms, 0.0);
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  ThreadPoolOptions pool_options;
  pool_options.num_threads = 2;
  pool_options.queue_capacity = 16;
  ThreadPool pool(pool_options);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.Submit([&counter] { ++counter; }).ok());
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 10);
  EXPECT_EQ(pool.TasksExecuted(), 10u);
}

TEST(ThreadPoolTest, FullQueueReturnsUnavailable) {
  ThreadPoolOptions pool_options;
  pool_options.num_threads = 1;
  pool_options.queue_capacity = 1;
  ThreadPool pool(pool_options);
  // Gate the single worker so the queue state is deterministic.
  Mutex mutex;
  CondVar cv;
  bool release = false;
  bool worker_started = false;
  ASSERT_TRUE(pool.Submit([&] {
                    MutexLock lock(&mutex);
                    worker_started = true;
                    cv.NotifyAll();
                    while (!release) cv.Wait(mutex);
                  })
                  .ok());
  {
    // Wait until the worker has dequeued the gate task (queue empty again).
    MutexLock lock(&mutex);
    while (!worker_started) cv.Wait(mutex);
  }
  // One slot in the queue: first fill succeeds, second is shed.
  EXPECT_TRUE(pool.Submit([] {}).ok());
  Status rejected = pool.Submit([] {});
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  {
    MutexLock lock(&mutex);
    release = true;
  }
  cv.NotifyAll();
  pool.Shutdown();
  EXPECT_EQ(pool.TasksExecuted(), 2u);
}

TEST(ThreadPoolTest, ShutdownDrainsAdmittedTasksAndRejectsNew) {
  std::atomic<int> counter{0};
  {
    ThreadPoolOptions pool_options;
    pool_options.num_threads = 1;
    pool_options.queue_capacity = 64;
    ThreadPool pool(pool_options);
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(pool.Submit([&counter] { ++counter; }).ok());
    }
    pool.Shutdown();
    EXPECT_EQ(pool.Submit([&counter] { ++counter; }).code(),
              StatusCode::kUnavailable);
  }
  EXPECT_EQ(counter.load(), 32);
}

// ---------------------------------------------------------------------------
// ShardedLruCache

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  ShardedLruCache<int> cache(/*capacity=*/3, /*num_shards=*/1);
  cache.Put("a", 1);
  cache.Put("b", 2);
  cache.Put("c", 3);
  // Touch "a" so "b" becomes the eviction victim.
  EXPECT_EQ(cache.Get("a").value(), 1);
  cache.Put("d", 4);
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
  EXPECT_TRUE(cache.Get("d").has_value());

  CacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
}

TEST(LruCacheTest, PutOverwritesWithoutEviction) {
  ShardedLruCache<int> cache(2, 1);
  cache.Put("a", 1);
  cache.Put("a", 7);
  EXPECT_EQ(cache.Get("a").value(), 7);
  EXPECT_EQ(cache.GetStats().evictions, 0u);
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

TEST(LruCacheTest, ShardsSplitTheCapacity) {
  ShardedLruCache<int> cache(/*capacity=*/64, /*num_shards=*/8);
  EXPECT_EQ(cache.num_shards(), 8u);
  for (int i = 0; i < 200; ++i) {
    cache.Put("key" + std::to_string(i), i);
  }
  CacheStats stats = cache.GetStats();
  EXPECT_LE(stats.entries, 64u);
  EXPECT_GT(stats.evictions, 0u);
}

// ---------------------------------------------------------------------------
// QueryService

// A small deterministic collection: a labeled triangle, a 4-path, and a
// square, over vertex labels {0,1,2}.
GraphDatabase MakeDatabase() {
  GraphDatabase db;
  {
    Graph g;  // triangle 0-1-2
    g.AddVertex(0);
    g.AddVertex(1);
    g.AddVertex(2);
    g.AddEdge(0, 1);
    g.AddEdge(1, 2);
    g.AddEdge(0, 2);
    db.Add(std::move(g));
  }
  {
    Graph g;  // path 0-1-0-1
    g.AddVertex(0);
    g.AddVertex(1);
    g.AddVertex(0);
    g.AddVertex(1);
    g.AddEdge(0, 1);
    g.AddEdge(1, 2);
    g.AddEdge(2, 3);
    db.Add(std::move(g));
  }
  {
    Graph g;  // square, all label 0
    for (int i = 0; i < 4; ++i) g.AddVertex(0);
    g.AddEdge(0, 1);
    g.AddEdge(1, 2);
    g.AddEdge(2, 3);
    g.AddEdge(0, 3);
    db.Add(std::move(g));
  }
  return db;
}

// A single 0-1 edge pattern.
Graph EdgePattern() {
  Graph p;
  p.AddVertex(0);
  p.AddVertex(1);
  p.AddEdge(0, 1);
  return p;
}

// A pattern whose exhaustive enumeration on a dense target takes far longer
// than any test deadline: a 6-leaf star matched into K28 (unlabeled), with
// ~3e11 embeddings.
Graph HeavyStarPattern() {
  Graph p;
  VertexId center = p.AddVertex(0);
  for (int i = 0; i < 6; ++i) {
    VertexId leaf = p.AddVertex(0);
    p.AddEdge(center, leaf);
  }
  return p;
}

GraphDatabase MakeDenseTarget() {
  GraphDatabase db;
  Graph g;
  constexpr int kN = 28;
  for (int i = 0; i < kN; ++i) g.AddVertex(0);
  for (int i = 0; i < kN; ++i) {
    for (int j = i + 1; j < kN; ++j) g.AddEdge(i, j);
  }
  db.Add(std::move(g));
  return db;
}

TEST(QueryServiceTest, MatchCountAcrossCollection) {
  GraphDatabase db = MakeDatabase();
  QueryService service(db, QueryServiceOptions{2, 32, 64, 4, {}});

  QueryRequest request;
  request.pattern = EdgePattern();
  QueryResult result = service.Execute(request);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  // Triangle contributes 0-1 and 2-1 (two mappings each: 2*2=... counted as
  // distinct vertex mappings), path contributes each 0-1 adjacency.
  EXPECT_GT(result.embedding_count, 0u);
  EXPECT_EQ(result.matched_graphs.size(), 2u);  // square has no label-1 vertex
  EXPECT_FALSE(result.from_cache);
}

TEST(QueryServiceTest, SingleTargetMatch) {
  GraphDatabase db = MakeDatabase();
  QueryService service(db, QueryServiceOptions{1, 8, 16, 1, {}});

  QueryRequest request;
  request.pattern = EdgePattern();
  request.target = 0;  // the triangle
  QueryResult result = service.Execute(request);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.matched_graphs, std::vector<GraphId>{0});
}

TEST(QueryServiceTest, IsomorphicRedrawHitsCache) {
  GraphDatabase db = MakeDatabase();
  QueryService service(db, QueryServiceOptions{2, 32, 64, 4, {}});

  QueryRequest first;
  first.pattern = EdgePattern();
  QueryResult miss = service.Execute(first);
  ASSERT_TRUE(miss.status.ok());
  EXPECT_FALSE(miss.from_cache);

  // The same query drawn "the other way round": vertex 0 labeled 1.
  QueryRequest second;
  second.pattern.AddVertex(1);
  second.pattern.AddVertex(0);
  second.pattern.AddEdge(0, 1);
  QueryResult hit = service.Execute(second);
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(hit.embedding_count, miss.embedding_count);

  ServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(QueryServiceTest, ExpiredDeadlineBeforeExecution) {
  GraphDatabase db = MakeDatabase();
  QueryService service(db, QueryServiceOptions{1, 8, 0, 1, {}});

  QueryRequest request;
  request.pattern = EdgePattern();
  // Any queueing/dispatch delay exceeds a nanosecond-scale deadline.
  request.deadline_ms = 1e-9;
  QueryResult result = service.Execute(request);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.Snapshot().deadline_exceeded, 1u);
}

TEST(QueryServiceTest, DeadlineCutsOffHeavyMatch) {
  GraphDatabase db = MakeDenseTarget();
  QueryService service(db, QueryServiceOptions{1, 8, 0, 1, {}});

  QueryRequest request;
  request.pattern = HeavyStarPattern();
  request.max_embeddings = 0;  // unlimited: forces full enumeration
  request.deadline_ms = 25;
  Stopwatch timer;
  QueryResult result = service.Execute(request);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  // Cooperative slicing: overshoot is bounded (generous margin for CI).
  EXPECT_LT(timer.ElapsedMillis(), 5000.0);
}

// /query accepts an edge labelled kDummyLabel. The canonical code encodes an
// edge as its label + 1, which wraps to the value of a missing edge, so such
// a pattern must still not share a cache key with the pattern that lacks the
// edge: each answers as a cache-0 service does.
TEST(QueryServiceTest, DummyLabelledEdgesDoNotShareACacheKey) {
  GraphDatabase db = MakeDatabase();
  QueryService cached(db, QueryServiceOptions{1, 8, 64, 1, {}});
  QueryService uncached(db, QueryServiceOptions{1, 8, 0, 1, {}});
  Graph isolated;
  for (Label label : {0, 1, 2}) isolated.AddVertex(label);
  Graph triangle = isolated;
  triangle.AddEdge(0, 1, kDummyLabel);
  triangle.AddEdge(1, 2, kDummyLabel);
  triangle.AddEdge(0, 2, kDummyLabel);
  std::vector<uint64_t> counts;
  for (const Graph& pattern : {triangle, isolated}) {
    QueryRequest request;
    request.pattern = pattern;
    QueryResult got = cached.Execute(request);
    QueryResult want = uncached.Execute(request);
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    ASSERT_TRUE(want.status.ok()) << want.status.ToString();
    EXPECT_FALSE(got.from_cache);
    EXPECT_EQ(got.embedding_count, want.embedding_count);
    EXPECT_EQ(got.matched_graphs, want.matched_graphs);
    counts.push_back(want.embedding_count);
  }
  // No edge of the database carries kDummyLabel; the triangle graph holds
  // the three labels once.
  EXPECT_EQ(counts, (std::vector<uint64_t>{0, 1}));
}

TEST(QueryServiceTest, DeadlineExceededResultsAreNotCached) {
  GraphDatabase db = MakeDenseTarget();
  QueryService service(db, QueryServiceOptions{1, 8, 64, 1, {}});

  QueryRequest request;
  request.pattern = HeavyStarPattern();
  request.max_embeddings = 0;
  request.deadline_ms = 10;
  EXPECT_EQ(service.Execute(request).status.code(),
            StatusCode::kDeadlineExceeded);
  // Re-issuing must compute again (and fail again), not hit a cached error.
  EXPECT_EQ(service.Execute(request).status.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.Snapshot().cache_hits, 0u);
}

TEST(QueryServiceTest, SuggestRanksContinuations) {
  GraphDatabase db = MakeDatabase();
  QueryService service(db, QueryServiceOptions{1, 8, 16, 1, {}});

  QueryRequest request;
  request.kind = QueryKind::kSuggest;
  request.pattern = EdgePattern();
  request.focus = 0;  // a vertex labeled 0
  request.top_k = 3;
  QueryResult result = service.Execute(request);
  ASSERT_TRUE(result.status.ok());
  ASSERT_FALSE(result.suggestions.empty());
  for (const EdgeSuggestion& s : result.suggestions) {
    EXPECT_EQ(s.from_label, 0u);
    EXPECT_GT(s.support, 0u);
  }
  for (size_t i = 1; i < result.suggestions.size(); ++i) {
    EXPECT_GE(result.suggestions[i - 1].support, result.suggestions[i].support);
  }

  // Suggestion results are cached by focus label.
  EXPECT_TRUE(service.Execute(request).from_cache);
}

TEST(QueryServiceTest, AdmissionValidation) {
  GraphDatabase db = MakeDatabase();
  QueryService service(db, QueryServiceOptions{1, 8, 16, 1, {}});

  QueryRequest empty;
  EXPECT_EQ(service.Execute(empty).status.code(),
            StatusCode::kInvalidArgument);

  QueryRequest unknown;
  unknown.pattern = EdgePattern();
  unknown.target = 999;
  EXPECT_EQ(service.Execute(unknown).status.code(), StatusCode::kNotFound);

  QueryRequest bad_focus;
  bad_focus.kind = QueryKind::kSuggest;
  bad_focus.pattern = EdgePattern();
  bad_focus.focus = 99;
  EXPECT_EQ(service.Execute(bad_focus).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryServiceTest, BurstAgainstTinyQueueShedsLoad) {
  GraphDatabase db = MakeDenseTarget();
  QueryServiceOptions options{1, 2, 0, 1, {}};
  // Raw queue backpressure is the subject here: with coalescing on, the
  // duplicate bursts would park as waiters instead of overflowing the
  // queue (that interplay is covered by coalesce_test).
  options.enable_coalescing = false;
  QueryService service(db, options);

  // Each heavy request occupies the single worker for ~its deadline, so a
  // rapid burst of 10 must overflow the 2-slot queue.
  std::vector<std::future<QueryResult>> futures;
  size_t rejected = 0;
  for (int i = 0; i < 10; ++i) {
    QueryRequest request;
    request.pattern = HeavyStarPattern();
    request.max_embeddings = 0;
    request.deadline_ms = 50;
    auto submitted = service.Submit(std::move(request));
    if (submitted.ok()) {
      futures.push_back(std::move(submitted).value());
    } else {
      EXPECT_EQ(submitted.status().code(), StatusCode::kUnavailable);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status.code(), StatusCode::kDeadlineExceeded);
  }
  ServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.admitted + stats.rejected, 10u);
  EXPECT_EQ(stats.completed, stats.admitted);
}

// A submission the service refuses, for a full queue or by priority, and a
// client's retry of it, count no cache miss: the cache could not have served
// it. An admitted miss counts two probes, at admission and at dequeue.
TEST(QueryServiceTest, RefusedSubmissionsCountNoCacheMiss) {
  resilience::FaultPlan plan;
  plan.seed = 41;
  plan.At(resilience::FaultPoint::kExecutor).latency_p = 1.0;
  plan.At(resilience::FaultPoint::kExecutor).latency_ms = 200.0;
  resilience::FaultInjector injector(plan);

  GraphDatabase db = MakeDatabase();
  QueryServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 2;
  options.shed_high_water = 0.5;  // background sheds at depth 1
  options.enable_coalescing = false;
  options.fault_injector = &injector;
  QueryService service(db, options);

  // Single-edge patterns with distinct endpoint labels: every key misses.
  auto request = [](Label a, Label b, RequestPriority priority) {
    QueryRequest r;
    r.pattern.AddVertex(a);
    r.pattern.AddVertex(b);
    r.pattern.AddEdge(0, 1);
    r.priority = priority;
    return r;
  };
  std::vector<std::future<QueryResult>> futures;
  auto admit = [&](QueryRequest r) {
    auto submitted = service.Submit(std::move(r));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted).value());
  };

  // The first request's two probes mark the worker as dequeued and stalled
  // in the executor fault, which freezes the queue for 200 ms.
  admit(request(0, 1, RequestPriority::kInteractive));
  for (int i = 0; i < 2000 && service.Snapshot().cache_misses < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.Snapshot().cache_misses, 2u);
  admit(request(0, 2, RequestPriority::kInteractive));  // depth 1
  EXPECT_EQ(service.Snapshot().cache_misses, 3u);

  auto shed = service.Submit(request(1, 2, RequestPriority::kBackground));
  ASSERT_FALSE(shed.ok());
  EXPECT_NE(shed.status().message().find("load shed"), std::string::npos);
  EXPECT_EQ(service.Snapshot().cache_misses, 3u);

  admit(request(0, 0, RequestPriority::kInteractive));  // depth 2: full
  EXPECT_EQ(service.Snapshot().cache_misses, 4u);
  for (int attempt = 0; attempt < 3; ++attempt) {  // a client retrying
    auto full = service.Submit(request(1, 1, RequestPriority::kInteractive));
    ASSERT_FALSE(full.ok());
    EXPECT_EQ(full.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(service.Snapshot().cache_misses, 4u);
  }

  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  const ServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.rejected, 4u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 2 * stats.admitted);
  uint64_t exported = 0;
  for (size_t i = 0; i < options.cache_shards; ++i) {
    exported += service.metrics()
                    .GetCounter("vqi_cache_misses_total", "",
                                {{"cache_shard", std::to_string(i)}})
                    .Value();
  }
  EXPECT_EQ(exported, stats.cache_misses);
}

TEST(QueryServiceTest, InvalidateCacheForcesRecompute) {
  GraphDatabase db = MakeDatabase();
  QueryService service(db, QueryServiceOptions{2, 32, 64, 4, {}});

  QueryRequest request;
  request.pattern = EdgePattern();
  ASSERT_TRUE(service.Execute(request).status.ok());
  EXPECT_TRUE(service.Execute(request).from_cache);

  service.InvalidateCache();
  // Every entry was dropped, so the next lookup recomputes...
  QueryResult recomputed = service.Execute(request);
  ASSERT_TRUE(recomputed.status.ok());
  EXPECT_FALSE(recomputed.from_cache);
  // ...and the cache fills normally again.
  EXPECT_TRUE(service.Execute(request).from_cache);
  EXPECT_EQ(service.metrics()
                .GetCounter("vqi_cache_invalidations_total")
                .Value(),
            1u);
}

// Re-adds graph `id` unchanged: the remove + add a maintainer edit makes,
// which moves the graph's content version and the collection's Version().
void ReAddUnchanged(GraphDatabase& db, GraphId id) {
  Graph copy = db.Get(id);
  ASSERT_TRUE(db.Remove(id));
  ASSERT_EQ(db.Add(std::move(copy)), id);
}

TEST(QueryServiceTest, GraphEditMissesOnlyDependentEntries) {
  GraphDatabase db = MakeDatabase();
  QueryService service(db, QueryServiceOptions{2, 32, 64, 4, {}});

  // Cache one single-target result per graph plus a whole-collection result.
  auto target_request = [](GraphId target) {
    QueryRequest request;
    request.pattern = EdgePattern();
    request.target = target;
    return request;
  };
  QueryRequest all_graphs;
  all_graphs.pattern = EdgePattern();
  const QueryResult first = service.Execute(all_graphs);
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(service.Execute(target_request(0)).status.ok());
  ASSERT_TRUE(service.Execute(target_request(1)).status.ok());
  ASSERT_TRUE(service.Execute(target_request(0)).from_cache);
  ASSERT_TRUE(service.Execute(target_request(1)).from_cache);
  ASSERT_TRUE(service.Execute(all_graphs).from_cache);

  ReAddUnchanged(db, 0);

  // Entries that read graph 0 recompute; graph 1's entry still hits.
  EXPECT_FALSE(service.Execute(target_request(0)).from_cache);
  QueryResult recomputed = service.Execute(all_graphs);
  EXPECT_FALSE(recomputed.from_cache);
  EXPECT_EQ(recomputed.embedding_count, first.embedding_count);
  EXPECT_TRUE(service.Execute(target_request(1)).from_cache);
  // And the new versions cache normally again.
  EXPECT_TRUE(service.Execute(target_request(0)).from_cache);
  EXPECT_TRUE(service.Execute(all_graphs).from_cache);
  // Nobody invalidated anything: the edit alone rerouted the lookups.
  EXPECT_EQ(service.metrics()
                .GetCounter("vqi_cache_invalidations_total")
                .Value(),
            0u);
}

TEST(QueryServiceTest, TargetSetMatchesExactlyThoseGraphs) {
  GraphDatabase db = MakeDatabase();
  QueryService service(db, QueryServiceOptions{2, 32, 64, 4, {}});

  auto collection_request = [](std::vector<GraphId> targets) {
    QueryRequest request;
    request.pattern = EdgePattern();
    request.targets = std::move(targets);
    return request;
  };

  // EdgePattern (labels 0-1) matches the triangle and the path, never the
  // all-zero square, so the target set controls exactly what is counted.
  QueryResult both = service.Execute(collection_request({0, 1}));
  ASSERT_TRUE(both.status.ok());
  EXPECT_EQ(both.matched_graphs, (std::vector<GraphId>{0, 1}));
  QueryResult with_square = service.Execute(collection_request({0, 2}));
  ASSERT_TRUE(with_square.status.ok());
  EXPECT_EQ(with_square.matched_graphs, std::vector<GraphId>{0});
  EXPECT_LT(with_square.embedding_count, both.embedding_count);

  // Admission normalizes the set: unordered duplicates are the same query
  // and hit the {0,1} entry cached above.
  QueryResult normalized = service.Execute(collection_request({1, 0, 0, 1}));
  ASSERT_TRUE(normalized.status.ok());
  EXPECT_TRUE(normalized.from_cache);
  EXPECT_EQ(normalized.embedding_count, both.embedding_count);

  // Every member of the set is validated up front.
  EXPECT_EQ(service.Execute(collection_request({0, 999})).status.code(),
            StatusCode::kNotFound);
}

TEST(QueryServiceTest, GraphEditMissesOnlyTargetSetsContainingGraph) {
  GraphDatabase db = MakeDatabase();
  QueryService service(db, QueryServiceOptions{2, 32, 64, 4, {}});

  auto collection_request = [](std::vector<GraphId> targets) {
    QueryRequest request;
    request.pattern = EdgePattern();
    request.targets = std::move(targets);
    return request;
  };
  ASSERT_TRUE(service.Execute(collection_request({0, 1})).status.ok());
  ASSERT_TRUE(service.Execute(collection_request({1, 2})).status.ok());
  ASSERT_TRUE(service.Execute(collection_request({0, 1})).from_cache);
  ASSERT_TRUE(service.Execute(collection_request({1, 2})).from_cache);

  ReAddUnchanged(db, 0);

  // Only the set containing graph 0 recomputes; {1,2} is keyed by versions
  // of graphs the edit never touched.
  EXPECT_FALSE(service.Execute(collection_request({0, 1})).from_cache);
  EXPECT_TRUE(service.Execute(collection_request({1, 2})).from_cache);
  // And the refreshed entry caches normally under the new version.
  EXPECT_TRUE(service.Execute(collection_request({0, 1})).from_cache);
}

TEST(QueryServiceTest, MaintainerBatchReroutesCachedCounts) {
  GraphDatabase db = gen::MoleculeDatabase(50, gen::MoleculeConfig{}, 45);
  CatapultConfig config;
  config.budget = 4;
  config.num_clusters = 4;
  config.tree_config.min_support = 4;
  config.walks_per_csg = 16;
  config.use_closed_trees = true;
  auto built = BuildVqiForDatabase(db, config);
  ASSERT_TRUE(built.ok());
  VisualQueryInterface vqi = std::move(built->vqi);

  MidasConfig midas;
  midas.base = config;
  midas.drift_threshold = 0.0;
  VqiMaintainer maintainer(std::move(built->catapult_state), midas);

  // No batch listener: freshness must not depend on anyone calling back.
  QueryService service(db, QueryServiceOptions{2, 32, 64, 4, {}});

  // Cache a count against the pre-batch database.
  QueryRequest request;
  request.pattern = EdgePattern();
  QueryResult before = service.Execute(request);
  ASSERT_TRUE(before.status.ok());
  ASSERT_TRUE(service.Execute(request).from_cache);

  // The batch adds and deletes graphs, so the cached count is stale.
  BatchUpdate update;
  Rng rng(46);
  for (int i = 0; i < 8; ++i) {
    update.additions.push_back(gen::Molecule(gen::MoleculeConfig{}, rng));
  }
  update.deletions = {0, 1, 2};
  auto report = maintainer.ApplyBatch(vqi, db, std::move(update));
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The batch moved the collection's Version(), so the next identical query
  // recomputes against the post-batch database instead of serving the stale
  // cached count, and agrees with a fresh service.
  QueryResult after = service.Execute(request);
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.from_cache);
  QueryService fresh(db);
  QueryResult expected = fresh.Execute(request);
  ASSERT_TRUE(expected.status.ok());
  EXPECT_EQ(after.embedding_count, expected.embedding_count);
  EXPECT_EQ(after.matched_graphs, expected.matched_graphs);
}

TEST(QueryServiceTest, MaintainerBatchRebuildsOwnerGraphMatchIndex) {
  // End-to-end index invalidation: a maintainer batch that rewrites one
  // graph's edge set (delete + re-add under the same id) must force the
  // match-index layer to rebuild that graph's index — a stale-index answer
  // is impossible because the service's view follows the database's
  // Version() and rebuilds every id whose content version moved, the same
  // versions the result cache is keyed by.
  GraphDatabase db = gen::MoleculeDatabase(40, gen::MoleculeConfig{}, 45);
  // Deterministic extra member: P4, all labels 0 — the (0,0) edge pattern
  // embeds 3 edges x 2 orientations = 6 ways.
  Graph member;
  for (int i = 0; i < 4; ++i) member.AddVertex(0);
  member.AddEdge(0, 1, 0);
  member.AddEdge(1, 2, 0);
  member.AddEdge(2, 3, 0);
  GraphId member_id = db.Add(std::move(member));

  CatapultConfig config;
  config.budget = 4;
  config.num_clusters = 4;
  config.tree_config.min_support = 4;
  config.walks_per_csg = 16;
  config.use_closed_trees = true;
  auto built = BuildVqiForDatabase(db, config);
  ASSERT_TRUE(built.ok());
  VisualQueryInterface vqi = std::move(built->vqi);

  MidasConfig midas;
  midas.base = config;
  midas.drift_threshold = 0.0;
  VqiMaintainer maintainer(std::move(built->catapult_state), midas);

  QueryService service(db);

  QueryRequest request;
  request.pattern.AddVertex(0);
  request.pattern.AddVertex(0);
  request.pattern.AddEdge(0, 1, 0);
  request.target = member_id;
  QueryResult before = service.Execute(request);
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(before.embedding_count, 6u);
  ASSERT_TRUE(service.Execute(request).from_cache);
  const uint64_t builds_before = service.Snapshot().index_builds;
  // The first request indexes the whole collection, whatever its target.
  EXPECT_EQ(builds_before, db.size());

  // The batch rewrites the member's edges under the same id: 1-2 goes away,
  // 0-2 and 0-3 appear (4 edges -> 8 embeddings).
  Graph rewritten = db.Get(member_id);
  ASSERT_TRUE(rewritten.RemoveEdge(1, 2));
  ASSERT_TRUE(rewritten.AddEdge(0, 2, 0));
  ASSERT_TRUE(rewritten.AddEdge(0, 3, 0));
  BatchUpdate update;
  update.deletions = {member_id};
  update.additions.push_back(std::move(rewritten));
  auto report = maintainer.ApplyBatch(vqi, db, std::move(update));
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  QueryResult after = service.Execute(request);
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.from_cache);
  EXPECT_EQ(after.embedding_count, 8u);
  // Post-batch results must equal a fresh service over the updated database.
  QueryService fresh(db);
  QueryResult expected = fresh.Execute(request);
  ASSERT_TRUE(expected.status.ok());
  EXPECT_EQ(after.embedding_count, expected.embedding_count);
  EXPECT_EQ(after.matched_graphs, expected.matched_graphs);
  // Exactly one rebuild: the rewritten graph's index, nothing else.
  EXPECT_EQ(service.Snapshot().index_builds, builds_before + 1);
}

TEST(QueryServiceTest, ConcurrentColdRequestsBuildEachIndexOnce) {
  // Requests that reach a fresh service together share one build of the
  // collection's view: every graph is indexed once, and after a rewrite only
  // the rewritten graph is indexed again.
  GraphDatabase db = gen::MoleculeDatabase(240, gen::MoleculeConfig{}, 23);
  QueryServiceOptions options;
  options.num_threads = 4;
  QueryService service(db, options);
  // Eight distinct whole-collection patterns (carbon paths of 1-8 edges),
  // all submitted before any is awaited.
  auto submit_together = [&service] {
    std::vector<std::future<QueryResult>> futures;
    for (size_t edges = 1; edges <= 8; ++edges) {
      QueryRequest request;
      request.pattern = builder::Path(edges + 1);
      request.target = kAllGraphs;
      auto submitted = service.Submit(std::move(request));
      ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
      futures.push_back(std::move(submitted).value());
    }
    for (std::future<QueryResult>& future : futures) {
      EXPECT_TRUE(future.get().status.ok());
    }
  };
  submit_together();
  EXPECT_EQ(service.Snapshot().index_builds, db.size());

  const GraphId rewritten = db.graphs()[7].id();
  Graph copy = db.Get(rewritten);
  ASSERT_TRUE(db.Remove(rewritten));
  db.Add(std::move(copy));
  submit_together();
  EXPECT_EQ(service.Snapshot().index_builds, db.size() + 1);
}

// What a response says, without how it was served (cache, coalescing, steps,
// latency): the part a fresh service over the same data must reproduce.
using SuggestionRow = std::tuple<Label, Label, Label, size_t>;
using ResponseContent = std::tuple<StatusCode, uint64_t, std::vector<GraphId>,
                                   std::vector<SuggestionRow>>;

ResponseContent ContentOf(const QueryResult& result) {
  std::vector<SuggestionRow> suggestions;
  for (const EdgeSuggestion& s : result.suggestions) {
    suggestions.emplace_back(s.from_label, s.edge_label, s.to_label, s.support);
  }
  return {result.status.code(), result.embedding_count, result.matched_graphs,
          suggestions};
}

TEST(QueryServiceTest, SuggestionsFollowDatabaseEdits) {
  GraphDatabase db = MakeDatabase();
  QueryService service(db, QueryServiceOptions{1, 8, 16, 1, {}});

  QueryRequest request;
  request.kind = QueryKind::kSuggest;
  request.pattern = EdgePattern();
  request.focus = 0;    // a vertex labeled 0
  request.top_k = 16;   // every continuation, so no tie is cut
  ASSERT_TRUE(service.Execute(request).status.ok());
  ASSERT_TRUE(service.Execute(request).from_cache);

  // One new graph carries a (0, 7, 5) triple no earlier graph has.
  Graph added;
  added.AddVertex(0);
  added.AddVertex(5);
  added.AddEdge(0, 1, 7);
  db.Add(std::move(added));

  QueryResult served = service.Execute(request);
  ASSERT_TRUE(served.status.ok());
  EXPECT_FALSE(served.from_cache);
  QueryService fresh(db);
  QueryResult expected = fresh.Execute(request);
  ASSERT_TRUE(expected.status.ok());
  EXPECT_EQ(ContentOf(served), ContentOf(expected));
  const std::vector<SuggestionRow> rows = std::get<3>(ContentOf(served));
  const SuggestionRow new_triple{0, 7, 5, 1};
  EXPECT_NE(std::find(rows.begin(), rows.end(), new_triple), rows.end());
}

// Freshness with no batch listener and no invalidation call: waves of
// concurrent, duplicate-heavy requests (whole collection, single target,
// target set, suggest) with the cache and coalescing on, and a maintainer
// batch between waves. Every response must equal a fresh service over the
// current database with no cache and no coalescing, and ids a batch deleted
// must answer kNotFound. Runs under the tsan preset.
TEST(QueryServiceTest, ConcurrentWavesStayFreshAcrossBatchesWithoutListeners) {
  GraphDatabase db = gen::MoleculeDatabase(30, gen::MoleculeConfig{}, 51);
  CatapultConfig config;
  config.budget = 4;
  config.num_clusters = 4;
  config.tree_config.min_support = 4;
  config.walks_per_csg = 16;
  config.use_closed_trees = true;
  auto built = BuildVqiForDatabase(db, config);
  ASSERT_TRUE(built.ok());
  VisualQueryInterface vqi = std::move(built->vqi);
  MidasConfig midas;
  midas.base = config;
  midas.drift_threshold = 0.0;
  VqiMaintainer maintainer(std::move(built->catapult_state), midas);

  QueryServiceOptions options;
  options.num_threads = 4;
  options.cache_capacity = 256;
  options.enable_coalescing = true;
  QueryService service(db, options);
  QueryServiceOptions plain;
  plain.num_threads = 1;
  plain.cache_capacity = 0;
  plain.enable_coalescing = false;

  // A carbon-carbon single bond (the most common edge) and a carbon-atom-1
  // bond.
  Graph cc;
  cc.AddVertex(0);
  cc.AddVertex(0);
  cc.AddEdge(0, 1, 0);
  Graph c1;
  c1.AddVertex(0);
  c1.AddVertex(1);
  c1.AddEdge(0, 1, 0);

  Rng rng(52);
  std::vector<GraphId> deleted;  // by the batch before the current wave
  ResponseContent previous_all;
  for (int wave = 0; wave < 4; ++wave) {
    const std::vector<GraphId> ids = db.Ids();
    std::vector<QueryRequest> distinct;
    for (const Graph* pattern : {&cc, &c1}) {
      QueryRequest all;
      all.pattern = *pattern;
      distinct.push_back(all);
    }
    for (GraphId id : {ids[0], ids[1], ids[ids.size() / 2]}) {
      QueryRequest single;
      single.pattern = cc;
      single.target = id;
      distinct.push_back(single);
    }
    QueryRequest set;
    set.pattern = c1;
    set.targets = {ids.back(), ids[0], ids[2]};
    distinct.push_back(set);
    QueryRequest suggest;
    suggest.kind = QueryKind::kSuggest;
    suggest.pattern = c1;
    suggest.focus = 0;
    suggest.top_k = 32;
    distinct.push_back(suggest);
    const size_t live = distinct.size();
    for (GraphId id : deleted) {
      QueryRequest single;
      single.pattern = cc;
      single.target = id;
      distinct.push_back(single);
      QueryRequest with_deleted;
      with_deleted.pattern = cc;
      with_deleted.targets = {ids[0], id};
      distinct.push_back(with_deleted);
    }

    QueryService reference(db, plain);
    std::vector<ResponseContent> expected;
    for (const QueryRequest& request : distinct) {
      expected.push_back(ContentOf(reference.Execute(request)));
    }
    for (size_t i = 0; i < distinct.size(); ++i) {
      EXPECT_EQ(std::get<0>(expected[i]),
                i < live ? StatusCode::kOk : StatusCode::kNotFound)
          << "wave " << wave << " request " << i;
    }
    // The batches change the whole-collection answer, so a stale cache
    // would be caught.
    if (wave > 0) {
      EXPECT_NE(expected[0], previous_all) << "wave " << wave;
    }
    previous_all = expected[0];

    // Every thread walks the same list three times: duplicates collide in
    // flight (coalescing) and later rounds hit the cache.
    constexpr int kThreads = 4;
    constexpr int kRounds = 3;
    std::vector<std::vector<std::pair<size_t, QueryResult>>> responses(
        kThreads);
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t] {
        for (int round = 0; round < kRounds; ++round) {
          for (size_t i = 0; i < distinct.size(); ++i) {
            responses[t].emplace_back(i, service.Execute(distinct[i]));
          }
        }
      });
    }
    for (auto& client : clients) client.join();
    for (const auto& per_thread : responses) {
      for (const auto& [i, response] : per_thread) {
        EXPECT_EQ(ContentOf(response), expected[i])
            << "wave " << wave << " request " << i;
      }
    }

    // The next batch deletes two graphs, rewrites one under its id (a new
    // pendant carbon on vertex 0) and adds three molecules.
    if (wave == 3) break;
    BatchUpdate update;
    deleted = {ids[1], ids[3]};
    update.deletions = {ids[0], ids[1], ids[3]};
    Graph rewritten = db.Get(ids[0]);
    const VertexId pendant = rewritten.AddVertex(0);
    ASSERT_TRUE(rewritten.AddEdge(0, pendant, 0));
    update.additions.push_back(std::move(rewritten));
    for (int i = 0; i < 3; ++i) {
      update.additions.push_back(gen::Molecule(gen::MoleculeConfig{}, rng));
    }
    auto report = maintainer.ApplyBatch(vqi, db, std::move(update));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
  const ServiceStats stats = service.Snapshot();
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_EQ(service.metrics()
                .GetCounter("vqi_cache_invalidations_total")
                .Value(),
            0u);
}

TEST(ShardedRouterTest, ShardIndexesStayConsistentAcrossRewrite) {
  // The sharded path of the same story. Shards copy their slices at
  // construction, so index and data can never disagree inside a shard.
  // Assert (a) the scatter indexes every member exactly once, and (b) after
  // a collection-level rewrite, a router over the updated database agrees
  // exactly with a fresh unsharded service.
  GraphDatabase db;
  Graph p4;
  for (int i = 0; i < 4; ++i) p4.AddVertex(0);
  p4.AddEdge(0, 1, 0);
  p4.AddEdge(1, 2, 0);
  p4.AddEdge(2, 3, 0);
  GraphId victim = db.Add(std::move(p4));
  Graph triangle;
  for (int i = 0; i < 3; ++i) triangle.AddVertex(0);
  triangle.AddEdge(0, 1, 0);
  triangle.AddEdge(1, 2, 0);
  triangle.AddEdge(0, 2, 0);
  db.Add(std::move(triangle));
  Graph square;
  for (int i = 0; i < 4; ++i) square.AddVertex(0);
  square.AddEdge(0, 1, 0);
  square.AddEdge(1, 2, 0);
  square.AddEdge(2, 3, 0);
  square.AddEdge(0, 3, 0);
  db.Add(std::move(square));
  Graph star;
  for (int i = 0; i < 4; ++i) star.AddVertex(0);
  star.AddEdge(0, 1, 0);
  star.AddEdge(0, 2, 0);
  star.AddEdge(0, 3, 0);
  db.Add(std::move(star));

  shard::ShardedRouterOptions options;
  options.num_shards = 2;
  options.shard_options = QueryServiceOptions{2, 32, 64, 4, {}};
  shard::ShardedRouter router(db, options);

  QueryRequest request;
  request.pattern.AddVertex(0);
  request.pattern.AddVertex(0);
  request.pattern.AddEdge(0, 1, 0);
  request.target = kAllGraphs;
  QueryResult before = router.Execute(request);
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(before.embedding_count, 26u);  // 6 + 6 + 8 + 6
  auto total_builds = [&router] {
    uint64_t total = 0;
    for (size_t i = 0; i < router.num_shards(); ++i) {
      total += router.shard(i).Snapshot().index_builds;
    }
    return total;
  };
  // Every member got indexed exactly once on the scatter, and the router's
  // aggregate counts the same builds as the per-shard sum.
  EXPECT_EQ(total_builds(), db.size());
  EXPECT_EQ(router.AggregateSnapshot().index_builds, total_builds());

  // Collection-level rewrite of the victim (the maintainer's delete +
  // re-add path), then a router over the updated collection: results must
  // match a fresh unsharded service exactly, and must differ from the
  // pre-rewrite answer (a stale answer cannot survive reconstruction).
  Graph rewritten = db.Get(victim);
  ASSERT_TRUE(rewritten.RemoveEdge(1, 2));
  ASSERT_TRUE(rewritten.AddEdge(0, 2, 0));
  ASSERT_TRUE(rewritten.AddEdge(0, 3, 0));
  ASSERT_TRUE(db.Remove(victim));
  db.Add(std::move(rewritten));

  shard::ShardedRouter updated(db, options);
  QueryResult after = updated.Execute(request);
  ASSERT_TRUE(after.status.ok());
  QueryService fresh(db);
  QueryResult expected = fresh.Execute(request);
  ASSERT_TRUE(expected.status.ok());
  EXPECT_EQ(after.embedding_count, expected.embedding_count);
  EXPECT_EQ(after.embedding_count, 28u);
  EXPECT_NE(after.embedding_count, before.embedding_count);
  std::vector<GraphId> merged = after.matched_graphs;
  std::vector<GraphId> reference = expected.matched_graphs;
  std::sort(merged.begin(), merged.end());
  std::sort(reference.begin(), reference.end());
  EXPECT_EQ(merged, reference);
}

TEST(QueryServiceTest, MetricsAndTracesCoverRequestLifecycle) {
  GraphDatabase db = MakeDatabase();
  QueryService service(db, QueryServiceOptions{2, 32, 64, 4, {}, 8});

  QueryRequest request;
  request.pattern = EdgePattern();
  QueryResult miss = service.Execute(request);
  ASSERT_TRUE(miss.status.ok());
  EXPECT_GT(miss.match_steps, 0u);
  EXPECT_GT(miss.match_slices, 0u);
  QueryResult hit = service.Execute(request);
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(hit.match_steps, 0u);  // no matcher work on a cache hit

  // Counters reflect the two requests.
  obs::MetricsRegistry& metrics = service.metrics();
  EXPECT_EQ(metrics.GetCounter("vqi_requests_admitted_total").Value(), 2u);
  EXPECT_EQ(metrics.GetCounter("vqi_requests_completed_total").Value(), 2u);
  EXPECT_EQ(metrics.GetCounter("vqi_match_steps_total").Value(),
            miss.match_steps);
  EXPECT_EQ(metrics
                .GetHistogram("vqi_request_latency_ms", "",
                              obs::Histogram::DefaultLatencyBoundsMs())
                .Count(),
            2u);

  // Both requests left traces with the expected stage breakdown.
  std::vector<obs::RequestTrace> traces = service.traces().Recent();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].kind, "match");
  EXPECT_EQ(traces[0].status, "OK");
  EXPECT_FALSE(traces[0].from_cache);
  EXPECT_GT(traces[0].StageMs("execute"), 0.0);
  EXPECT_TRUE(traces[1].from_cache);
  EXPECT_EQ(traces[1].match_steps, 0u);

  // The exposition contains the service's key series.
  std::string text = obs::ToPrometheusText(metrics);
  EXPECT_NE(text.find("vqi_pool_queue_wait_ms_bucket"), std::string::npos);
  EXPECT_NE(text.find("vqi_cache_hits_total{cache_shard="), std::string::npos);
  EXPECT_NE(text.find("vqi_request_latency_ms_count 2"), std::string::npos);
}

TEST(QueryServiceTest, SnapshotPercentilesComeFromHistogram) {
  GraphDatabase db = MakeDatabase();
  QueryService service(db, QueryServiceOptions{1, 8, 0, 1, {}});
  for (int i = 0; i < 20; ++i) {
    QueryRequest request;
    request.pattern = EdgePattern();
    ASSERT_TRUE(service.Execute(request).status.ok());
  }
  ServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.completed, 20u);
  EXPECT_GT(stats.p50_latency_ms, 0.0);
  EXPECT_GE(stats.p99_latency_ms, stats.p50_latency_ms);
}

TEST(QueryServiceTest, StressMixedRequestsAllFuturesResolve) {
  GraphDatabase db = MakeDatabase();
  QueryService service(db, QueryServiceOptions{4, 64, 128, 8, {}});

  constexpr int kThreads = 8;
  constexpr int kPerThread = 125;  // 1000 total
  std::atomic<uint64_t> resolved{0};
  std::atomic<uint64_t> rejected{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([t, &service, &resolved, &rejected] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryRequest request;
        int variant = (t * kPerThread + i) % 4;
        if (variant == 3) {
          request.kind = QueryKind::kSuggest;
          request.pattern = EdgePattern();
          request.focus = static_cast<VertexId>(i % 2);
          request.top_k = 1 + static_cast<size_t>(i % 4);
        } else {
          request.pattern = EdgePattern();
          if (variant == 1) request.target = i % 3;
          if (variant == 2) request.deadline_ms = (i % 2 == 0) ? 1e-9 : 50.0;
        }
        auto submitted = service.Submit(std::move(request));
        if (!submitted.ok()) {
          ++rejected;
          continue;
        }
        QueryResult result = submitted.value().get();
        EXPECT_TRUE(result.status.ok() ||
                    result.status.code() == StatusCode::kDeadlineExceeded)
            << result.status.ToString();
        ++resolved;
      }
    });
  }
  for (auto& c : clients) c.join();

  EXPECT_EQ(resolved.load() + rejected.load(), 1000u);
  ServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.admitted, resolved.load());
  EXPECT_EQ(stats.completed, resolved.load());
  EXPECT_EQ(stats.rejected, rejected.load());
  EXPECT_GE(stats.p99_latency_ms, stats.p50_latency_ms);
}

}  // namespace
}  // namespace vqi
