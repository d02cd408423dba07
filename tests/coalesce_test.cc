// Tests for single-flight request coalescing: the burst-equals-sequential
// property (one backend execution, N identical responses), fan-out policy for
// leader errors and partial results, the retry budget on waiter re-execution,
// waiter occupancy under priority shedding, and a many-threads-few-keys
// stress run for the sanitizer presets.
//
// Concurrency is made deterministic with a "gate" request: on a single-worker
// service a heavy deadline-bounded query occupies the worker for its full
// deadline, so everything submitted in that window is attached to the
// in-flight table synchronously before any fan-out can run. Fault sequences
// are pinned by probing a standalone injector for a seed that produces the
// desired decision pattern (per-point streams depend only on the seed and the
// decision index).

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "service/inflight_table.h"
#include "service/query_service.h"
#include "service/resilience/fault_injector.h"

namespace vqi {
namespace {

// Triangle (id 0), labeled path (id 1), square (id 2) — the same small
// collection service_test uses — plus a dense K28 (id 3) that only the gate
// query touches.
GraphDatabase MakeTestDatabase() {
  GraphDatabase db;
  {
    Graph g;  // triangle, labels 0-1-2
    g.AddVertex(0);
    g.AddVertex(1);
    g.AddVertex(2);
    g.AddEdge(0, 1);
    g.AddEdge(1, 2);
    g.AddEdge(0, 2);
    db.Add(std::move(g));
  }
  {
    Graph g;  // path with labels 0-1-0-1
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
  {
    Graph g;  // K28, all label 0: the gate target
    constexpr int kN = 28;
    for (int i = 0; i < kN; ++i) g.AddVertex(0);
    for (int i = 0; i < kN; ++i) {
      for (int j = i + 1; j < kN; ++j) g.AddEdge(i, j);
    }
    db.Add(std::move(g));
  }
  return db;
}

constexpr GraphId kDenseGraph = 3;

Graph EdgePattern() {
  Graph p;
  p.AddVertex(0);
  p.AddVertex(1);
  p.AddEdge(0, 1);
  return p;
}

// ~3e11 embeddings in K28 with unlimited max_embeddings: enumeration always
// outlives any test deadline.
Graph HeavyStarPattern() {
  Graph p;
  VertexId center = p.AddVertex(0);
  for (int i = 0; i < 6; ++i) {
    VertexId leaf = p.AddVertex(0);
    p.AddEdge(center, leaf);
  }
  return p;
}

// Occupies the one worker for the full `deadline_ms` (interactive so no
// shedding interferes; allow_partial so the result is a clean truncated OK).
// Its cache key never collides with the small-pattern bursts.
QueryRequest GateRequest(double deadline_ms) {
  QueryRequest gate;
  gate.pattern = HeavyStarPattern();
  gate.target = kDenseGraph;
  gate.max_embeddings = 0;
  gate.deadline_ms = deadline_ms;
  gate.allow_partial = true;
  gate.priority = RequestPriority::kInteractive;
  return gate;
}

QueryRequest EdgeBurstRequest() {
  QueryRequest request;
  request.pattern = EdgePattern();
  request.target = 0;  // the triangle
  return request;
}

// Sequential ground truth from an un-gated, un-faulted single-thread service.
QueryResult GroundTruth(const GraphDatabase& db, QueryRequest request) {
  QueryServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 8;
  options.cache_capacity = 0;
  QueryService reference(db, options);
  return reference.Execute(std::move(request));
}

uint64_t Counter(QueryService& service, const char* name) {
  return service.metrics().GetCounter(name).Value();
}

// The gate occupies the worker only once it leaves the queue; under CPU
// contention (sanitizers, parallel ctest) the dequeue can lag the Submit,
// and a still-queued gate would inflate the queue-depth term the shedding
// assertions count on.
void WaitForIdleQueue(QueryService& service) {
  obs::Gauge& depth = service.metrics().GetGauge("vqi_pool_queue_depth");
  while (depth.Value() > 0) std::this_thread::yield();
}

TEST(CoalesceTest, BurstEqualsSequentialWithOneBackendExecution) {
  GraphDatabase db = MakeTestDatabase();
  QueryResult expected = GroundTruth(db, EdgeBurstRequest());
  ASSERT_TRUE(expected.status.ok());
  ASSERT_GT(expected.embedding_count, 0u);

  QueryServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 32;
  options.cache_capacity = 0;  // prove coalescing alone collapses the burst
  QueryService service(db, options);

  auto gate = service.Submit(GateRequest(/*deadline_ms=*/400));
  ASSERT_TRUE(gate.ok());

  constexpr int kBurst = 8;
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < kBurst; ++i) {
    auto submitted = service.Submit(EdgeBurstRequest());
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted).value());
  }
  // Attachment happens synchronously in Submit, so with the worker still
  // gated the membership counters are already final.
  ServiceStats mid = service.Snapshot();
  EXPECT_EQ(mid.coalesce_leaders, 2u);  // the gate + the burst leader
  EXPECT_EQ(mid.coalesce_waiters, static_cast<uint64_t>(kBurst - 1));

  int coalesced = 0;
  for (auto& future : futures) {
    QueryResult result = future.get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.embedding_count, expected.embedding_count);
    EXPECT_EQ(result.matched_graphs, expected.matched_graphs);
    EXPECT_FALSE(result.from_cache);  // cache is off
    EXPECT_FALSE(result.truncated);
    if (result.coalesced) ++coalesced;
  }
  EXPECT_EQ(coalesced, kBurst - 1);
  EXPECT_TRUE(gate.value().get().truncated);

  ServiceStats stats = service.Snapshot();
  // Exactly two backend executions total: the gate and the burst leader.
  EXPECT_EQ(stats.backend_executions, 2u);
  EXPECT_EQ(stats.coalesce_fanout, static_cast<uint64_t>(kBurst - 1));
  EXPECT_EQ(stats.completed, stats.admitted);
  // Every fan-out recorded its attach-to-resolve wait.
  EXPECT_EQ(service.metrics()
                .GetHistogram("vqi_coalesce_waiter_wait_ms", "", {})
                .Count(),
            static_cast<uint64_t>(kBurst - 1));
}

TEST(CoalesceTest, DisablingCoalescingExecutesEveryRequest) {
  GraphDatabase db = MakeTestDatabase();
  QueryServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 32;
  options.cache_capacity = 0;
  options.enable_coalescing = false;
  QueryService service(db, options);

  auto gate = service.Submit(GateRequest(/*deadline_ms=*/300));
  ASSERT_TRUE(gate.ok());
  constexpr int kBurst = 4;
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < kBurst; ++i) {
    auto submitted = service.Submit(EdgeBurstRequest());
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  for (auto& future : futures) {
    QueryResult result = future.get();
    ASSERT_TRUE(result.status.ok());
    EXPECT_FALSE(result.coalesced);
  }
  gate.value().get();

  ServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.coalesce_leaders, 0u);
  EXPECT_EQ(stats.coalesce_waiters, 0u);
  // Gate + all four burst requests hit the backend individually.
  EXPECT_EQ(stats.backend_executions, static_cast<uint64_t>(kBurst + 1));
}

// Finds a seed whose kExecutor decision stream is: clean (gate), error
// (leader), then `clean_tail` clean decisions (waiter re-executions).
uint64_t FindExecutorErrorSeed(double error_p, int clean_tail) {
  for (uint64_t seed = 1; seed < 10000; ++seed) {
    resilience::FaultPlan plan;
    plan.seed = seed;
    plan.At(resilience::FaultPoint::kExecutor).error_p = error_p;
    resilience::FaultInjector probe(plan);
    auto decide = [&] {
      return probe.Decide(resilience::FaultPoint::kExecutor);
    };
    if (!decide().status.ok()) continue;  // gate must pass
    if (decide().status.ok()) continue;   // leader must fail
    bool tail_clean = true;
    for (int i = 0; i < clean_tail; ++i) {
      if (!decide().status.ok()) tail_clean = false;
    }
    if (tail_clean) return seed;
  }
  ADD_FAILURE() << "no seed found for executor error pattern";
  return 0;
}

TEST(CoalesceTest, LeaderErrorTriggersBudgetedWaiterReexecution) {
  GraphDatabase db = MakeTestDatabase();
  QueryResult expected = GroundTruth(db, EdgeBurstRequest());
  ASSERT_TRUE(expected.status.ok());

  constexpr int kWaiters = 2;
  resilience::FaultPlan plan;
  plan.seed = FindExecutorErrorSeed(/*error_p=*/0.4, /*clean_tail=*/kWaiters);
  ASSERT_NE(plan.seed, 0u);
  plan.At(resilience::FaultPoint::kExecutor).error_p = 0.4;
  resilience::FaultInjector injector(plan);

  QueryServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 32;
  options.cache_capacity = 0;
  options.fault_injector = &injector;
  QueryService service(db, options);

  auto gate = service.Submit(GateRequest(/*deadline_ms=*/400));
  ASSERT_TRUE(gate.ok());
  std::vector<std::future<QueryResult>> futures;
  auto leader = service.Submit(EdgeBurstRequest());
  ASSERT_TRUE(leader.ok());
  for (int i = 0; i < kWaiters; ++i) {
    auto submitted = service.Submit(EdgeBurstRequest());
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }

  // The leader absorbs the injected executor fault...
  EXPECT_EQ(leader.value().get().status.code(), StatusCode::kUnavailable);
  // ...but must not poison its waiters: each re-executes independently
  // (within the retry budget) and computes the true answer.
  for (auto& future : futures) {
    QueryResult result = future.get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.embedding_count, expected.embedding_count);
    EXPECT_FALSE(result.coalesced);  // resolved by its own execution
  }
  EXPECT_TRUE(gate.value().get().status.ok());

  ServiceStats stats = service.Snapshot();
  // Gate + two re-executions; the faulted leader never reached the backend.
  EXPECT_EQ(stats.backend_executions, 3u);
  EXPECT_EQ(stats.coalesce_fanout, 0u);
  EXPECT_EQ(Counter(service, "vqi_coalesce_reexec_total"), 2u);
  EXPECT_EQ(Counter(service, "vqi_coalesce_reexec_denied_total"), 0u);
}

TEST(CoalesceTest, PartialResultFansOutOnlyToAllowPartialWaiters) {
  GraphDatabase db = MakeTestDatabase();

  QueryServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 32;
  options.cache_capacity = 0;
  QueryService service(db, options);

  auto gate = service.Submit(GateRequest(/*deadline_ms=*/300));
  ASSERT_TRUE(gate.ok());

  // The leader's 100ms deadline expires while the 300ms gate holds the
  // worker, and allow_partial turns that into a truncated OK result.
  QueryRequest leader_request = EdgeBurstRequest();
  leader_request.deadline_ms = 100;
  leader_request.allow_partial = true;
  auto leader = service.Submit(leader_request);
  ASSERT_TRUE(leader.ok());

  QueryRequest tolerant = leader_request;  // identical key, accepts partials
  auto tolerant_future = service.Submit(tolerant);
  ASSERT_TRUE(tolerant_future.ok());

  // Same canonical key: allow_partial is a response preference, not part of
  // the query identity. This waiter must NOT be served the partial.
  QueryRequest strict = leader_request;
  strict.allow_partial = false;
  auto strict_future = service.Submit(strict);
  ASSERT_TRUE(strict_future.ok());

  QueryResult leader_result = leader.value().get();
  ASSERT_TRUE(leader_result.status.ok());
  EXPECT_TRUE(leader_result.truncated);

  QueryResult tolerant_result = tolerant_future.value().get();
  EXPECT_TRUE(tolerant_result.status.ok());
  EXPECT_TRUE(tolerant_result.truncated);
  EXPECT_TRUE(tolerant_result.coalesced);

  // The strict waiter re-executed with its own (expired) deadline.
  QueryResult strict_result = strict_future.value().get();
  EXPECT_EQ(strict_result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(strict_result.truncated);
  gate.value().get();

  ServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.coalesce_fanout, 1u);
  EXPECT_EQ(Counter(service, "vqi_coalesce_reexec_total"), 1u);
}

TEST(CoalesceTest, ExhaustedBudgetPropagatesLeaderOutcome) {
  GraphDatabase db = MakeTestDatabase();

  QueryServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 32;
  options.cache_capacity = 0;
  // No deposits; RetryBudget clamps capacity to one starting token, so the
  // first strict waiter re-executes and the second is denied.
  options.coalesce_retry_ratio = 0.0;
  options.coalesce_retry_capacity = 0.0;
  QueryService service(db, options);

  auto gate = service.Submit(GateRequest(/*deadline_ms=*/300));
  ASSERT_TRUE(gate.ok());

  QueryRequest leader_request = EdgeBurstRequest();
  leader_request.deadline_ms = 100;
  leader_request.allow_partial = true;
  auto leader = service.Submit(leader_request);
  ASSERT_TRUE(leader.ok());

  QueryRequest strict = leader_request;
  strict.allow_partial = false;
  auto first = service.Submit(strict);
  ASSERT_TRUE(first.ok());
  auto second = service.Submit(strict);
  ASSERT_TRUE(second.ok());

  ASSERT_TRUE(leader.value().get().truncated);
  // First strict waiter spent the lone token on a real (failed) re-run.
  QueryResult first_result = first.value().get();
  EXPECT_EQ(first_result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(first_result.truncated);
  // Second was denied: the leader's partial outcome is propagated as a
  // deadline error carrying the partial counts.
  QueryResult second_result = second.value().get();
  EXPECT_EQ(second_result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(second_result.truncated);
  EXPECT_TRUE(second_result.coalesced);
  gate.value().get();

  EXPECT_EQ(Counter(service, "vqi_coalesce_reexec_total"), 1u);
  EXPECT_EQ(Counter(service, "vqi_coalesce_reexec_denied_total"), 1u);
}

TEST(CoalesceTest, WaitersCountAsQueueOccupancyForShedding) {
  GraphDatabase db = MakeTestDatabase();

  QueryServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 8;
  options.cache_capacity = 0;
  options.shed_high_water = 0.5;  // background mark 4, normal mark 6
  QueryService service(db, options);

  auto gate = service.Submit(GateRequest(/*deadline_ms=*/400));
  ASSERT_TRUE(gate.ok());
  WaitForIdleQueue(service);  // the gate must be *running*, not queued

  // Occupancy at submit i is 1 (queued leader) + attached waiters, so the
  // normal-priority mark of 6 admits the leader plus exactly 5 waiters.
  std::vector<std::future<QueryResult>> futures;
  size_t shed = 0;
  for (int i = 0; i < 10; ++i) {
    auto submitted = service.Submit(EdgeBurstRequest());
    if (submitted.ok()) {
      futures.push_back(std::move(submitted).value());
    } else {
      EXPECT_EQ(submitted.status().code(), StatusCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_EQ(futures.size(), 6u);
  EXPECT_EQ(shed, 4u);
  EXPECT_EQ(service.Snapshot().coalesce_waiters, 5u);

  // A non-duplicate background request must also see the waiter-inflated
  // occupancy (6 >= mark 4) — duplicates are cheap to serve but not free to
  // hold.
  QueryRequest background;
  background.pattern = EdgePattern();
  background.target = 1;
  background.priority = RequestPriority::kBackground;
  EXPECT_EQ(service.Submit(std::move(background)).status().code(),
            StatusCode::kUnavailable);

  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  gate.value().get();
  ServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.shed, 5u);
  EXPECT_EQ(stats.coalesce_fanout, 5u);
}

// Sanitizer stress: many submitter threads hammering four keys on a small
// pool. Asserts liveness (every future resolves), correctness of every OK
// answer against sequential ground truth, and the coalescing accounting
// invariants.
TEST(CoalesceStressTest, ManyThreadsFewKeysResolveCorrectly) {
  GraphDatabase db = MakeTestDatabase();

  std::vector<QueryRequest> variants;
  for (GraphId target = 0; target < 3; ++target) {
    QueryRequest request;
    request.pattern = EdgePattern();
    request.target = target;
    variants.push_back(request);
  }
  {
    QueryRequest request;
    request.pattern = EdgePattern();
    request.targets = {0, 1};  // collection-scoped key shape
    variants.push_back(request);
  }
  std::vector<QueryResult> expected;
  for (const QueryRequest& request : variants) {
    expected.push_back(GroundTruth(db, request));
    ASSERT_TRUE(expected.back().status.ok());
  }

  QueryServiceOptions options;
  options.num_threads = 4;
  options.queue_capacity = 256;
  options.cache_capacity = 16;
  options.cache_shards = 2;
  QueryService service(db, options);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 60;
  std::vector<std::thread> threads;
  std::vector<std::vector<std::pair<size_t, std::future<QueryResult>>>>
      results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(/*seed=*/1000 + t);
      for (int i = 0; i < kPerThread; ++i) {
        size_t pick = rng.UniformInt(variants.size());
        auto submitted = service.Submit(variants[pick]);
        if (submitted.ok()) {
          results[t].emplace_back(pick, std::move(submitted).value());
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  size_t resolved = 0;
  for (auto& per_thread : results) {
    for (auto& [pick, future] : per_thread) {
      QueryResult result = future.get();
      ++resolved;
      if (!result.status.ok()) {
        // A completely full queue can abort a coalesced lead or deny a
        // re-execution; the promise must still resolve, as backpressure.
        EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
        continue;
      }
      EXPECT_EQ(result.embedding_count, expected[pick].embedding_count);
      EXPECT_EQ(result.matched_graphs, expected[pick].matched_graphs);
    }
  }
  EXPECT_GT(resolved, 0u);

  ServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_LE(stats.backend_executions, stats.admitted);
  // Each attached waiter resolved through at most one of: fan-out,
  // re-execution, budget denial — or an aborted lead, which is the only path
  // outside these counters.
  EXPECT_LE(stats.coalesce_fanout +
                Counter(service, "vqi_coalesce_reexec_total") +
                Counter(service, "vqi_coalesce_reexec_denied_total"),
            stats.coalesce_waiters);
}

TEST(InflightTableTest, FanoutResolvesWaitersWithTableLockReleased) {
  // The single-flight contract: Complete() hands the parked waiters back to
  // the caller and releases the table mutex BEFORE any waiter promise is
  // resolved. Consumers that wake from a fan-out immediately re-enter the
  // table (a re-executing waiter calls JoinOrLead, then Complete); if
  // fan-out resolved promises while still holding the table mutex, this
  // re-entry would deadlock against it. Runs under the tsan preset.
  InflightTable table;
  InflightWaiter lead;
  ASSERT_EQ(table.JoinOrLead("k", &lead), InflightTable::Role::kLeader);

  constexpr int kWaiters = 8;
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < kWaiters; ++i) {
    InflightWaiter waiter;
    waiter.promise = std::make_shared<std::promise<QueryResult>>();
    futures.push_back(waiter.promise->get_future());
    ASSERT_EQ(table.JoinOrLead("k", &waiter), InflightTable::Role::kWaiter);
  }
  ASSERT_EQ(table.TotalWaiters(), static_cast<size_t>(kWaiters));

  std::atomic<int> reentered{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < kWaiters; ++i) {
    consumers.emplace_back([&table, &futures, &reentered, i] {
      QueryResult result = futures[static_cast<size_t>(i)].get();
      EXPECT_TRUE(result.status.ok());
      // Re-enter the table on wake, as a re-executing waiter would.
      std::string key = "reexec-" + std::to_string(i);
      InflightWaiter reexec;
      if (table.JoinOrLead(key, &reexec) == InflightTable::Role::kLeader) {
        table.Complete(key);
      }
      reentered.fetch_add(1, std::memory_order_relaxed);
    });
  }

  // Leader fan-out: the waiters come back by value with the mutex released,
  // so resolving them can interleave with consumer re-entry freely.
  std::vector<InflightWaiter> waiters = table.Complete("k");
  ASSERT_EQ(waiters.size(), static_cast<size_t>(kWaiters));
  for (InflightWaiter& waiter : waiters) {
    waiter.promise->set_value(QueryResult{});
    // The fan-out thread can keep using the table mid-resolution.
    (void)table.InflightKeys();
  }
  for (auto& consumer : consumers) consumer.join();

  EXPECT_EQ(reentered.load(), kWaiters);
  EXPECT_EQ(table.TotalWaiters(), 0u);
  EXPECT_EQ(table.InflightKeys(), 0u);
}

}  // namespace
}  // namespace vqi
