// Tests for the sharded serving layer: deterministic shard maps, routing
// correctness against a single-service ground truth, scatter-gather merge
// under deadlines, blast-radius containment when one shard goes dark, hedged
// requests, and R-way replication (replica-aware failover, cross-replica
// hedging, health-gated balancing). Every test fixes seeds (database
// generation and fault injection), so the suite is deterministic and safe
// under TSan/ASan.

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "service/query_service.h"
#include "service/resilience/circuit_breaker.h"
#include "service/resilience/fault_injector.h"
#include "service/resilience/service_client.h"
#include "shard/shard_map.h"
#include "shard/sharded_router.h"

namespace vqi {
namespace {

using resilience::BreakerState;
using resilience::FaultDecision;
using resilience::FaultInjector;
using resilience::FaultPlan;
using resilience::FaultPoint;
using shard::ShardedRouter;
using shard::ShardedRouterOptions;
using shard::ShardMap;
using shard::ShardPlacement;

GraphDatabase MakeMolecules(size_t count) {
  return gen::MoleculeDatabase(count, gen::MoleculeConfig{}, /*seed=*/7);
}

Graph SingleVertexPattern(Label label) {
  Graph pattern;
  pattern.AddVertex(label);
  return pattern;
}

Graph EdgePattern(Label from, Label to) {
  Graph pattern;
  pattern.AddVertex(from);
  pattern.AddVertex(to);
  pattern.AddEdge(0, 1);
  return pattern;
}

QueryRequest MatchAll(const Graph& pattern) {
  QueryRequest request;
  request.pattern = pattern;
  request.max_embeddings = 100000;
  return request;
}

// Suggestions compared as a support map, not a ranked list: the single
// service and the merge may order equal-support ties differently.
std::map<std::tuple<Label, Label, Label>, size_t> SupportMap(
    const std::vector<EdgeSuggestion>& suggestions) {
  std::map<std::tuple<Label, Label, Label>, size_t> support;
  for (const EdgeSuggestion& s : suggestions) {
    support[{s.from_label, s.edge_label, s.to_label}] += s.support;
  }
  return support;
}

// ---------------------------------------------------------------------------
// ShardMap

TEST(ShardMapTest, RoundRobinCoversEveryGraphDeterministically) {
  GraphDatabase db = MakeMolecules(23);
  ShardMap map(db, 4, ShardPlacement::kRoundRobin);
  ShardMap again(db, 4, ShardPlacement::kRoundRobin);
  EXPECT_EQ(map.num_shards(), 4u);
  EXPECT_EQ(map.size(), db.size());
  size_t members = 0;
  for (size_t i = 0; i < map.num_shards(); ++i) {
    for (GraphId id : map.Members(i)) {
      EXPECT_EQ(map.OwnerOf(id), i);
      EXPECT_EQ(again.OwnerOf(id), i);
      ++members;
    }
    // Round-robin balances by count: shard sizes differ by at most one.
    EXPECT_LE(map.Members(i).size(), (db.size() + 3) / 4);
  }
  EXPECT_EQ(members, db.size());
  EXPECT_EQ(map.OwnerOf(999999), ShardMap::kNoShard);
}

TEST(ShardMapTest, HashPlacementDependsOnlyOnTheGraphId) {
  GraphDatabase db = MakeMolecules(23);
  ShardMap map(db, 3, ShardPlacement::kHashId);
  // Rebuild a database holding the same ids; owners must not change even
  // though this database has fewer graphs in a different dense order.
  GraphDatabase partial;
  for (GraphId id : {GraphId{20}, GraphId{3}, GraphId{11}}) {
    partial.Add(db.Get(id));
  }
  ShardMap remap(partial, 3, ShardPlacement::kHashId);
  for (GraphId id : {GraphId{20}, GraphId{3}, GraphId{11}}) {
    EXPECT_EQ(map.OwnerOf(id), remap.OwnerOf(id)) << "graph " << id;
  }
}

// ---------------------------------------------------------------------------
// Routing correctness vs a single-service ground truth

TEST(ShardedRouterTest, AllGraphsMatchIsIdenticalToSingleService) {
  GraphDatabase db = MakeMolecules(24);
  QueryService reference(db, QueryServiceOptions{});
  for (size_t shards : {2u, 3u, 5u}) {
    ShardedRouterOptions options;
    options.num_shards = shards;
    ShardedRouter router(db, options);
    for (const Graph& pattern :
         {SingleVertexPattern(0), SingleVertexPattern(1), EdgePattern(0, 1),
          EdgePattern(1, 1)}) {
      QueryResult expected = reference.Execute(MatchAll(pattern));
      QueryResult merged = router.Execute(MatchAll(pattern));
      ASSERT_TRUE(merged.status.ok()) << merged.status.ToString();
      EXPECT_EQ(merged.embedding_count, expected.embedding_count);
      // Sequential ids in dense order: the reference's matched list is
      // already ascending, so the sorted merge must be byte-identical.
      EXPECT_EQ(merged.matched_graphs, expected.matched_graphs);
      EXPECT_FALSE(merged.truncated);
    }
  }
}

TEST(ShardedRouterTest, ExplicitTargetsReachOnlyOwningShards) {
  GraphDatabase db = MakeMolecules(24);
  QueryService reference(db, QueryServiceOptions{});
  ShardedRouterOptions options;
  options.num_shards = 3;
  ShardedRouter router(db, options);
  const Graph pattern = SingleVertexPattern(0);

  // Single explicit target: resolved by exactly one shard, the owner.
  QueryRequest one = MatchAll(pattern);
  one.target = 4;
  QueryResult expected = reference.Execute(one);
  QueryResult routed = router.Execute(one);
  ASSERT_TRUE(routed.status.ok());
  EXPECT_EQ(routed.embedding_count, expected.embedding_count);
  EXPECT_EQ(routed.matched_graphs, expected.matched_graphs);
  router.Shutdown();  // drain leg bookkeeping so tallies are exact
  shard::RouterStats stats = router.Snapshot();
  const size_t owner = router.shard_map().OwnerOf(4);
  for (size_t i = 0; i < stats.shards.size(); ++i) {
    EXPECT_EQ(stats.shards[i].requests, i == owner ? 1u : 0u) << "shard " << i;
  }
  EXPECT_EQ(stats.fanouts, 0u);
}

TEST(ShardedRouterTest, TargetSetsSpanningShardsMergeLikeSingleService) {
  GraphDatabase db = MakeMolecules(24);
  QueryService reference(db, QueryServiceOptions{});
  ShardedRouterOptions options;
  options.num_shards = 4;
  ShardedRouter router(db, options);
  QueryRequest request = MatchAll(EdgePattern(0, 1));
  request.targets = {2, 5, 9, 14, 21};  // spans several round-robin shards
  QueryResult expected = reference.Execute(request);
  QueryResult merged = router.Execute(request);
  ASSERT_TRUE(merged.status.ok());
  EXPECT_EQ(merged.embedding_count, expected.embedding_count);
  std::vector<GraphId> expected_sorted = expected.matched_graphs;
  std::sort(expected_sorted.begin(), expected_sorted.end());
  EXPECT_EQ(merged.matched_graphs, expected_sorted);
}

TEST(ShardedRouterTest, SuggestSumsSupportAcrossShards) {
  GraphDatabase db = MakeMolecules(24);
  QueryService reference(db, QueryServiceOptions{});
  ShardedRouterOptions options;
  options.num_shards = 3;
  ShardedRouter router(db, options);
  QueryRequest request;
  request.kind = QueryKind::kSuggest;
  request.pattern = SingleVertexPattern(0);
  request.focus = 0;
  // Generous top_k: no shard truncates its local ranking, so the merged
  // supports are exact global counts and must match the single service.
  request.top_k = 64;
  QueryResult expected = reference.Execute(request);
  QueryResult merged = router.Execute(request);
  ASSERT_TRUE(expected.status.ok());
  ASSERT_TRUE(merged.status.ok());
  EXPECT_FALSE(merged.suggestions.empty());
  EXPECT_EQ(SupportMap(merged.suggestions), SupportMap(expected.suggestions));
}

TEST(ShardedRouterTest, UnknownTargetIsNotFound) {
  GraphDatabase db = MakeMolecules(6);
  ShardedRouter router(db, ShardedRouterOptions{});
  QueryRequest request = MatchAll(SingleVertexPattern(0));
  request.target = 12345;
  EXPECT_EQ(router.Execute(request).status.code(), StatusCode::kNotFound);
  QueryRequest set = MatchAll(SingleVertexPattern(0));
  set.targets = {0, 12345};
  EXPECT_EQ(router.Execute(set).status.code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Scatter-gather under deadlines and a dark shard

// One shard stalls far past the request deadline; the gather merges without
// it. With allow_partial the healthy shards' subset comes back OK+truncated;
// without it the deadline failure propagates.
TEST(ShardedRouterTest, GatherDeadlineYieldsPartialFromHealthyShards) {
  GraphDatabase db = MakeMolecules(12);
  FaultPlan plan;
  plan.seed = 5;
  plan.At(FaultPoint::kVf2Slice).latency_p = 1.0;
  plan.At(FaultPoint::kVf2Slice).latency_ms = 300;
  FaultInjector injector(plan);
  ShardedRouterOptions options;
  options.num_shards = 3;
  options.chaos_injector = &injector;
  options.chaos_shard = 1;
  options.gather_slack_ms = 25;
  ShardedRouter router(db, options);

  QueryRequest partial = MatchAll(SingleVertexPattern(0));
  partial.deadline_ms = 40;
  partial.allow_partial = true;
  QueryResult merged = router.Execute(partial);
  ASSERT_TRUE(merged.status.ok()) << merged.status.ToString();
  EXPECT_TRUE(merged.truncated);
  // The healthy shards' members all contain label 0 (molecule generator
  // always emits carbons); the dark shard's slice is missing.
  for (GraphId id : merged.matched_graphs) {
    EXPECT_NE(router.shard_map().OwnerOf(id), 1u) << "graph " << id;
  }
  EXPECT_FALSE(merged.matched_graphs.empty());

  QueryRequest strict = MatchAll(SingleVertexPattern(0));
  strict.deadline_ms = 40;
  QueryResult failed = router.Execute(strict);
  EXPECT_EQ(failed.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(failed.truncated);

  router.Shutdown();
  shard::RouterStats stats = router.Snapshot();
  EXPECT_GE(stats.gather_timeouts, 1u);
  EXPECT_GE(stats.partials, 2u);
  EXPECT_EQ(stats.shards[0].errors, 0u);
  EXPECT_EQ(stats.shards[2].errors, 0u);
  EXPECT_GE(stats.shards[1].errors, 2u);
}

// Regression: pool submissions must happen with the gather lock released.
// With a one-thread / one-slot fan-out pool most primary legs are refused
// admission; before the fix those submits ran under GatherState::mutex, so
// a saturated pool stalled the gather thread while the one worker that
// could drain it was itself waiting to re-enter that mutex.
TEST(ShardedRouterTest, RouterSurvivesSaturatedFanoutPool) {
  GraphDatabase db = MakeMolecules(16);
  FaultPlan plan;
  plan.seed = 7;
  // Pin the single worker for a while so admission rejections are
  // deterministic: at most two legs fit (one running, one queued).
  plan.At(FaultPoint::kVf2Slice).latency_p = 1.0;
  plan.At(FaultPoint::kVf2Slice).latency_ms = 50;
  FaultInjector injector(plan);
  ShardedRouterOptions options;
  options.num_shards = 4;
  options.router_threads = 1;
  options.router_queue = 1;
  options.shard_options.fault_injector = &injector;
  ShardedRouter router(db, options);

  QueryRequest request = MatchAll(SingleVertexPattern(0));
  request.allow_partial = true;
  QueryResult merged = router.Execute(request);
  ASSERT_TRUE(merged.status.ok()) << merged.status.ToString();
  EXPECT_TRUE(merged.truncated);
  // The first leg is always admitted, so its shard's slice is present.
  EXPECT_FALSE(merged.matched_graphs.empty());

  router.Shutdown();
  shard::RouterStats stats = router.Snapshot();
  uint64_t errors = 0;
  for (const shard::RouterShardStats& s : stats.shards) errors += s.errors;
  // At least two of the four legs were refused admission outright.
  EXPECT_GE(errors, 2u);
}

// A shard failing 100% of requests opens its own breaker and costs its slice
// of the collection — the other shards' breakers stay closed and their
// results keep flowing.
TEST(ShardedRouterTest, DarkShardOpensOnlyItsOwnBreaker) {
  GraphDatabase db = MakeMolecules(12);
  FaultPlan plan;
  plan.seed = 3;
  plan.At(FaultPoint::kExecutor).error_p = 1.0;
  plan.At(FaultPoint::kExecutor).error_code = StatusCode::kUnavailable;
  FaultInjector injector(plan);
  ShardedRouterOptions options;
  options.num_shards = 3;
  options.chaos_injector = &injector;
  options.chaos_shard = 2;
  options.client_options.sleep_on_backoff = false;
  options.client_options.breaker.min_samples = 4;
  ShardedRouter router(db, options);

  size_t ok_partials = 0;
  for (int i = 0; i < 10; ++i) {
    QueryRequest request = MatchAll(SingleVertexPattern(0));
    request.allow_partial = true;
    QueryResult merged = router.Execute(request);
    if (merged.status.ok()) {
      EXPECT_TRUE(merged.truncated);
      for (GraphId id : merged.matched_graphs) {
        EXPECT_NE(router.shard_map().OwnerOf(id), 2u);
      }
      ++ok_partials;
    }
  }
  // Graceful degradation held for the healthy slices...
  EXPECT_GT(ok_partials, 0u);
  // ...and the blast radius stayed contained: only the dark shard's breaker
  // opened.
  EXPECT_EQ(router.client(2).breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(router.client(0).breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(router.client(1).breaker_state(), BreakerState::kClosed);
  router.Shutdown();
  shard::RouterStats stats = router.Snapshot();
  EXPECT_EQ(stats.shards[0].errors, 0u);
  EXPECT_EQ(stats.shards[1].errors, 0u);
  EXPECT_GE(stats.shards[2].errors, 10u);
}

// ---------------------------------------------------------------------------
// Hedged requests

// Seed-searched injector: the first vf2_slice decision stalls (the primary
// leg) and the next few are clean (the hedge leg), so the hedge reliably
// finishes first and wins the leg.
TEST(ShardedRouterTest, HedgeFiresAndWinsAgainstAStalledPrimary) {
  FaultPlan plan;
  plan.At(FaultPoint::kVf2Slice).latency_p = 0.5;
  plan.At(FaultPoint::kVf2Slice).latency_ms = 400;
  uint64_t seed = 0;
  bool found = false;
  for (uint64_t candidate = 1; candidate < 512 && !found; ++candidate) {
    plan.seed = candidate;
    FaultInjector trial(plan);
    FaultDecision first = trial.Decide(FaultPoint::kVf2Slice);
    if (first.latency_ms == 0) continue;
    bool clean_tail = true;
    for (int i = 0; i < 6; ++i) {
      if (!trial.Decide(FaultPoint::kVf2Slice).ok()) clean_tail = false;
    }
    if (clean_tail) {
      seed = candidate;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no seed gives stall-then-clean in 512 tries";

  GraphDatabase db = MakeMolecules(3);
  plan.seed = seed;
  FaultInjector injector(plan);
  ShardedRouterOptions options;
  options.num_shards = 1;
  options.chaos_injector = &injector;
  options.chaos_shard = 0;
  options.hedge_ms = 75;  // floor fires long before the 400ms stall resolves
  ShardedRouter router(db, options);

  QueryRequest request = MatchAll(SingleVertexPattern(0));
  request.deadline_ms = 5000;  // slice path (where vf2_slice draws), no expiry
  QueryResult merged = router.Execute(request);
  ASSERT_TRUE(merged.status.ok()) << merged.status.ToString();
  EXPECT_FALSE(merged.truncated);
  // The hedge won well before the primary's 400ms stall ended.
  EXPECT_LT(merged.latency_ms, 390.0);

  router.Shutdown();
  shard::RouterStats stats = router.Snapshot();
  EXPECT_EQ(stats.hedges_fired, 1u);
  EXPECT_EQ(stats.hedges_won, 1u);
  EXPECT_EQ(stats.hedges_denied, 0u);
}

// ---------------------------------------------------------------------------
// R-way replication

TEST(ShardMapTest, ReplicaSetsAreDeterministicAndClamped) {
  GraphDatabase db = MakeMolecules(10);
  ShardMap map(db, 3, ShardPlacement::kRoundRobin, 2);
  ShardMap again(db, 3, ShardPlacement::kRoundRobin, 2);
  EXPECT_EQ(map.num_replicas(), 2u);
  for (const Graph& graph : db.graphs()) {
    ShardMap::ReplicaSet set = map.ReplicasOf(graph.id());
    EXPECT_EQ(set.shard, map.OwnerOf(graph.id()));
    EXPECT_EQ(set.shard, again.ReplicasOf(graph.id()).shard);
    EXPECT_EQ(set.replicas, (std::vector<size_t>{0, 1}));
  }
  ShardMap::ReplicaSet unknown = map.ReplicasOf(999999);
  EXPECT_EQ(unknown.shard, ShardMap::kNoShard);
  EXPECT_TRUE(unknown.replicas.empty());
  // R clamps into [1, 64] — the router tracks replica sets in a 64-bit mask.
  EXPECT_EQ(ShardMap(db, 2, ShardPlacement::kRoundRobin, 0).num_replicas(),
            1u);
  EXPECT_EQ(ShardMap(db, 2, ShardPlacement::kRoundRobin, 900).num_replicas(),
            64u);
}

// A replicated fleet must answer exactly like the unreplicated reference, and
// at idle the deterministic tiebreak routes every pick to replica 0.
TEST(ReplicatedRouterTest, ReplicatedFleetMatchesSingleService) {
  GraphDatabase db = MakeMolecules(24);
  QueryService reference(db, QueryServiceOptions{});
  ShardedRouterOptions options;
  options.num_shards = 2;
  options.num_replicas = 2;
  ShardedRouter router(db, options);
  EXPECT_EQ(router.num_replicas(), 2u);
  for (const Graph& pattern :
       {SingleVertexPattern(0), EdgePattern(0, 1), EdgePattern(1, 1)}) {
    QueryResult expected = reference.Execute(MatchAll(pattern));
    QueryResult merged = router.Execute(MatchAll(pattern));
    ASSERT_TRUE(merged.status.ok()) << merged.status.ToString();
    EXPECT_EQ(merged.embedding_count, expected.embedding_count);
    EXPECT_EQ(merged.matched_graphs, expected.matched_graphs);
  }
  router.Shutdown();
  shard::RouterStats stats = router.Snapshot();
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(stats.replica_picks[i][0], 3u) << "shard " << i;
    EXPECT_EQ(stats.replica_picks[i][1], 0u) << "shard " << i;
  }
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.all_replicas_down, 0u);
}

// The E19 headline: one replica of one shard fails 100% of requests, and the
// fleet loses NOTHING — every request fails over to the healthy sibling, so
// results stay complete (no partials) and only the dark replica's breaker
// opens.
TEST(ReplicatedRouterTest, DarkReplicaFailsOverWithZeroAvailabilityLoss) {
  GraphDatabase db = MakeMolecules(12);
  FaultPlan plan;
  plan.seed = 3;
  plan.At(FaultPoint::kExecutor).error_p = 1.0;
  plan.At(FaultPoint::kExecutor).error_code = StatusCode::kUnavailable;
  FaultInjector injector(plan);
  ShardedRouterOptions options;
  options.num_shards = 2;
  options.num_replicas = 2;
  options.chaos_injector = &injector;
  options.chaos_shard = 1;
  options.chaos_replica = 0;
  options.client_options.sleep_on_backoff = false;
  options.client_options.breaker.min_samples = 4;
  ShardedRouter router(db, options);

  for (int i = 0; i < 10; ++i) {
    // Strict requests, no allow_partial: with replication there is nothing
    // to degrade — the sibling replica serves the dark replica's slice.
    QueryResult merged = router.Execute(MatchAll(SingleVertexPattern(0)));
    ASSERT_TRUE(merged.status.ok()) << "request " << i << ": "
                                    << merged.status.ToString();
    EXPECT_FALSE(merged.truncated) << "request " << i;
  }
  // Blast radius: only the dark replica's breaker opened.
  EXPECT_EQ(router.client(1, 0).breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(router.client(1, 1).breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(router.client(0, 0).breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(router.client(0, 1).breaker_state(), BreakerState::kClosed);
  router.Shutdown();
  shard::RouterStats stats = router.Snapshot();
  EXPECT_GT(stats.failovers, 0u);
  EXPECT_EQ(stats.all_replicas_down, 0u);
  EXPECT_EQ(stats.partials, 0u);
  // The sibling absorbed shard 1's reads once the dark replica was skipped
  // at dispatch.
  EXPECT_EQ(stats.replica_picks[1][1], 10u);
  EXPECT_GT(stats.replica_errors[1][0], 0u);
  EXPECT_EQ(stats.replica_errors[1][1], 0u);
  // The legs themselves never erred — failover resolved them all OK.
  EXPECT_EQ(stats.shards[1].errors, 0u);
}

// A slow (not failing) replica: the primary leg lands on the stalled replica
// and the hedge goes to its healthy sibling, which answers long before the
// stall resolves. No seed search needed — only replica (0,0) carries the
// injector, so the sibling is deterministically clean.
TEST(ReplicatedRouterTest, CrossReplicaHedgeRescuesASlowReplica) {
  GraphDatabase db = MakeMolecules(3);
  FaultPlan plan;
  plan.seed = 5;
  plan.At(FaultPoint::kVf2Slice).latency_p = 1.0;
  plan.At(FaultPoint::kVf2Slice).latency_ms = 400;
  FaultInjector injector(plan);
  ShardedRouterOptions options;
  options.num_shards = 1;
  options.num_replicas = 2;
  options.chaos_injector = &injector;
  options.chaos_shard = 0;
  options.chaos_replica = 0;
  options.hedge_ms = 75;
  ShardedRouter router(db, options);

  QueryRequest request = MatchAll(SingleVertexPattern(0));
  request.deadline_ms = 5000;  // slice path (where vf2_slice draws), no expiry
  QueryResult merged = router.Execute(request);
  ASSERT_TRUE(merged.status.ok()) << merged.status.ToString();
  EXPECT_FALSE(merged.truncated);
  // The cross-replica hedge won well before the primary's 400ms stall ended.
  EXPECT_LT(merged.latency_ms, 390.0);

  router.Shutdown();
  shard::RouterStats stats = router.Snapshot();
  EXPECT_EQ(stats.hedges_fired, 1u);
  EXPECT_EQ(stats.hedges_won, 1u);
  EXPECT_EQ(stats.cross_hedges_fired, 1u);
  EXPECT_EQ(stats.cross_hedges_won, 1u);
  EXPECT_EQ(stats.replica_picks[0][1], 1u);  // the hedge's sibling dispatch
}

// Fleet-wide failure: when EVERY replica of a shard is breaker-open the
// router still dispatches (the breaker fast-fails) but counts the
// all-replicas-down event — the signal that replication has run out of
// copies and the shard's slice is genuinely gone.
TEST(ReplicatedRouterTest, AllReplicasDownIsCountedAndFails) {
  GraphDatabase db = MakeMolecules(8);
  FaultPlan plan;
  plan.seed = 9;
  plan.At(FaultPoint::kExecutor).error_p = 1.0;
  plan.At(FaultPoint::kExecutor).error_code = StatusCode::kUnavailable;
  FaultInjector injector(plan);
  ShardedRouterOptions options;
  options.num_shards = 1;
  options.num_replicas = 2;
  // Fleet-wide chaos: every replica is built with the injector, so no
  // sibling is healthy and failover has nowhere to go.
  options.shard_options.fault_injector = &injector;
  options.client_options.sleep_on_backoff = false;
  options.client_options.breaker.min_samples = 4;
  ShardedRouter router(db, options);

  QueryResult last;
  for (int i = 0; i < 12; ++i) {
    last = router.Execute(MatchAll(SingleVertexPattern(0)));
    EXPECT_FALSE(last.status.ok()) << "request " << i;
  }
  router.Shutdown();
  shard::RouterStats stats = router.Snapshot();
  EXPECT_GE(stats.all_replicas_down, 1u);
  EXPECT_GT(stats.replica_errors[0][0], 0u);
  EXPECT_GT(stats.replica_errors[0][1], 0u);
}

// ---------------------------------------------------------------------------
// Merge severity and gather-timeout accounting

// Two shards fail differently in one gather: shard 0 answers kInternal (the
// chaos injector replaces the fleet-wide stall there) and shard 1 stalls
// past the gather deadline (kDeadlineExceeded). A strict merge must surface
// the most severe failure — internal — with the owning shard named, and the
// abandoned leg must tick vqi_router_gather_timeout_total.
TEST(ShardedRouterTest, MergeSurfacesMostSevereFailureAcrossShards) {
  GraphDatabase db = MakeMolecules(12);
  FaultPlan stall_plan;
  stall_plan.seed = 5;
  stall_plan.At(FaultPoint::kVf2Slice).latency_p = 1.0;
  stall_plan.At(FaultPoint::kVf2Slice).latency_ms = 300;
  FaultInjector stall(stall_plan);
  FaultPlan error_plan;
  error_plan.seed = 5;
  error_plan.At(FaultPoint::kExecutor).error_p = 1.0;
  error_plan.At(FaultPoint::kExecutor).error_code = StatusCode::kInternal;
  FaultInjector internal_error(error_plan);
  ShardedRouterOptions options;
  options.num_shards = 2;
  options.shard_options.fault_injector = &stall;  // fleet-wide stall...
  options.chaos_injector = &internal_error;       // ...replaced on shard 0
  options.chaos_shard = 0;
  options.gather_slack_ms = 25;
  options.client_options.sleep_on_backoff = false;
  ShardedRouter router(db, options);

  QueryRequest strict = MatchAll(SingleVertexPattern(0));
  strict.deadline_ms = 40;
  QueryResult merged = router.Execute(strict);
  EXPECT_EQ(merged.status.code(), StatusCode::kInternal)
      << merged.status.ToString();
  EXPECT_NE(merged.status.message().find("shard 0"), std::string::npos)
      << merged.status.ToString();
  router.Shutdown();
  shard::RouterStats stats = router.Snapshot();
  EXPECT_GE(stats.gather_timeouts, 1u);
  EXPECT_GE(stats.shards[1].errors, 1u);
}

// ---------------------------------------------------------------------------
// Legs started on the caller's thread

// Every deterministic counter of the fleet in one line: the router's, every
// client's and every replica's. Latency percentiles are left out.
std::string FleetTally(ShardedRouter& router) {
  shard::RouterStats stats = router.Snapshot();
  std::string out = "router requests=" + std::to_string(stats.requests) +
                    " fanouts=" + std::to_string(stats.fanouts) +
                    " failovers=" + std::to_string(stats.failovers) +
                    " all_down=" + std::to_string(stats.all_replicas_down) +
                    " partials=" + std::to_string(stats.partials) +
                    " hedges=" + std::to_string(stats.hedges_fired) +
                    " timeouts=" + std::to_string(stats.gather_timeouts);
  for (size_t i = 0; i < router.num_shards(); ++i) {
    out += "\nshard" + std::to_string(i) +
           " requests=" + std::to_string(stats.shards[i].requests) +
           " errors=" + std::to_string(stats.shards[i].errors);
    for (size_t r = 0; r < router.num_replicas(); ++r) {
      const resilience::ClientStats c = router.client(i, r).stats();
      const ServiceStats v = router.shard(i, r).Snapshot();
      out += "\n  replica" + std::to_string(r) +
             " picks=" + std::to_string(stats.replica_picks[i][r]) +
             " errors=" + std::to_string(stats.replica_errors[i][r]) +
             " | client requests=" + std::to_string(c.requests) +
             " attempts=" + std::to_string(c.attempts) +
             " retries=" + std::to_string(c.retries) +
             " ok=" + std::to_string(c.ok) +
             " failed=" + std::to_string(c.failed) +
             " denied=" + std::to_string(c.budget_denied) +
             " rejected=" + std::to_string(c.breaker_rejected) +
             " | service admitted=" + std::to_string(v.admitted) +
             " completed=" + std::to_string(v.completed) +
             " rejected=" + std::to_string(v.rejected) +
             " hits=" + std::to_string(v.cache_hits) +
             " misses=" + std::to_string(v.cache_misses) +
             " backend=" + std::to_string(v.backend_executions) +
             " leaders=" + std::to_string(v.coalesce_leaders) +
             " waiters=" + std::to_string(v.coalesce_waiters) +
             " index_builds=" + std::to_string(v.index_builds);
    }
  }
  return out;
}

uint64_t RouterPoolTasks(ShardedRouter& router) {
  return router.metrics()
      .GetCounter("vqi_pool_tasks_executed_total", "", {{"pool", "router"}})
      .Value();
}

std::vector<Graph> PanelPatterns() {
  return {SingleVertexPattern(0), SingleVertexPattern(1), EdgePattern(0, 1),
          EdgePattern(1, 1)};
}

// Each replica (i, 0) is warmed directly with the exact sub-request the
// router sends it, so the routed sequence below is all cache hits: every leg
// resolves on the caller and the fan-out pool runs no task. The tally was
// pinned from the build that ran every leg on the pool; moving legs onto the
// caller must not change a single count.
// Pinned from the build that ran every leg on the fan-out pool. A miss
// counts two cache misses (the admission and the dequeue probe).
const char* const kPinnedAllHit =
    "router requests=12 fanouts=12 failovers=0 all_down=0 partials=0 "
    "hedges=0 timeouts=0\n"
    "shard0 requests=12 errors=0\n"
    "  replica0 picks=12 errors=0 | client requests=12 attempts=12 "
    "retries=0 ok=12 failed=0 denied=0 rejected=0 | service admitted=16 "
    "completed=16 rejected=0 hits=12 misses=8 backend=4 leaders=4 waiters=0 "
    "index_builds=12\n"
    "  replica1 picks=0 errors=0 | client requests=0 attempts=0 retries=0 "
    "ok=0 failed=0 denied=0 rejected=0 | service admitted=0 completed=0 "
    "rejected=0 hits=0 misses=0 backend=0 leaders=0 waiters=0 "
    "index_builds=0\n"
    "shard1 requests=12 errors=0\n"
    "  replica0 picks=12 errors=0 | client requests=12 attempts=12 "
    "retries=0 ok=12 failed=0 denied=0 rejected=0 | service admitted=16 "
    "completed=16 rejected=0 hits=12 misses=8 backend=4 leaders=4 waiters=0 "
    "index_builds=12\n"
    "  replica1 picks=0 errors=0 | client requests=0 attempts=0 retries=0 "
    "ok=0 failed=0 denied=0 rejected=0 | service admitted=0 completed=0 "
    "rejected=0 hits=0 misses=0 backend=0 leaders=0 waiters=0 "
    "index_builds=0";

// Replica (0, 0) fails its first two legs after 4 attempts each (8 samples
// open its breaker); both fail over to (0, 1), and the other 14 picks skip
// the open breaker, each counted as a failover.
const char* const kPinnedFailover =
    "router requests=16 fanouts=16 failovers=16 all_down=0 partials=0 "
    "hedges=0 timeouts=0\n"
    "shard0 requests=16 errors=0\n"
    "  replica0 picks=2 errors=2 | client requests=2 attempts=8 retries=6 "
    "ok=0 failed=2 denied=0 rejected=0 | service admitted=8 completed=8 "
    "rejected=0 hits=0 misses=16 backend=0 leaders=8 waiters=0 "
    "index_builds=0\n"
    "  replica1 picks=16 errors=0 | client requests=16 attempts=16 "
    "retries=0 ok=16 failed=0 denied=0 rejected=0 | service admitted=16 "
    "completed=16 rejected=0 hits=12 misses=8 backend=4 leaders=4 waiters=0 "
    "index_builds=12\n"
    "shard1 requests=16 errors=0\n"
    "  replica0 picks=16 errors=0 | client requests=16 attempts=16 "
    "retries=0 ok=16 failed=0 denied=0 rejected=0 | service admitted=16 "
    "completed=16 rejected=0 hits=12 misses=8 backend=4 leaders=4 waiters=0 "
    "index_builds=12\n"
    "  replica1 picks=0 errors=0 | client requests=0 attempts=0 retries=0 "
    "ok=0 failed=0 denied=0 rejected=0 | service admitted=0 completed=0 "
    "rejected=0 hits=0 misses=0 backend=0 leaders=0 waiters=0 "
    "index_builds=0";

TEST(InlineLegTest, AllHitSequenceRunsNoPoolTaskAndKeepsEveryCount) {
  GraphDatabase db = MakeMolecules(24);
  ShardedRouterOptions options;
  options.num_shards = 2;
  options.num_replicas = 2;
  ShardedRouter router(db, options);
  for (const Graph& pattern : PanelPatterns()) {
    for (size_t i = 0; i < router.num_shards(); ++i) {
      ASSERT_TRUE(router.shard(i, 0).Execute(MatchAll(pattern)).status.ok());
    }
  }
  for (int round = 0; round < 3; ++round) {
    for (const Graph& pattern : PanelPatterns()) {
      QueryResult merged = router.Execute(MatchAll(pattern));
      ASSERT_TRUE(merged.status.ok()) << merged.status.ToString();
      EXPECT_TRUE(merged.from_cache);
    }
  }
  router.Shutdown();
  EXPECT_EQ(RouterPoolTasks(router), 0u);
  EXPECT_EQ(FleetTally(router), kPinnedAllHit);
}

// One leg hits (resolved on the caller), the other misses (finished on the
// pool); the merge must not care which path a leg took.
TEST(InlineLegTest, HitAndMissLegsMergeLikeSingleService) {
  GraphDatabase db = MakeMolecules(24);
  QueryService reference(db, QueryServiceOptions{});
  ShardedRouterOptions options;
  options.num_shards = 2;
  options.num_replicas = 2;
  ShardedRouter router(db, options);
  for (const Graph& pattern : PanelPatterns()) {
    ASSERT_TRUE(router.shard(0, 0).Execute(MatchAll(pattern)).status.ok());
    QueryResult expected = reference.Execute(MatchAll(pattern));
    QueryResult merged = router.Execute(MatchAll(pattern));
    ASSERT_TRUE(merged.status.ok()) << merged.status.ToString();
    EXPECT_EQ(merged.embedding_count, expected.embedding_count);
    EXPECT_EQ(merged.matched_graphs, expected.matched_graphs);
    EXPECT_FALSE(merged.truncated);
    EXPECT_FALSE(merged.from_cache);  // shard 1's leg ran the matcher
  }
  router.Shutdown();
  EXPECT_EQ(router.shard(0, 0).Snapshot().cache_hits, 4u);
  EXPECT_EQ(router.shard(1, 0).Snapshot().backend_executions, 4u);
  EXPECT_LE(RouterPoolTasks(router), 4u);
}

// Replica (0, 0) fails every execution retryably: its first attempt cannot
// resolve inline, so the leg's retries and failover run on the pool. The
// tally was pinned from the build that ran every leg on the pool.
TEST(InlineLegTest, RetryableFirstAttemptFailsOverThroughThePool) {
  GraphDatabase db = MakeMolecules(24);
  FaultPlan plan;
  plan.seed = 11;
  plan.At(FaultPoint::kExecutor).error_p = 1.0;
  FaultInjector injector(plan);
  ShardedRouterOptions options;
  options.num_shards = 2;
  options.num_replicas = 2;
  options.chaos_injector = &injector;
  options.chaos_shard = 0;
  options.chaos_replica = 0;
  options.client_options.sleep_on_backoff = false;
  // Keeps the open breaker open for the whole test, whatever the timing.
  options.client_options.breaker.open_cooldown_ms = 60000;
  ShardedRouter router(db, options);
  for (int round = 0; round < 4; ++round) {
    for (const Graph& pattern : PanelPatterns()) {
      QueryResult merged = router.Execute(MatchAll(pattern));
      ASSERT_TRUE(merged.status.ok()) << merged.status.ToString();
      EXPECT_FALSE(merged.truncated);
    }
  }
  router.Shutdown();
  EXPECT_GE(RouterPoolTasks(router), 1u);
  EXPECT_EQ(FleetTally(router), kPinnedFailover);
}

// A leg the saturated pool refuses resolves kUnavailable, and the attempt it
// had already started is still settled: every client's requests end as ok
// or failed, so no breaker probe is left unrecorded.
TEST(InlineLegTest, RefusedLegSettlesItsStartedAttempt) {
  GraphDatabase db = MakeMolecules(16);
  FaultPlan plan;
  plan.seed = 7;
  plan.At(FaultPoint::kVf2Slice).latency_p = 1.0;
  plan.At(FaultPoint::kVf2Slice).latency_ms = 50;
  FaultInjector injector(plan);
  ShardedRouterOptions options;
  options.num_shards = 4;
  options.router_threads = 1;
  options.router_queue = 1;
  options.shard_options.fault_injector = &injector;
  ShardedRouter router(db, options);
  QueryRequest request = MatchAll(SingleVertexPattern(0));
  request.allow_partial = true;
  QueryResult merged = router.Execute(request);
  ASSERT_TRUE(merged.status.ok()) << merged.status.ToString();
  router.Shutdown();
  for (size_t i = 0; i < router.num_shards(); ++i) {
    const resilience::ClientStats c = router.client(i).stats();
    EXPECT_EQ(c.requests, c.ok + c.failed) << "shard " << i;
  }
}

// ---------------------------------------------------------------------------
// Snapshot under concurrency (it must be safe to call at any time)

TEST(ShardedRouterTest, SnapshotIsSafeDuringConcurrentTraffic) {
  GraphDatabase db = MakeMolecules(8);
  ShardedRouterOptions options;
  options.num_shards = 2;
  options.num_replicas = 2;
  options.hedge_ms = 1;  // exercise the hedge bookkeeping too
  ShardedRouter router(db, options);
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 25;
  std::atomic<bool> done{false};
  std::thread snapshotter([&router, &done] {
    while (!done.load()) {
      shard::RouterStats stats = router.Snapshot();
      // Basic shape invariants while traffic is in flight.
      ASSERT_EQ(stats.replica_picks.size(), 2u);
      ASSERT_EQ(stats.replica_picks[0].size(), 2u);
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&router] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        QueryResult result = router.Execute(MatchAll(SingleVertexPattern(0)));
        ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      }
    });
  }
  for (auto& t : clients) t.join();
  done.store(true);
  snapshotter.join();
  router.Shutdown();
  shard::RouterStats stats = router.Snapshot();
  EXPECT_EQ(stats.requests, uint64_t{kClients} * kRequestsPerClient);
}

// ---------------------------------------------------------------------------
// Shared metrics registry

TEST(ShardedRouterTest, ShardsShareOneRegistryWithoutColliding) {
  GraphDatabase db = MakeMolecules(8);
  ShardedRouterOptions options;
  options.num_shards = 2;
  ShardedRouter router(db, options);
  router.Execute(MatchAll(SingleVertexPattern(0)));
  // Same-named instruments from every shard's pool/cache/service coexist as
  // distinct labeled series in the one registry.
  auto& registry = router.metrics();
  auto& shard0 = registry.GetCounter("vqi_requests_admitted_total", "",
                                     {{"shard", "0"}});
  auto& shard1 = registry.GetCounter("vqi_requests_admitted_total", "",
                                     {{"shard", "1"}});
  EXPECT_NE(&shard0, &shard1);
  EXPECT_EQ(shard0.Value(), 1u);
  EXPECT_EQ(shard1.Value(), 1u);
}

}  // namespace
}  // namespace vqi
