#ifndef VQLIB_SHARD_SHARDED_ROUTER_H_
#define VQLIB_SHARD_SHARDED_ROUTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "graph/graph.h"
#include "graph/graph_database.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "service/query_types.h"
#include "service/resilience/fault_injector.h"
#include "service/resilience/retry.h"
#include "service/resilience/service_client.h"
#include "service/thread_pool.h"
#include "shard/shard_map.h"

namespace vqi {
namespace shard {

/// Sizing and policy knobs for a ShardedRouter.
struct ShardedRouterOptions {
  /// Number of QueryService shards; clamped to at least 1.
  size_t num_shards = 2;
  /// Replicas of every shard (R-way replication). Each replica is its own
  /// QueryService (own thread pool, cache, coalescing) over the shard's one
  /// read-only slice, behind its own ServiceClient (independent breaker and
  /// retry budget). 1 = unreplicated; clamped to [1, 64]. With R > 1 reads
  /// balance across healthy replicas, hedges and failover retries go to a
  /// sibling replica, and a shard only degrades to a partial when ALL of its
  /// replicas are unavailable.
  size_t num_replicas = 1;
  ShardPlacement placement = ShardPlacement::kRoundRobin;
  /// Template for every replica's QueryService. The router overwrites
  /// `metrics` (the whole fleet shares the router's registry) and
  /// `metric_labels` ({shard="<i>"}, plus replica="<r>" when num_replicas >
  /// 1 — the unreplicated fleet keeps its original label shape); everything
  /// else applies per replica — so e.g. cache_capacity is PER REPLICA, not a
  /// collection-wide budget.
  QueryServiceOptions shard_options;
  /// Template for every replica's resilience::ServiceClient (retry policy,
  /// budget, breaker). The router overwrites `metric_label` with
  /// "shard-<i>" (or "shard-<i>-replica-<r>" when replicated), giving each
  /// replica an independent circuit breaker and retry budget.
  resilience::ServiceClientOptions client_options;
  /// Hedged requests: when a leg has been outstanding longer than
  /// max(hedge_ms, per-shard latency quantile), a budgeted duplicate fires —
  /// against a healthy sibling replica when one exists (true tail-cutting
  /// when a replica, not the data, is slow), else against the same replica —
  /// and the first response wins (the loser is cancelled via max_steps
  /// poisoning — see docs/sharding.md). <= 0 disables hedging.
  double hedge_ms = 0;
  /// Latency quantile of the per-shard history that can raise the trigger
  /// above the hedge_ms floor (only once >= 16 observations exist).
  double hedge_quantile = 0.95;
  /// Token-bucket hedge budget: each leg deposits `ratio` tokens, each hedge
  /// withdraws one — bounding hedges to ~ratio of traffic, so hedging can
  /// never double the load of an already-slow fleet.
  double hedge_budget_ratio = 0.1;
  double hedge_budget_capacity = 5.0;
  /// Token-bucket budget for replica failover: when a primary attempt fails
  /// with a retryable code, the leg re-dispatches to an untried healthy
  /// sibling while tokens last. More generous than the hedge budget because
  /// failover work lands only on healthy siblings, never on the sick
  /// replica it is escaping.
  double failover_budget_ratio = 0.25;
  double failover_budget_capacity = 16.0;
  /// Grace past the request deadline before scatter-gather stops waiting for
  /// a shard and merges without it (the shard enforces the deadline itself;
  /// the slack covers queueing and fan-out overhead).
  double gather_slack_ms = 25.0;
  /// Fan-out pool: a leg that cannot resolve on the caller's thread (a miss,
  /// a retry or failover, a hedge) finishes on these threads, each leg
  /// blocking one thread until its attempt chain ends. 0 = 2 * num_shards.
  size_t router_threads = 0;
  size_t router_queue = 1024;
  /// Chaos targeted at ONE replica (the dark-replica / slow-replica
  /// scenarios of EXPERIMENTS E18/E19): when set, this injector is wired
  /// into replica (chaos_shard, chaos_replica) only. For fleet-wide chaos
  /// set shard_options.fault_injector instead (all replicas share that
  /// injector; its metric registration is idempotent). Must outlive the
  /// router.
  resilience::FaultInjector* chaos_injector = nullptr;
  size_t chaos_shard = 0;
  size_t chaos_replica = 0;
};

/// Per-shard outcome tallies (winner results of routed legs).
struct RouterShardStats {
  uint64_t requests = 0;  ///< legs resolved by this shard
  uint64_t errors = 0;    ///< legs resolved with a non-OK status
};

/// Point-in-time counters of a ShardedRouter.
struct RouterStats {
  uint64_t requests = 0;         ///< Execute() calls
  uint64_t fanouts = 0;          ///< requests scattered to > 1 shard
  uint64_t hedges_fired = 0;     ///< hedge legs actually dispatched
  uint64_t hedges_won = 0;       ///< legs resolved by the hedge, not primary
  uint64_t hedges_denied = 0;    ///< hedges suppressed by budget / full pool
  uint64_t partials = 0;         ///< merged results returned truncated
  uint64_t gather_timeouts = 0;  ///< legs abandoned at the gather deadline
  // Replica-layer tallies (all zero when num_replicas == 1 except picks,
  // which count every dispatch regardless of R).
  uint64_t failovers = 0;          ///< dispatches that escaped a sick replica
  uint64_t cross_hedges_fired = 0; ///< hedges sent to a sibling replica
  uint64_t cross_hedges_won = 0;   ///< legs won by a cross-replica hedge
  uint64_t all_replicas_down = 0;  ///< dispatches finding every replica open
  std::vector<RouterShardStats> shards;
  std::vector<std::vector<uint64_t>> replica_picks;   ///< [shard][replica]
  std::vector<std::vector<uint64_t>> replica_errors;  ///< [shard][replica]
  double p50_latency_ms = 0;
  double p99_latency_ms = 0;
};

/// Scatter-gather router over N shards x R replicas of independent
/// QueryServices — the "millions of users" step: throughput scales with
/// shards instead of one mutex domain, and with R > 1 a sick *replica* is
/// distinguishable from sick *data*: reads balance across healthy replicas
/// and fail over off a dark one instead of degrading the answer.
///
/// Construction partitions the graph collection deterministically (ShardMap)
/// and copies each shard's slice once; the slices never change afterwards
/// (the router has no write path), so a shard's R replicas share its slice.
/// Each replica gets its own QueryService (thread pool, result cache,
/// coalescing) labeled {shard="<i>",replica="<r>"} in the shared registry,
/// behind its own resilience::ServiceClient (independent circuit breaker and
/// retry budget).
///
/// Routing: explicit-target requests go to their owning shard(s); kAllGraphs
/// matches and suggestions fan out to every shard. Within a shard the
/// replica is picked by (effective breaker state, in-flight attempts,
/// replica index) — deterministic for replay, skipping open breakers
/// (failover) and preferring idle healthy copies. A retryable primary
/// failure re-dispatches to an untried healthy sibling under the failover
/// budget, so a request only degrades to a partial when ALL R replicas of a
/// shard are unavailable. Hedged requests cut tail latency: a leg
/// outstanding past its trigger fires one budgeted duplicate at a sibling
/// replica (same replica when R == 1 or no sibling is healthy), first
/// response wins, and the loser is cancelled via max_steps poisoning. Every
/// leg's first attempt starts on the calling thread, and a leg answered at
/// once (a cache hit) resolves there; the fan-out pool only carries legs
/// that must wait, retry, fail over or hedge. See docs/sharding.md for the
/// full state machine.
///
/// Thread-safe, including Snapshot() at any time during traffic. The source
/// database is only read during construction (the shards serve their own
/// copies), so it does not need to outlive the router.
class ShardedRouter {
 public:
  ShardedRouter(const GraphDatabase& db, ShardedRouterOptions options = {});
  ~ShardedRouter();

  ShardedRouter(const ShardedRouter&) = delete;
  ShardedRouter& operator=(const ShardedRouter&) = delete;

  /// Routes, scatters, gathers, and merges. Blocking; call from any thread.
  QueryResult Execute(QueryRequest request);

  /// Safe to call at any time, including concurrently with Execute():
  /// per-leg bookkeeping and the snapshot read are ordered by a stats mutex,
  /// so a snapshot never observes a leg half-tallied. Counters include only
  /// legs fully resolved at the time of the call; Shutdown() first for
  /// final, exact totals of legs that finished on the fan-out pool.
  RouterStats Snapshot() const;
  /// Shard ServiceStats summed across all replicas (latency percentiles are
  /// the router's own, end-to-end).
  ServiceStats AggregateSnapshot() const;

  /// Registry shared by the router and every replica (exposition: /metrics).
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  const ShardMap& shard_map() const { return map_; }
  size_t num_shards() const { return map_.num_shards(); }
  size_t num_replicas() const { return map_.num_replicas(); }
  QueryService& shard(size_t i, size_t r = 0) { return *shards_[Slot(i, r)]; }
  resilience::ServiceClient& client(size_t i, size_t r = 0) {
    return *clients_[Slot(i, r)];
  }

  // Aggregate saturation signals for /healthz (sums across all replicas).
  size_t QueueDepth() const;
  size_t queue_capacity() const;
  size_t num_threads() const;

  /// Graceful shutdown: the fan-out pool drains, then every replica shuts
  /// down. Requests admitted before the call complete.
  void Shutdown();

 private:
  struct GatherState;

  /// Outcome of one health-gated replica pick (see PickReplica).
  struct ReplicaPick {
    size_t replica = ShardMap::kNoShard;  ///< kNoShard: mask excluded all
    bool picked_open = false;   ///< chosen replica's breaker is open
    bool skipped_open = false;  ///< an open-breaker candidate was passed over
  };

  size_t Slot(size_t shard, size_t replica) const {
    return shard * map_.num_replicas() + replica;
  }

  /// Deterministic health- and load-gated replica pick: candidates (replicas
  /// whose bit is clear in `exclude_mask`) rank by (effective breaker state:
  /// closed < half-open < open, in-flight attempts, replica index) and the
  /// minimum wins. Open breakers rank last, so an open replica is only
  /// picked when every candidate is open (the all-replicas-down case);
  /// cooldown-expired open breakers rank as half-open so probe traffic can
  /// discover recovery. The index tiebreak makes single-threaded runs fully
  /// replayable.
  ReplicaPick PickReplica(size_t shard, uint64_t exclude_mask) const;

  /// One leg's primary attempt chain: started by StartPrimary on the
  /// calling thread, completed by FinishPrimary.
  struct PrimaryLeg {
    size_t shard = 0;
    size_t replica = 0;  ///< replica of the current attempt
    uint64_t tried = 0;  ///< replicas attempted so far, as a bit mask
    QueryRequest sub;
    resilience::ServiceClient::Call call;
  };

  /// Starts the primary attempt chain of one leg: the failover-budget
  /// deposit, the replica pick, and the first attempt's Start (which answers
  /// a cache hit on the spot). With `state` set (multi-leg requests) every
  /// attempt publishes its replica and, on failover, a fresh cancel token
  /// under the gather mutex; nullptr = the single-leg fast path.
  PrimaryLeg StartPrimary(size_t leg_shard, QueryRequest sub,
                          GatherState* state, size_t leg_index);
  /// Finishes the chain: waits for the attempt, then fails over to untried
  /// healthy siblings on retryable failure while the budget allows, and
  /// stops when the leg resolves elsewhere. Returns the final response.
  QueryResult FinishPrimary(PrimaryLeg leg, GatherState* state,
                            size_t leg_index);
  /// Picks `replica` for the leg's next attempt and starts it.
  void StartAttempt(PrimaryLeg* leg, size_t replica, GatherState* state,
                    size_t leg_index);

  /// Expands `request` into per-shard legs. NotFound when an explicit target
  /// is not in the shard map.
  Status BuildSubRequests(const QueryRequest& request,
                          std::vector<std::pair<size_t, QueryRequest>>* subs);
  /// Merges resolved leg results per docs/sharding.md (deterministic order:
  /// matched_graphs ascending, suggestions by summed support).
  QueryResult Merge(const QueryRequest& request,
                    std::vector<QueryResult> legs,
                    const std::vector<size_t>& leg_shards);
  /// Hedge trigger for `shard`: max of the hedge_ms floor and the shard's
  /// observed latency quantile.
  double HedgeTriggerMs(size_t shard) const;

  ShardedRouterOptions options_;
  // Declared first: every replica, client, and pool registers instruments
  // here.
  obs::MetricsRegistry metrics_;
  ShardMap map_;
  // Shard-indexed: one read-only slice per shard, served by all R replicas.
  std::vector<std::unique_ptr<const GraphDatabase>> shard_dbs_;
  std::vector<std::unique_ptr<QueryService>> shards_;
  std::vector<std::unique_ptr<resilience::ServiceClient>> clients_;
  resilience::RetryBudget hedge_budget_;
  resilience::RetryBudget failover_budget_;
  // Attempts currently executing per slot — the load half of the replica
  // pick. Plain atomics: reads tolerate slight staleness.
  std::unique_ptr<std::atomic<int>[]> inflight_;

  // Orders multi-counter leg bookkeeping against Snapshot() so a snapshot
  // taken mid-traffic never sees a leg half-tallied (e.g. its request
  // counted but its error not). Never held across a shard call; nests
  // inside GatherState::mutex only, never the reverse.
  mutable Mutex stats_mutex_;

  // Instrument handles resolved once in the constructor.
  obs::Counter* requests_total_;
  obs::Counter* fanout_total_;
  obs::Counter* hedges_fired_total_;
  obs::Counter* hedges_won_total_;
  obs::Counter* hedges_denied_total_;
  obs::Counter* partial_total_;
  obs::Counter* gather_timeout_total_;
  obs::Counter* failover_total_;
  obs::Counter* cross_hedges_fired_total_;
  obs::Counter* cross_hedges_won_total_;
  obs::Counter* all_down_total_;
  obs::Histogram* latency_ms_;
  std::vector<obs::Counter*> shard_requests_total_;   // shard-indexed
  std::vector<obs::Counter*> shard_errors_total_;     // shard-indexed
  std::vector<obs::Histogram*> shard_latency_ms_;     // shard-indexed
  std::vector<obs::Counter*> replica_picks_total_;    // slot-indexed
  std::vector<obs::Counter*> replica_errors_total_;   // slot-indexed

  // Declared last so it is destroyed (and drained) first: in-flight leg
  // tasks reference the shards and clients above.
  ThreadPool pool_;
};

}  // namespace shard
}  // namespace vqi

#endif  // VQLIB_SHARD_SHARDED_ROUTER_H_
