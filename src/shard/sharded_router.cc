#include "shard/sharded_router.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "common/mutex.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"

namespace vqi {
namespace shard {

/// Shared between the orchestrating caller and the pool tasks executing the
/// legs of one scatter-gather. A leg is "resolved" when its winner (primary,
/// hedge, or the orchestrator's timeout claim) has written `result`; losers
/// observe `resolved` under the mutex and discard their response.
struct ShardedRouter::GatherState {
  struct Leg {
    size_t shard = 0;
    QueryRequest primary;  ///< kept for hedge construction
    std::shared_ptr<std::atomic<bool>> primary_cancel;
    std::shared_ptr<std::atomic<bool>> hedge_cancel;
    /// Replica the primary chain is currently executing on; the hedge
    /// excludes it so the duplicate lands on a sibling.
    size_t primary_replica = 0;
    QueryResult result;
    bool resolved = false;
    bool hedge_attempted = false;  ///< trigger reached (fired or denied)
    bool hedge_fired = false;
    bool hedge_won = false;
    Stopwatch age;
  };

  Mutex mutex;
  CondVar cv;
  size_t unresolved VQLIB_GUARDED_BY(mutex) = 0;
  std::vector<Leg> legs VQLIB_GUARDED_BY(mutex);
};

ShardedRouter::ShardedRouter(const GraphDatabase& db,
                             ShardedRouterOptions options)
    : options_(options),
      map_(db, std::max<size_t>(1, options.num_shards), options.placement,
           options.num_replicas),
      hedge_budget_(options.hedge_budget_ratio, options.hedge_budget_capacity),
      failover_budget_(options.failover_budget_ratio,
                       options.failover_budget_capacity),
      pool_(ThreadPoolOptions{
          options.router_threads > 0 ? options.router_threads
                                     : 2 * map_.num_shards(),
          options.router_queue, &metrics_, {{"pool", "router"}}}) {
  const size_t n = map_.num_shards();
  const size_t r_count = map_.num_replicas();
  shard_dbs_.reserve(n);
  shards_.reserve(n * r_count);
  clients_.reserve(n * r_count);
  for (size_t i = 0; i < n; ++i) {
    // One copy of the shard's members, read by all of its replicas. Graph
    // ids are preserved (GraphDatabase::Add keeps non-negative ids), so
    // shard results merge without any id translation.
    auto shard_db = std::make_unique<GraphDatabase>();
    for (GraphId id : map_.Members(i)) shard_db->Add(db.Get(id));
    shard_dbs_.push_back(std::move(shard_db));
    for (size_t r = 0; r < r_count; ++r) {
      QueryServiceOptions shard_options = options_.shard_options;
      shard_options.metrics = &metrics_;
      shard_options.metric_labels = {{"shard", std::to_string(i)}};
      // A replicated fleet labels every series {shard,replica}; the R = 1
      // fleet keeps the original single-copy label shape so existing
      // dashboards and scrapes stay stable.
      if (r_count > 1) {
        shard_options.metric_labels.push_back({"replica", std::to_string(r)});
      }
      if (options_.chaos_injector != nullptr && options_.chaos_shard == i &&
          options_.chaos_replica == r) {
        shard_options.fault_injector = options_.chaos_injector;
      }
      shards_.push_back(
          std::make_unique<QueryService>(*shard_dbs_[i], shard_options));
      resilience::ServiceClientOptions client_options =
          options_.client_options;
      client_options.metric_label =
          "shard-" + std::to_string(i) +
          (r_count > 1 ? "-replica-" + std::to_string(r) : "");
      clients_.push_back(std::make_unique<resilience::ServiceClient>(
          *shards_[Slot(i, r)], client_options));
    }
  }
  inflight_ = std::make_unique<std::atomic<int>[]>(n * r_count);
  for (size_t s = 0; s < n * r_count; ++s) inflight_[s].store(0);

  requests_total_ = &metrics_.GetCounter("vqi_router_requests_total",
                                         "Requests routed by the router.");
  fanout_total_ = &metrics_.GetCounter(
      "vqi_router_fanout_total",
      "Requests scattered to more than one shard (kAllGraphs and "
      "multi-shard target sets).");
  hedges_fired_total_ = &metrics_.GetCounter(
      "vqi_router_hedges_fired_total",
      "Hedge legs dispatched after a shard exceeded its latency trigger.");
  hedges_won_total_ = &metrics_.GetCounter(
      "vqi_router_hedges_won_total",
      "Legs resolved by the hedge instead of the primary.");
  hedges_denied_total_ = &metrics_.GetCounter(
      "vqi_router_hedges_denied_total",
      "Hedges suppressed by the hedge budget or a full fan-out pool.");
  partial_total_ = &metrics_.GetCounter(
      "vqi_router_partial_total",
      "Merged results returned truncated (failed, late, or partial legs).");
  gather_timeout_total_ = &metrics_.GetCounter(
      "vqi_router_gather_timeout_total",
      "Legs abandoned because the shard missed the gather deadline.");
  failover_total_ = &metrics_.GetCounter(
      "vqi_replica_failovers_total",
      "Dispatches that escaped a sick replica: picks that skipped an "
      "open-breaker replica plus post-failure re-dispatches to a sibling.");
  cross_hedges_fired_total_ = &metrics_.GetCounter(
      "vqi_replica_cross_hedges_fired_total",
      "Hedge legs dispatched to a sibling replica of the primary's.");
  cross_hedges_won_total_ = &metrics_.GetCounter(
      "vqi_replica_cross_hedges_won_total",
      "Legs resolved by a cross-replica hedge instead of the primary.");
  all_down_total_ = &metrics_.GetCounter(
      "vqi_replica_all_down_total",
      "Dispatches that found every replica of the owner shard "
      "breaker-open.");
  latency_ms_ = &metrics_.GetHistogram(
      "vqi_router_latency_ms",
      "End-to-end routed request latency (scatter, gather, merge).",
      obs::Histogram::DefaultLatencyBoundsMs());
  shard_requests_total_.reserve(n);
  shard_errors_total_.reserve(n);
  shard_latency_ms_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    obs::Labels labels{{"shard", std::to_string(i)}};
    shard_requests_total_.push_back(&metrics_.GetCounter(
        "vqi_router_shard_requests_total",
        "Legs resolved by this shard (winner responses).", labels));
    shard_errors_total_.push_back(&metrics_.GetCounter(
        "vqi_router_shard_errors_total",
        "Legs resolved with a non-OK status, including gather timeouts.",
        labels));
    shard_latency_ms_.push_back(&metrics_.GetHistogram(
        "vqi_router_shard_latency_ms",
        "Per-shard leg latency; drives the hedge trigger quantile.",
        obs::Histogram::DefaultLatencyBoundsMs(), labels));
  }
  replica_picks_total_.reserve(n * r_count);
  replica_errors_total_.reserve(n * r_count);
  for (size_t i = 0; i < n; ++i) {
    for (size_t r = 0; r < r_count; ++r) {
      obs::Labels labels{{"shard", std::to_string(i)},
                         {"replica", std::to_string(r)}};
      replica_picks_total_.push_back(&metrics_.GetCounter(
          "vqi_replica_picks_total",
          "Attempts dispatched to this replica (primary, failover, hedge).",
          labels));
      replica_errors_total_.push_back(&metrics_.GetCounter(
          "vqi_replica_errors_total",
          "Attempts this replica answered with a non-OK status.", labels));
    }
  }
  metrics_.GetGauge("vqi_router_shards", "Number of query-service shards.")
      .Set(static_cast<double>(n));
  metrics_
      .GetGauge("vqi_router_replicas",
                "Independent replicas per shard (R-way replication).")
      .Set(static_cast<double>(r_count));
}

ShardedRouter::~ShardedRouter() { Shutdown(); }

void ShardedRouter::Shutdown() {
  // Fan-out pool first: its tasks block on replica executions, so the
  // replicas must still be alive while it drains.
  pool_.Shutdown();
  for (auto& shard : shards_) shard->Shutdown();
}

size_t ShardedRouter::QueueDepth() const {
  size_t depth = pool_.QueueDepth();
  for (const auto& shard : shards_) depth += shard->QueueDepth();
  return depth;
}

size_t ShardedRouter::queue_capacity() const {
  size_t capacity = pool_.queue_capacity();
  for (const auto& shard : shards_) capacity += shard->queue_capacity();
  return capacity;
}

size_t ShardedRouter::num_threads() const {
  size_t threads = pool_.num_threads();
  for (const auto& shard : shards_) threads += shard->num_threads();
  return threads;
}

double ShardedRouter::HedgeTriggerMs(size_t shard) const {
  double trigger = options_.hedge_ms;
  obs::HistogramSnapshot history = shard_latency_ms_[shard]->Snapshot();
  // The quantile only raises the floor once there is enough history for it
  // to mean something; a cold shard hedges at the configured floor.
  if (history.count >= 16) {
    trigger = std::max(trigger, history.Quantile(options_.hedge_quantile));
  }
  return trigger;
}

ShardedRouter::ReplicaPick ShardedRouter::PickReplica(
    size_t shard, uint64_t exclude_mask) const {
  ReplicaPick pick;
  bool saw_open = false;
  // key = (breaker open, in-flight attempts, not-closed, replica index),
  // minimum wins. Open breakers are a hard last resort — an open replica is
  // only picked when every candidate is open, per the skip-at-dispatch
  // failover rule. Among available replicas load leads and health breaks
  // ties: a cooldown-expired breaker ranks half-open (EffectiveState), so a
  // recovering replica draws probe traffic as soon as its siblings are
  // busier than it, while a lone idle tie always resolves to the healthy,
  // lowest-index copy — deterministic for single-threaded replay.
  std::tuple<int, int, int, size_t> best_key;
  for (size_t r = 0; r < map_.num_replicas(); ++r) {
    if ((exclude_mask >> r) & 1) continue;
    const resilience::BreakerState state =
        clients_[Slot(shard, r)]->breaker().EffectiveState();
    const int open = state == resilience::BreakerState::kOpen ? 1 : 0;
    const int degraded = state == resilience::BreakerState::kClosed ? 0 : 1;
    if (open != 0) saw_open = true;
    const int inflight =
        inflight_[Slot(shard, r)].load(std::memory_order_relaxed);
    const std::tuple<int, int, int, size_t> key{open, inflight, degraded, r};
    if (pick.replica == ShardMap::kNoShard || key < best_key) {
      pick.replica = r;
      best_key = key;
    }
  }
  pick.picked_open =
      pick.replica != ShardMap::kNoShard && std::get<0>(best_key) != 0;
  pick.skipped_open = saw_open && !pick.picked_open;
  return pick;
}

ShardedRouter::PrimaryLeg ShardedRouter::StartPrimary(size_t leg_shard,
                                                     QueryRequest sub,
                                                     GatherState* state,
                                                     size_t leg_index) {
  // Every primary leg deposits into the failover budget (mirroring the
  // hedge budget), bounding failovers to ~ratio of leg traffic plus a
  // burst.
  failover_budget_.OnRequest();
  PrimaryLeg leg;
  leg.shard = leg_shard;
  leg.sub = std::move(sub);
  ReplicaPick pick = PickReplica(leg_shard, leg.tried);
  {
    MutexLock lock(&stats_mutex_);
    if (pick.skipped_open) failover_total_->Increment();
    if (pick.picked_open) all_down_total_->Increment();
  }
  StartAttempt(&leg, pick.replica, state, leg_index);
  return leg;
}

void ShardedRouter::StartAttempt(PrimaryLeg* leg, size_t replica,
                                 GatherState* state, size_t leg_index) {
  leg->replica = replica;
  leg->tried |= uint64_t{1} << replica;
  const size_t slot = Slot(leg->shard, replica);
  if (state != nullptr) {
    MutexLock lock(&state->mutex);
    state->legs[leg_index].primary_replica = replica;
  }
  {
    MutexLock lock(&stats_mutex_);
    replica_picks_total_[slot]->Increment();
  }
  inflight_[slot].fetch_add(1, std::memory_order_relaxed);
  leg->call = clients_[slot]->Start(leg->sub);
}

QueryResult ShardedRouter::FinishPrimary(PrimaryLeg leg, GatherState* state,
                                         size_t leg_index) {
  for (;;) {
    const size_t slot = Slot(leg.shard, leg.replica);
    QueryResult response = clients_[slot]->Finish(std::move(leg.call));
    inflight_[slot].fetch_sub(1, std::memory_order_relaxed);
    if (response.status.ok()) return response;
    {
      MutexLock lock(&stats_mutex_);
      replica_errors_total_[slot]->Increment();
    }
    if (!resilience::IsRetryable(response.status.code())) return response;
    if (map_.num_replicas() == 1) return response;
    // Replica failover: the attempt failed retryably, so re-dispatch to an
    // untried sibling whose breaker is not open — this is what turns a dark
    // replica into zero availability loss instead of a partial. Another
    // open breaker would just fast-fail, so it is not worth a budget token.
    ReplicaPick next = PickReplica(leg.shard, leg.tried);
    if (next.replica == ShardMap::kNoShard || next.picked_open) {
      return response;
    }
    if (!failover_budget_.TryConsumeRetry()) return response;
    if (state != nullptr) {
      MutexLock lock(&state->mutex);
      GatherState::Leg& gathered = state->legs[leg_index];
      // A hedge or the gather timeout already claimed the leg; this
      // response will be discarded, so stop burning replica time.
      if (gathered.resolved) return response;
      // Fresh token per attempt: poison aimed at the failed attempt must
      // not cancel the sibling's.
      leg.sub.cancel = std::make_shared<std::atomic<bool>>(false);
      gathered.primary_cancel = leg.sub.cancel;
    }
    {
      MutexLock lock(&stats_mutex_);
      failover_total_->Increment();
    }
    StartAttempt(&leg, next.replica, state, leg_index);
  }
}

Status ShardedRouter::BuildSubRequests(
    const QueryRequest& request,
    std::vector<std::pair<size_t, QueryRequest>>* subs) {
  auto broadcast = [&]() {
    for (size_t i = 0; i < map_.num_shards(); ++i) {
      QueryRequest sub = request;
      sub.target = kAllGraphs;
      sub.targets.clear();
      subs->emplace_back(i, std::move(sub));
    }
  };
  if (request.kind == QueryKind::kSuggest) {
    // Suggestions are collection-scoped; every shard ranks its slice and the
    // merge re-ranks by summed support (see docs/sharding.md for the top_k
    // approximation this implies).
    broadcast();
    return Status::OK();
  }
  if (!request.targets.empty()) {
    // Mirror service admission: sorted + deduplicated, so equal sets shard
    // identically and each shard receives a canonical subset.
    std::vector<GraphId> targets = request.targets;
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    std::vector<std::vector<GraphId>> grouped(map_.num_shards());
    for (GraphId id : targets) {
      const size_t owner = map_.OwnerOf(id);
      if (owner == ShardMap::kNoShard) {
        return Status::NotFound("unknown target graph id " +
                                std::to_string(id));
      }
      grouped[owner].push_back(id);
    }
    for (size_t i = 0; i < grouped.size(); ++i) {
      if (grouped[i].empty()) continue;
      QueryRequest sub = request;
      sub.target = kAllGraphs;
      sub.targets = std::move(grouped[i]);
      subs->emplace_back(i, std::move(sub));
    }
    return Status::OK();
  }
  if (request.target == kAllGraphs) {
    broadcast();
    return Status::OK();
  }
  const size_t owner = map_.OwnerOf(request.target);
  if (owner == ShardMap::kNoShard) {
    return Status::NotFound("unknown target graph id " +
                            std::to_string(request.target));
  }
  subs->emplace_back(owner, request);
  return Status::OK();
}

QueryResult ShardedRouter::Merge(const QueryRequest& request,
                                 std::vector<QueryResult> legs,
                                 const std::vector<size_t>& leg_shards) {
  QueryResult merged;
  bool any_ok = false;
  bool all_cached = true;
  Status severe;
  auto severity = [](StatusCode code) {
    switch (code) {
      case StatusCode::kInternal:
        return 5;
      case StatusCode::kUnavailable:
        return 4;
      case StatusCode::kCancelled:
        return 3;
      case StatusCode::kDeadlineExceeded:
        return 2;
      default:
        return 1;
    }
  };
  for (size_t i = 0; i < legs.size(); ++i) {
    QueryResult& leg = legs[i];
    // Deadline-exceeded legs still carry a valid partial lower bound (the
    // service's subset guarantee), so their counts merge like OK partials.
    const bool usable = leg.status.ok() ||
                        leg.status.code() == StatusCode::kDeadlineExceeded;
    if (usable) {
      merged.embedding_count += leg.embedding_count;
      merged.matched_graphs.insert(merged.matched_graphs.end(),
                                   leg.matched_graphs.begin(),
                                   leg.matched_graphs.end());
      merged.suggestions.insert(merged.suggestions.end(),
                                leg.suggestions.begin(),
                                leg.suggestions.end());
      merged.truncated = merged.truncated || leg.truncated;
      merged.match_steps += leg.match_steps;
      merged.match_slices += leg.match_slices;
      merged.coalesced = merged.coalesced || leg.coalesced;
    }
    if (leg.status.ok()) {
      any_ok = true;
      all_cached = all_cached && leg.from_cache;
    } else {
      // A failed or missed leg means the merged answer is missing that
      // shard's slice of the collection. With replication a leg only gets
      // here after the primary chain exhausted the shard's healthy
      // replicas, so "shard down" really means all of its copies were.
      merged.truncated = true;
      if (severe.ok() ||
          severity(leg.status.code()) > severity(severe.code())) {
        severe = Status(leg.status.code(),
                        "shard " + std::to_string(leg_shards[i]) + ": " +
                            leg.status.message());
      }
    }
  }
  if (!severe.ok()) {
    // Graceful degradation, extended across shards: when the request opted
    // into partials and at least one shard answered, the healthy shards'
    // subset is returned OK + truncated. With nothing at all (or a strict
    // request) the most severe shard failure propagates, partial counts
    // attached.
    const bool degrade = request.allow_partial && any_ok;
    if (!degrade) merged.status = severe;
  }
  merged.from_cache = severe.ok() && !legs.empty() && all_cached;
  // Deterministic merge order regardless of which shard answered first.
  std::sort(merged.matched_graphs.begin(), merged.matched_graphs.end());
  merged.matched_graphs.erase(
      std::unique(merged.matched_graphs.begin(), merged.matched_graphs.end()),
      merged.matched_graphs.end());
  if (request.kind == QueryKind::kSuggest && !merged.suggestions.empty()) {
    // Shards partition the collection, so summing per-shard supports yields
    // the exact global support of every suggestion that survived a shard's
    // local top_k cut; the re-rank below restores a deterministic order.
    std::map<std::tuple<Label, Label, Label>, size_t> support;
    for (const EdgeSuggestion& s : merged.suggestions) {
      support[{s.from_label, s.edge_label, s.to_label}] += s.support;
    }
    std::vector<EdgeSuggestion> ranked;
    ranked.reserve(support.size());
    for (const auto& [labels, sum] : support) {
      ranked.push_back(EdgeSuggestion{std::get<0>(labels),
                                      std::get<1>(labels),
                                      std::get<2>(labels), sum});
    }
    // Ties keep the map's (from, edge, to) ascending order.
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const EdgeSuggestion& a, const EdgeSuggestion& b) {
                       return a.support > b.support;
                     });
    if (ranked.size() > request.top_k) ranked.resize(request.top_k);
    merged.suggestions = std::move(ranked);
  }
  return merged;
}

QueryResult ShardedRouter::Execute(QueryRequest request) {
  Stopwatch started;
  requests_total_->Increment();
  auto reject = [&](Status status) {
    QueryResult result;
    result.status = std::move(status);
    result.latency_ms = started.ElapsedMillis();
    latency_ms_->Observe(result.latency_ms);
    return result;
  };
  // Light admission mirror so obvious rejections never fan out.
  if (request.pattern.Empty()) {
    return reject(Status::InvalidArgument("query pattern is empty"));
  }
  if (request.kind == QueryKind::kSuggest &&
      request.focus >= request.pattern.NumVertices()) {
    return reject(Status::InvalidArgument("focus vertex out of range"));
  }
  std::vector<std::pair<size_t, QueryRequest>> subs;
  if (Status routed = BuildSubRequests(request, &subs); !routed.ok()) {
    return reject(std::move(routed));
  }
  if (subs.size() > 1) fanout_total_->Increment();
  const bool hedging = options_.hedge_ms > 0;

  auto finish = [&](QueryResult merged) {
    merged.latency_ms = started.ElapsedMillis();
    latency_ms_->Observe(merged.latency_ms);
    if (merged.truncated) partial_total_->Increment();
    return merged;
  };

  // Single-shard, no hedging: execute on the caller's thread, skipping the
  // fan-out pool hop entirely (the common explicit-target fast path). The
  // replica pick and failover chain still apply.
  if (subs.size() == 1 && !hedging) {
    const size_t target_shard = subs[0].first;
    Stopwatch leg_clock;
    QueryResult leg =
        FinishPrimary(StartPrimary(target_shard, std::move(subs[0].second),
                                   /*state=*/nullptr, /*leg_index=*/0),
                      /*state=*/nullptr, /*leg_index=*/0);
    {
      MutexLock lock(&stats_mutex_);
      shard_requests_total_[target_shard]->Increment();
      if (!leg.status.ok()) shard_errors_total_[target_shard]->Increment();
      shard_latency_ms_[target_shard]->Observe(leg_clock.ElapsedMillis());
    }
    std::vector<QueryResult> legs;
    legs.push_back(std::move(leg));
    return finish(Merge(request, std::move(legs), {target_shard}));
  }

  auto state = std::make_shared<GatherState>();

  // Resolves one leg with an attempt chain's response. The first response
  // wins the leg and poisons the other chain's cancel token; a loser finds
  // the leg resolved and discards its response. Runs on the caller for a
  // leg answered inline, else on a pool thread.
  auto resolve = [this, state](size_t index, size_t leg_shard,
                               QueryResult response, bool is_hedge,
                               bool hedge_cross) {
    bool winner = false;
    bool error = false;
    double leg_ms = 0;
    {
      MutexLock lock(&state->mutex);
      GatherState::Leg& leg = state->legs[index];
      if (!leg.resolved) {
        leg.resolved = true;
        leg.hedge_won = is_hedge;
        error = !response.status.ok();
        leg.result = std::move(response);
        leg_ms = leg.age.ElapsedMillis();
        if (is_hedge) {
          if (leg.primary_cancel != nullptr) leg.primary_cancel->store(true);
        } else if (leg.hedge_cancel != nullptr) {
          leg.hedge_cancel->store(true);
        }
        --state->unresolved;
        winner = true;
        state->cv.NotifyAll();
      }
    }
    if (winner) {
      MutexLock lock(&stats_mutex_);
      shard_requests_total_[leg_shard]->Increment();
      if (error) shard_errors_total_[leg_shard]->Increment();
      shard_latency_ms_[leg_shard]->Observe(leg_ms);
      if (is_hedge) {
        hedges_won_total_->Increment();
        if (hedge_cross) cross_hedges_won_total_->Increment();
      }
    }
  };

  // Scatter-gather with an inline hedging clock. The shards enforce the
  // request deadline themselves (returning partials where allowed); the
  // gather deadline adds slack on top so late shard partials still merge,
  // and only a shard stuck well past its budget is abandoned.
  //
  // Locking discipline: pool_.Submit is never called with state->mutex
  // held. Submit does not block (a full fan-out queue refuses the task
  // with kUnavailable), but it takes the pool's own mutex and wakes a
  // worker, and every pool worker re-enters state->mutex the moment its
  // leg finishes: a submit under the gather lock nests the pool's mutex
  // inside it and makes the woken worker wait for the submitter. Hedge
  // *decisions* are made under the lock; the submits they schedule happen
  // with it released.
  const double gather_deadline_ms =
      request.deadline_ms > 0 ? request.deadline_ms + options_.gather_slack_ms
                              : 0;
  std::vector<QueryResult> results;
  std::vector<size_t> leg_shards;

  // Phase 1: build the legs. No pool work under the gather lock.
  {
    MutexLock lock(&state->mutex);
    state->legs.reserve(subs.size());
    for (auto& [sub_shard, sub] : subs) {
      GatherState::Leg leg;
      leg.shard = sub_shard;
      sub.cancel = std::make_shared<std::atomic<bool>>(false);
      leg.primary_cancel = sub.cancel;
      leg.primary = std::move(sub);
      state->legs.push_back(std::move(leg));
    }
    state->unresolved = state->legs.size();
  }

  // Phase 2: start every primary leg on this thread, with the lock
  // released. A leg whose first attempt is answered at once and needs no
  // retry or failover (a cache hit) resolves right here. Every other leg
  // continues on the fan-out pool: a miss is already queued on its
  // replica's own pool, so the pool task waits for it and runs any retry
  // and failover, which never sleep on this thread.
  const size_t num_legs = subs.size();
  std::vector<PrimaryLeg> refused;
  for (size_t i = 0; i < num_legs; ++i) {
    QueryRequest sub;
    size_t leg_shard = 0;
    {
      MutexLock lock(&state->mutex);
      GatherState::Leg& leg = state->legs[i];
      sub = leg.primary;
      leg_shard = leg.shard;
    }
    // Every primary leg deposits into the hedge budget; each fired hedge
    // withdraws one full token, bounding hedges to ~ratio of leg traffic.
    hedge_budget_.OnRequest();
    PrimaryLeg primary =
        StartPrimary(leg_shard, std::move(sub), state.get(), i);
    const QueryResult* ready = primary.call.Ready();
    if (ready != nullptr && !resilience::IsRetryable(ready->status.code())) {
      resolve(i, leg_shard, FinishPrimary(std::move(primary), state.get(), i),
              /*is_hedge=*/false, /*hedge_cross=*/false);
      continue;
    }
    // shared_ptr: the started call holds a move-only future, and a pool task
    // is a copyable std::function.
    auto pending = std::make_shared<PrimaryLeg>(std::move(primary));
    Status submitted =
        pool_.Submit([this, state, resolve, pending, i, leg_shard]() {
          resolve(i, leg_shard,
                  FinishPrimary(std::move(*pending), state.get(), i),
                  /*is_hedge=*/false, /*hedge_cross=*/false);
        });
    if (!submitted.ok()) {
      // Fan-out pool saturated: the leg resolves immediately as unavailable
      // and the merge degrades per the partial contract. Its started
      // attempt is poisoned and settled once the gather is over.
      inflight_[Slot(leg_shard, pending->replica)].fetch_sub(
          1, std::memory_order_relaxed);
      {
        MutexLock lock(&state->mutex);
        GatherState::Leg& leg = state->legs[i];
        leg.resolved = true;
        leg.result.status = submitted;
        if (leg.primary_cancel != nullptr) leg.primary_cancel->store(true);
        --state->unresolved;
      }
      {
        MutexLock stats_lock(&stats_mutex_);
        shard_errors_total_[leg_shard]->Increment();
      }
      refused.push_back(std::move(*pending));
    }
  }

  // Phase 3: gather, firing hedges as their triggers pass.
  struct PendingHedge {
    size_t index = 0;
    size_t shard = 0;
    QueryRequest request;
    size_t replica = 0;
    bool cross = false;
  };
  for (;;) {
    std::vector<PendingHedge> pending;
    size_t denied = 0;
    {
      MutexLock lock(&state->mutex);
      while (state->unresolved > 0 && pending.empty()) {
        double wait_ms = -1;
        if (hedging) {
          for (size_t i = 0; i < state->legs.size(); ++i) {
            GatherState::Leg& leg = state->legs[i];
            if (leg.resolved || leg.hedge_attempted) continue;
            const double trigger = HedgeTriggerMs(leg.shard);
            const double age = leg.age.ElapsedMillis();
            if (age < trigger) {
              const double until = trigger - age;
              wait_ms = wait_ms < 0 ? until : std::min(wait_ms, until);
              continue;
            }
            leg.hedge_attempted = true;
            if (!hedge_budget_.TryConsumeRetry()) {
              ++denied;
              continue;
            }
            PendingHedge hedge;
            hedge.index = i;
            hedge.shard = leg.shard;
            hedge.request = leg.primary;
            hedge.request.hedge = true;
            hedge.request.cancel = std::make_shared<std::atomic<bool>>(false);
            leg.hedge_cancel = hedge.request.cancel;
            // Cross-replica hedge: the duplicate goes to the best healthy
            // replica that is NOT the one the primary chain is on — when a
            // replica (not the data) is slow, redrawing the same replica
            // buys nothing. Same-replica fallback when unreplicated or no
            // healthy sibling exists.
            hedge.replica = leg.primary_replica;
            if (map_.num_replicas() > 1) {
              ReplicaPick pick = PickReplica(
                  leg.shard, uint64_t{1} << leg.primary_replica);
              if (pick.replica != ShardMap::kNoShard && !pick.picked_open) {
                hedge.replica = pick.replica;
                hedge.cross = true;
              }
            }
            pending.push_back(std::move(hedge));
          }
          if (!pending.empty()) break;  // submit with the lock released
        }
        if (gather_deadline_ms > 0) {
          const double remaining =
              gather_deadline_ms - started.ElapsedMillis();
          if (remaining <= 0) break;
          wait_ms = wait_ms < 0 ? remaining : std::min(wait_ms, remaining);
        }
        if (wait_ms < 0) {
          state->cv.Wait(state->mutex);
        } else {
          (void)state->cv.WaitFor(state->mutex, std::max(wait_ms, 0.05));
        }
      }
    }
    if (denied > 0) {
      MutexLock stats_lock(&stats_mutex_);
      for (size_t i = 0; i < denied; ++i) hedges_denied_total_->Increment();
    }
    if (pending.empty()) break;  // gathered everything, or deadline expired
    for (PendingHedge& hedge : pending) {
      // A leg can resolve between the decision and this submit; the hedge
      // then finds the leg resolved and discards itself (its cancel token
      // was poisoned by the winner).
      const size_t index = hedge.index;
      const size_t leg_shard = hedge.shard;
      const size_t slot = Slot(leg_shard, hedge.replica);
      const bool cross = hedge.cross;
      Status submitted = pool_.Submit(
          [this, resolve, index, leg_shard, slot, cross,
           sub = std::move(hedge.request)]() mutable {
            {
              MutexLock lock(&stats_mutex_);
              replica_picks_total_[slot]->Increment();
            }
            inflight_[slot].fetch_add(1, std::memory_order_relaxed);
            QueryResult response = clients_[slot]->Execute(std::move(sub));
            inflight_[slot].fetch_sub(1, std::memory_order_relaxed);
            if (!response.status.ok()) {
              MutexLock lock(&stats_mutex_);
              replica_errors_total_[slot]->Increment();
            }
            resolve(index, leg_shard, std::move(response), /*is_hedge=*/true,
                    cross);
          });
      const bool fired = submitted.ok();
      {
        MutexLock lock(&state->mutex);
        GatherState::Leg& leg = state->legs[hedge.index];
        if (fired) {
          leg.hedge_fired = true;
        } else {
          leg.hedge_cancel = nullptr;
        }
      }
      MutexLock stats_lock(&stats_mutex_);
      if (fired) {
        hedges_fired_total_->Increment();
        if (hedge.cross) cross_hedges_fired_total_->Increment();
      } else {
        hedges_denied_total_->Increment();
      }
    }
  }

  // Gather deadline expired: claim every still-outstanding leg as timed
  // out and poison its attempts so they stop burning shard budget.
  std::vector<size_t> timed_out_shards;
  {
    MutexLock lock(&state->mutex);
    for (GatherState::Leg& leg : state->legs) {
      if (leg.resolved) continue;
      leg.resolved = true;
      leg.result = QueryResult{};
      leg.result.status =
          Status::DeadlineExceeded("shard missed the gather deadline");
      if (leg.primary_cancel != nullptr) leg.primary_cancel->store(true);
      if (leg.hedge_cancel != nullptr) leg.hedge_cancel->store(true);
      --state->unresolved;
      timed_out_shards.push_back(leg.shard);
    }
    results.reserve(state->legs.size());
    leg_shards.reserve(state->legs.size());
    for (GatherState::Leg& leg : state->legs) {
      results.push_back(std::move(leg.result));
      leg_shards.push_back(leg.shard);
    }
  }
  if (!timed_out_shards.empty()) {
    MutexLock stats_lock(&stats_mutex_);
    for (size_t timed_out_shard : timed_out_shards) {
      gather_timeout_total_->Increment();
      shard_errors_total_[timed_out_shard]->Increment();
    }
  }
  // Settle the attempts started for legs the pool refused (poisoned in
  // phase 2), so their clients' counts and breakers stay whole.
  for (PrimaryLeg& leg : refused) {
    clients_[Slot(leg.shard, leg.replica)]->Abandon(std::move(leg.call));
  }
  return finish(Merge(request, std::move(results), leg_shards));
}

RouterStats ShardedRouter::Snapshot() const {
  const size_t n = map_.num_shards();
  const size_t r_count = map_.num_replicas();
  RouterStats stats;
  MutexLock lock(&stats_mutex_);
  stats.requests = requests_total_->Value();
  stats.fanouts = fanout_total_->Value();
  stats.hedges_fired = hedges_fired_total_->Value();
  stats.hedges_won = hedges_won_total_->Value();
  stats.hedges_denied = hedges_denied_total_->Value();
  stats.partials = partial_total_->Value();
  stats.gather_timeouts = gather_timeout_total_->Value();
  stats.failovers = failover_total_->Value();
  stats.cross_hedges_fired = cross_hedges_fired_total_->Value();
  stats.cross_hedges_won = cross_hedges_won_total_->Value();
  stats.all_replicas_down = all_down_total_->Value();
  stats.shards.resize(n);
  for (size_t i = 0; i < n; ++i) {
    stats.shards[i].requests = shard_requests_total_[i]->Value();
    stats.shards[i].errors = shard_errors_total_[i]->Value();
  }
  stats.replica_picks.assign(n, std::vector<uint64_t>(r_count, 0));
  stats.replica_errors.assign(n, std::vector<uint64_t>(r_count, 0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t r = 0; r < r_count; ++r) {
      stats.replica_picks[i][r] = replica_picks_total_[Slot(i, r)]->Value();
      stats.replica_errors[i][r] = replica_errors_total_[Slot(i, r)]->Value();
    }
  }
  obs::HistogramSnapshot latency = latency_ms_->Snapshot();
  stats.p50_latency_ms = latency.Quantile(0.50);
  stats.p99_latency_ms = latency.Quantile(0.99);
  return stats;
}

ServiceStats ShardedRouter::AggregateSnapshot() const {
  ServiceStats total;
  for (const auto& shard : shards_) {
    ServiceStats s = shard->Snapshot();
    total.admitted += s.admitted;
    total.completed += s.completed;
    total.rejected += s.rejected;
    total.shed += s.shed;
    total.deadline_exceeded += s.deadline_exceeded;
    total.truncated += s.truncated;
    total.cache_hits += s.cache_hits;
    total.cache_misses += s.cache_misses;
    total.cache_evictions += s.cache_evictions;
    total.backend_executions += s.backend_executions;
    total.coalesce_leaders += s.coalesce_leaders;
    total.coalesce_waiters += s.coalesce_waiters;
    total.coalesce_fanout += s.coalesce_fanout;
    total.index_builds += s.index_builds;
  }
  obs::HistogramSnapshot latency = latency_ms_->Snapshot();
  total.p50_latency_ms = latency.Quantile(0.50);
  total.p99_latency_ms = latency.Quantile(0.99);
  return total;
}

}  // namespace shard
}  // namespace vqi
