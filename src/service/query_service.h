#ifndef VQLIB_SERVICE_QUERY_SERVICE_H_
#define VQLIB_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/field_count.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/stopwatch.h"
#include "graph/graph.h"
#include "graph/graph_database.h"
#include "match/candidate_index.h"
#include "match/vf2.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/inflight_table.h"
#include "service/lru_cache.h"
#include "service/query_types.h"
#include "service/resilience/fault_injector.h"
#include "service/resilience/retry.h"
#include "service/thread_pool.h"
#include "vqi/suggestion.h"

namespace vqi {

/// Point-in-time counters of a QueryService. The latency percentiles are
/// estimated from the vqi_request_latency_ms histogram (fixed memory however
/// long the service runs); the full instrument set is on metrics().
struct ServiceStats {
  uint64_t admitted = 0;           ///< requests accepted into the queue
  uint64_t completed = 0;          ///< futures resolved (any status)
  uint64_t rejected = 0;           ///< admission failures (queue full)
  uint64_t shed = 0;               ///< rejected by priority load shedding
  uint64_t deadline_exceeded = 0;  ///< completed with kDeadlineExceeded
  uint64_t truncated = 0;          ///< completed with a partial (truncated) answer
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  /// Requests that actually reached the matcher / suggestion backend — the
  /// number single-flight coalescing drives toward the unique-query count on
  /// duplicate-heavy workloads (cache hits and coalesced waiters are zero
  /// backend work).
  uint64_t backend_executions = 0;
  uint64_t coalesce_leaders = 0;   ///< requests that led a single-flight entry
  uint64_t coalesce_waiters = 0;   ///< requests attached to an in-flight leader
  uint64_t coalesce_fanout = 0;    ///< waiter responses served from a leader
  double p50_latency_ms = 0;
  double p99_latency_ms = 0;
  /// MatchIndex builds. The first request indexes every graph of the
  /// collection, and the first after an edit rebuilds only the graphs whose
  /// content version moved, so steady state is one per graph and each
  /// rewritten graph adds one.
  uint64_t index_builds = 0;
};

// ServiceStats is positionally brace-initialized by tests and tools;
// inserting a field mid-struct silently shifts every later initializer.
// Append only, then update this count after auditing the call sites.
static_assert(FieldCount<ServiceStats>() == 16,
              "ServiceStats changed shape: append fields at the end, audit "
              "brace initializers, then update this count");

/// Sizing and semantics knobs for a QueryService.
struct QueryServiceOptions {
  size_t num_threads = 4;
  size_t queue_capacity = 256;
  /// Total result-cache entries (0 disables the cache entirely).
  size_t cache_capacity = 1024;
  size_t cache_shards = 8;
  /// Matching semantics applied to every kMatchCount request. The step cap
  /// is managed internally by the deadline logic; leave max_steps at 0.
  MatchOptions match_options = {};
  /// Completed-request traces retained in the ring buffer (0 disables
  /// tracing).
  size_t trace_capacity = 256;
  /// Queue-depth fraction at which priority load shedding starts: at
  /// >= shed_high_water * queue_capacity kBackground requests are shed, at
  /// >= halfway between the high-water mark and a full queue kNormal
  /// requests are shed too. kInteractive requests are only rejected by a
  /// full queue. 1.0 disables shedding. Occupancy counts queued tasks plus
  /// attached coalesced waiters.
  double shed_high_water = 0.75;
  /// Chaos hook: when set, the service consults this injector at its named
  /// fault points (cache_probe, admission, executor, vf2_slice — see
  /// docs/resilience.md). Must outlive the service; its metrics are
  /// registered into the service's registry. Null = no injection.
  resilience::FaultInjector* fault_injector = nullptr;
  /// Single-flight request coalescing: concurrent requests sharing a cache
  /// key collapse onto one backend execution whose result fans out to every
  /// waiter (see docs/service.md). Works with the cache disabled — the
  /// canonical key is still computed for coalescing. Patterns too large to
  /// canonicalize are neither cached nor coalesced.
  bool enable_coalescing = true;
  /// Token-bucket budget for *error-triggered* waiter re-execution (leader
  /// failed, or returned a partial a strict waiter rejects): each attached
  /// waiter deposits `ratio` tokens, each re-execution withdraws one — so a
  /// failing leader cannot amplify a coalesced burst back into a full
  /// thundering herd.
  double coalesce_retry_ratio = 0.5;
  double coalesce_retry_capacity = 8.0;
  /// External metrics registry: when set, every instrument (service, pool,
  /// cache, coalescing, faults) is registered here instead of the service's
  /// own registry, so N shards can share one scrape. Must outlive the
  /// service. Null = the service owns its registry (the default, and what
  /// metrics() returns either way).
  obs::MetricsRegistry* metrics = nullptr;
  /// Labels applied to every instrument this service registers — e.g.
  /// {{"shard", "2"}} under a sharded router, so same-named series from N
  /// shards stay distinct in one registry. Instruments with their own label
  /// dimension (shed priority, cache_shard, pool) append it to these.
  obs::Labels metric_labels = {};
};

// Same positional-initializer guard as ServiceStats: every member carries
// an explicit default, so `QueryServiceOptions{}` is always the documented
// configuration and a mid-struct insertion fails here instead of silently
// reconfiguring brace-initialized call sites.
static_assert(FieldCount<QueryServiceOptions>() == 13,
              "QueryServiceOptions changed shape: append fields at the end, "
              "audit brace initializers, then update this count");

/// Concurrent serving layer over a GraphDatabase.
///
/// Request lifecycle: admission (validate + backpressure) → cache probe
/// (canonical-form key, so isomorphic re-draws of a query hit) → single-
/// flight coalescing (the first in-flight request for a key executes, its
/// concurrent duplicates attach as waiters and share the one result) →
/// dispatch to the worker pool → VF2 / suggestion-index execution under the
/// request's deadline → fan-out + stats recording. See docs/service.md.
///
/// Deadlines are honored cooperatively through the matcher's existing
/// max_steps budget hook: matching runs in exponentially growing step slices
/// and the wall clock is checked between slices and between target graphs,
/// so a runaway pattern cannot pin a worker past its budget by more than one
/// slice.
///
/// Every request is metered into the service's MetricsRegistry (see
/// docs/observability.md for the instrument catalog) and leaves a
/// stage-by-stage RequestTrace in a bounded ring of recent traces.
///
/// Thread-safe; the database must outlive the service. It may be mutated
/// between requests (e.g. VqiMaintainer batches), never during one. Cache
/// and coalescing keys carry the content versions of the data each result
/// reads, so an edit reroutes exactly the lookups it affects: no caller has
/// to invalidate anything for results to stay fresh. Execution reads one
/// immutable view per database Version(): a CollectionIndex of every graph
/// and the SuggestionIndex, built by the first request after an edit, copy-
/// on-write from the previous view, and pinned once per request.
class QueryService {
 public:
  explicit QueryService(const GraphDatabase& db,
                        QueryServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admits `request` and returns a future resolving to its result. Fails
  /// with kUnavailable when the queue is full (the caller should back off),
  /// kInvalidArgument for an empty pattern, kNotFound for an unknown target.
  StatusOr<std::future<QueryResult>> Submit(QueryRequest request);

  /// Convenience: Submit and wait. A rejected admission is reported through
  /// QueryResult::status.
  QueryResult Execute(QueryRequest request);

  /// Counters + latency percentiles over everything served so far.
  ServiceStats Snapshot() const;

  /// Drops every cached result. Never needed for freshness (cache keys
  /// follow the database's content versions); it only frees the entries.
  void InvalidateCache();

  /// The service's instrument registry (counters, gauges, histograms):
  /// the external one when QueryServiceOptions::metrics was set, otherwise
  /// the internally owned registry. Exposition: obs::ToPrometheusText /
  /// obs::ToJson.
  obs::MetricsRegistry& metrics() { return *registry_; }
  const obs::MetricsRegistry& metrics() const { return *registry_; }

  /// Ring buffer of recently completed request traces.
  const obs::TraceRecorder& traces() const { return traces_; }

  /// Graceful shutdown: admitted requests complete, new ones are rejected.
  void Shutdown();

  size_t num_threads() const { return pool_.num_threads(); }
  size_t queue_capacity() const { return pool_.queue_capacity(); }
  /// Worker-pool tasks admitted but not yet running (approximate under
  /// concurrency) — the live saturation signal /healthz reports.
  size_t QueueDepth() const { return pool_.QueueDepth(); }

 private:
  QueryResult Run(const QueryRequest& request, const Stopwatch& admitted);
  QueryResult RunMatch(const QueryRequest& request, const Stopwatch& admitted);
  QueryResult RunSuggest(const QueryRequest& request);
  /// What execution reads of one database Version(): every graph's match
  /// index, built with truss shells, and the suggestion index.
  struct View {
    CollectionIndex matches;
    SuggestionIndex suggestions;
  };
  /// The view of the database's current Version(). The first caller after
  /// an edit builds it copy-on-write from the held view with no lock held;
  /// callers arriving during the build wait for it (single-flight).
  std::shared_ptr<const View> PinView() VQLIB_EXCLUDES(view_mutex_);
  /// Counts embeddings of the request's compiled `pattern` in `target` in
  /// cooperative step slices. Returns OK when the count completed,
  /// kDeadlineExceeded when the deadline expired first (*count then holds the
  /// partial lower bound from the final slice), or an injected vf2_slice
  /// fault status. Accumulates slice/step telemetry into `result`. A null
  /// `target` is a graph the admission column ruled out: one slice, with its
  /// cancellation check and fault draw, at 0 steps.
  Status CountWithDeadline(const PatternPlan& pattern,
                           const MatchIndex* target,
                           const QueryRequest& request,
                           const Stopwatch& admitted, uint64_t* count,
                           QueryResult* result);
  /// Non-OK when priority load shedding rejects this request at the current
  /// occupancy — queued tasks plus attached coalesced waiters (see
  /// QueryServiceOptions::shed_high_water).
  Status AdmitAtPriority(RequestPriority priority);
  /// Cache probe behind the cache_probe fault point: an injected fault
  /// degrades to a miss (the cache is an optimization, never a failure
  /// source). With `deferred_miss` set, a lookup that misses is not counted
  /// but reported there, for the caller to count with cache_.CountMiss.
  std::optional<QueryResult> ProbeCache(const std::string& key,
                                        bool* deferred_miss = nullptr);
  /// Cache/coalescing key, or "" when the request is uncacheable (pattern
  /// too large for canonicalization, or both the cache and coalescing are
  /// disabled). The key embeds the versions of the data the result reads.
  std::string CacheKey(const QueryRequest& request) const;
  /// Enqueues the worker-side task for `request` (dequeue re-probe, execute,
  /// cache insert, fan-out when `lead`, completion recording). On a failed
  /// enqueue the leader's in-flight entry is aborted.
  Status Dispatch(std::shared_ptr<QueryRequest> request, std::string key,
                  Stopwatch admitted, obs::RequestTrace trace,
                  std::shared_ptr<std::promise<QueryResult>> promise,
                  bool lead);
  /// The worker-side body shared by leaders and waiter re-executions.
  QueryResult ExecuteOnWorker(const QueryRequest& request,
                              const std::string& key,
                              const Stopwatch& admitted,
                              obs::RequestTrace& trace);
  /// Resolves every waiter attached to `key` from the leader's result: full
  /// results and accepted partials fan out directly, everything else
  /// re-executes within the coalesce retry budget.
  void FanOut(const std::string& key, const QueryResult& leader);
  void ResolveWaiter(InflightWaiter waiter, const std::string& key,
                     const QueryResult& leader);
  void Reexecute(InflightWaiter waiter, const std::string& key,
                 const QueryResult& leader);
  /// Leader dispatch failed: answer any already-attached waiter with the
  /// same rejection.
  void AbortLead(const std::string& key, const Status& status);
  void RecordCompletion(const QueryResult& result, obs::RequestTrace trace);

  const GraphDatabase& db_;
  QueryServiceOptions options_;
  // Declared before cache_/pool_: both register instruments here during
  // construction and hold references for their lifetime.
  obs::MetricsRegistry metrics_;
  // The registry in use: options_.metrics when provided, else &metrics_.
  obs::MetricsRegistry* registry_;
  obs::TraceRecorder traces_;
  // The latest view (nullptr before the first request that needs one) and,
  // while the next one is being built, the future its waiters block on.
  Mutex view_mutex_;
  std::shared_ptr<const View> view_ VQLIB_GUARDED_BY(view_mutex_);
  std::shared_future<std::shared_ptr<const View>> building_
      VQLIB_GUARDED_BY(view_mutex_);
  // Sum of builds() over the views this service built.
  std::atomic<uint64_t> index_builds_{0};
  ShardedLruCache<QueryResult> cache_;
  // Declared before pool_: leader tasks running during pool shutdown still
  // fan out through the table and the budget.
  InflightTable inflight_;
  resilience::RetryBudget waiter_budget_;
  ThreadPool pool_;

  std::atomic<uint64_t> next_trace_id_{0};

  // Instrument handles resolved once in the constructor.
  obs::Counter* admitted_total_;
  obs::Counter* completed_total_;
  obs::Counter* rejected_total_;
  obs::Counter* shed_background_total_;
  obs::Counter* shed_normal_total_;
  obs::Counter* deadline_exceeded_total_;
  obs::Counter* truncated_total_;
  obs::Counter* cache_invalidations_total_;
  obs::Counter* cache_probe_faults_total_;
  obs::Counter* backend_executions_total_;
  obs::Counter* match_steps_total_;
  obs::Counter* match_slices_total_;
  obs::Histogram* latency_ms_;
  obs::Histogram* slices_per_request_;
};

}  // namespace vqi

#endif  // VQLIB_SERVICE_QUERY_SERVICE_H_
