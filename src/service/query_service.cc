#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "match/canonical.h"

namespace vqi {
namespace {

void SleepMs(double ms) {
  if (ms > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
}

// Canonicalization (match/canonical.h) enforces this vertex bound; larger
// patterns are served uncached rather than rejected.
constexpr size_t kMaxCacheableVertices = 64;

// Search nodes the cache key's canonical code may take. The key is built on
// the submitting thread before any deadline applies, and the symmetry twin
// pruning leaves (k disjoint same-label edges reach k! leaves) would hold
// that thread for minutes. A pattern over this budget is served uncached and
// uncoalesced, like one above kMaxCacheableVertices. The patterns the
// benchmarks and the offline pipelines draw need at most 22 nodes.
constexpr uint64_t kMaxCacheKeySearchNodes = 1024;

// First cooperative step slice for deadline-bounded matching. Slices double
// until the matcher finishes or the wall clock passes the deadline, so the
// overshoot past a deadline is bounded by one slice and total work is at most
// twice the final slice.
constexpr uint64_t kInitialStepSlice = 1u << 14;

bool DeadlinePassed(const QueryRequest& request, const Stopwatch& admitted) {
  return request.deadline_ms > 0 &&
         admitted.ElapsedMillis() >= request.deadline_ms;
}

// Cooperative cancellation (hedged-request losers): checked at the same
// boundaries as the deadline — between targets and between VF2 slices — so a
// poisoned request stops within one slice, just like a deadline overshoot.
bool CancelRequested(const QueryRequest& request) {
  return request.cancel != nullptr &&
         request.cancel->load(std::memory_order_relaxed);
}

const char* KindName(QueryKind kind) {
  return kind == QueryKind::kSuggest ? "suggest" : "match";
}

}  // namespace

const char* RequestPriorityName(RequestPriority priority) {
  switch (priority) {
    case RequestPriority::kInteractive:
      return "interactive";
    case RequestPriority::kNormal:
      return "normal";
    case RequestPriority::kBackground:
      return "background";
  }
  return "unknown";
}

QueryService::QueryService(const GraphDatabase& db, QueryServiceOptions options)
    : db_(db),
      options_(options),
      registry_(options.metrics != nullptr ? options.metrics : &metrics_),
      traces_(options.trace_capacity),
      cache_(std::max<size_t>(1, options.cache_capacity),
             std::max<size_t>(1, options.cache_shards)),
      waiter_budget_(options.coalesce_retry_ratio,
                     options.coalesce_retry_capacity),
      pool_(ThreadPoolOptions{options.num_threads, options.queue_capacity,
                              options.metrics != nullptr ? options.metrics
                                                         : &metrics_,
                              options.metric_labels}) {
  obs::MetricsRegistry& reg = *registry_;
  const obs::Labels& base = options_.metric_labels;
  // Instruments carrying their own label dimension append it to the
  // service-wide base labels, so N shards in one registry never collide.
  auto with = [&base](const char* key, const char* value) {
    obs::Labels labels = base;
    labels.emplace_back(key, value);
    return labels;
  };
  cache_.RegisterMetrics(reg, "vqi_cache", base);
  inflight_.RegisterMetrics(reg, base);
  admitted_total_ = &reg.GetCounter(
      "vqi_requests_admitted_total", "Requests accepted past admission.",
      base);
  completed_total_ = &reg.GetCounter(
      "vqi_requests_completed_total", "Requests resolved (any status).", base);
  rejected_total_ = &reg.GetCounter(
      "vqi_requests_rejected_total",
      "Admission failures: full queue (backpressure) or priority shedding.",
      base);
  shed_background_total_ = &reg.GetCounter(
      "vqi_requests_shed_total",
      "Requests shed by priority at the queue high-water mark.",
      with("priority", "background"));
  shed_normal_total_ = &reg.GetCounter(
      "vqi_requests_shed_total",
      "Requests shed by priority at the queue high-water mark.",
      with("priority", "normal"));
  deadline_exceeded_total_ = &reg.GetCounter(
      "vqi_requests_deadline_exceeded_total",
      "Requests that completed with kDeadlineExceeded.", base);
  truncated_total_ = &reg.GetCounter(
      "vqi_requests_truncated_total",
      "Requests answered with a partial (truncated) result.", base);
  cache_invalidations_total_ = &reg.GetCounter(
      "vqi_cache_invalidations_total",
      "InvalidateCache() calls, each dropping every cached result.", base);
  cache_probe_faults_total_ = &reg.GetCounter(
      "vqi_cache_probe_degraded_total",
      "Cache probes degraded to a miss by an injected cache fault.", base);
  backend_executions_total_ = &reg.GetCounter(
      "vqi_backend_executions_total",
      "Requests that reached the matcher/suggestion backend; cache hits and "
      "coalesced fan-outs are excluded, so on duplicate-heavy traffic this "
      "tracks the unique-query count rather than the request count.",
      base);
  match_steps_total_ = &reg.GetCounter(
      "vqi_match_steps_total", "VF2 recursion steps across all requests.",
      base);
  match_slices_total_ = &reg.GetCounter(
      "vqi_match_slices_total",
      "Cooperative deadline slices run across all requests.", base);
  latency_ms_ = &reg.GetHistogram(
      "vqi_request_latency_ms", "Admission-to-completion request latency.",
      obs::Histogram::DefaultLatencyBoundsMs(), base);
  slices_per_request_ = &reg.GetHistogram(
      "vqi_match_slices_per_request",
      "VF2 invocations one match request needed: one per target graph, plus "
      "one per deadline-slice retry.",
      obs::Histogram::ExponentialBounds(1, 2, 12), base);
  if (options_.fault_injector != nullptr) {
    options_.fault_injector->RegisterMetrics(reg);
  }
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::Shutdown() { pool_.Shutdown(); }

void QueryService::InvalidateCache() {
  cache_.Clear();
  cache_invalidations_total_->Increment();
}

std::string QueryService::CacheKey(const QueryRequest& request) const {
  if (options_.cache_capacity == 0 && !options_.enable_coalescing) return "";
  if (request.pattern.NumVertices() > kMaxCacheableVertices) return "";
  // The key leads with the versions of the data the result reads: the target
  // graph's content version for a single-target match, each member's for an
  // explicit target set, the collection's Version() for kAllGraphs matches
  // and suggestions. An edit therefore reroutes exactly the lookups that
  // read the edited data; unaffected entries keep hitting, and stale ones
  // age out via LRU.
  std::string key;
  if (request.kind == QueryKind::kSuggest ||
      (request.target == kAllGraphs && request.targets.empty())) {
    key += 'a';
    key += std::to_string(db_.Version());
  } else if (!request.targets.empty()) {
    // Admission sorted and deduplicated the set, so equal sets produce equal
    // keys.
    key += 't';
    for (GraphId id : request.targets) {
      key += std::to_string(id);
      key += ':';
      key += std::to_string(db_.ContentVersion(id));
      key += ',';
    }
  } else {
    key += 'g';
    key += std::to_string(db_.ContentVersion(request.target));
  }
  key += '|';
  if (request.kind == QueryKind::kSuggest) {
    // Suggestions depend only on the focus vertex's label and k.
    key += "s|";
    key += std::to_string(request.pattern.VertexLabel(request.focus));
    key += '|';
    key += std::to_string(request.top_k);
    return key;
  }
  std::optional<std::string> code =
      CanonicalCodeWithin(request.pattern, kMaxCacheKeySearchNodes);
  if (!code.has_value()) return "";
  const MatchOptions& mo = options_.match_options;
  key += "m|";
  key += *code;
  key += '|';
  key += std::to_string(request.target);
  key += '|';
  key += std::to_string(request.max_embeddings);
  key += '|';
  key += mo.induced ? '1' : '0';
  key += mo.match_vertex_labels ? '1' : '0';
  key += mo.match_edge_labels ? '1' : '0';
  key += mo.dummy_is_wildcard ? '1' : '0';
  return key;
}

StatusOr<std::future<QueryResult>> QueryService::Submit(QueryRequest request) {
  Stopwatch admitted;
  obs::RequestTrace trace;
  trace.id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  trace.kind = KindName(request.kind);
  {
    obs::TraceSpan span(trace, "admission");
    if (request.pattern.Empty()) {
      return Status::InvalidArgument("query pattern is empty");
    }
    if (request.kind == QueryKind::kMatchCount && !request.targets.empty()) {
      // Normalize the explicit target set so semantically equal requests
      // coalesce and cache together: sorted, deduplicated, and the (ignored)
      // single-target field pinned to its default.
      std::sort(request.targets.begin(), request.targets.end());
      request.targets.erase(
          std::unique(request.targets.begin(), request.targets.end()),
          request.targets.end());
      for (GraphId id : request.targets) {
        if (!db_.Contains(id)) {
          return Status::NotFound("unknown target graph id " +
                                  std::to_string(id));
        }
      }
      request.target = kAllGraphs;
    } else if (request.target != kAllGraphs && !db_.Contains(request.target)) {
      return Status::NotFound("unknown target graph id " +
                              std::to_string(request.target));
    }
    if (request.kind == QueryKind::kSuggest &&
        request.focus >= request.pattern.NumVertices()) {
      return Status::InvalidArgument("focus vertex out of range");
    }
    // Chaos hook: the admission machinery itself can stall or error (an
    // overloaded front door). An injected drop behaves like backpressure.
    if (options_.fault_injector != nullptr) {
      resilience::FaultDecision fault = options_.fault_injector->Decide(
          resilience::FaultPoint::kAdmission);
      SleepMs(fault.latency_ms);
      if (!fault.status.ok()) {
        rejected_total_->Increment();
        return fault.status;
      }
    }
  }

  std::string key;
  std::optional<QueryResult> hit;
  // A miss here counts only once the request is admitted (queued or parked
  // as a waiter): a refused submission, and each retry of it, is no lookup
  // the cache could have served.
  bool admission_miss = false;
  {
    obs::TraceSpan span(trace, "cache_probe");
    key = CacheKey(request);
    // Cache probe before any pool dispatch: a hit is served synchronously on
    // the submitting thread.
    hit = ProbeCache(key, &admission_miss);
  }
  if (hit.has_value()) {
    QueryResult result = std::move(*hit);
    result.from_cache = true;
    result.coalesced = false;
    result.match_steps = 0;
    result.match_slices = 0;
    result.latency_ms = admitted.ElapsedMillis();
    admitted_total_->Increment();
    RecordCompletion(result, std::move(trace));
    std::promise<QueryResult> ready;
    std::future<QueryResult> future = ready.get_future();
    ready.set_value(std::move(result));
    return future;
  }

  // Priority load shedding applies only to requests that would occupy a
  // worker: cache hits above were served for free, and shedding cheap-to-
  // serve traffic would lower availability for nothing. Coalesced waiters
  // are NOT free — they hold memory and fan-out work — so they pass through
  // this gate and count toward its occupancy.
  if (Status shed = AdmitAtPriority(request.priority); !shed.ok()) {
    rejected_total_->Increment();
    return shed;
  }

  auto promise = std::make_shared<std::promise<QueryResult>>();
  std::future<QueryResult> future = promise->get_future();

  // A hedge never joins the in-flight table: its primary usually leads the
  // entry for the same key, and a parked hedge would wait on the very
  // execution it is racing (see docs/sharding.md).
  const bool coalesce =
      options_.enable_coalescing && !key.empty() && !request.hedge;
  if (coalesce) {
    InflightWaiter waiter{std::move(request), promise, admitted, Stopwatch(),
                          std::move(trace)};
    if (inflight_.JoinOrLead(key, &waiter) == InflightTable::Role::kWaiter) {
      // Single-flight: an identical request is already queued or running.
      // This one parked inside the table; the leader's fan-out resolves the
      // promise. The deposit funds a potential re-execution if the leader's
      // result turns out unshareable.
      waiter_budget_.OnRequest();
      if (admission_miss) cache_.CountMiss(key);
      admitted_total_->Increment();
      return future;
    }
    // Leader: take the request back and execute it for everyone.
    request = std::move(waiter.request);
    trace = std::move(waiter.trace);
  }

  Status submitted =
      Dispatch(std::make_shared<QueryRequest>(std::move(request)), key,
               admitted, std::move(trace), promise, /*lead=*/coalesce);
  if (!submitted.ok()) {
    rejected_total_->Increment();
    return submitted;
  }
  if (admission_miss) cache_.CountMiss(key);
  admitted_total_->Increment();
  return future;
}

Status QueryService::Dispatch(std::shared_ptr<QueryRequest> request,
                              std::string key, Stopwatch admitted,
                              obs::RequestTrace trace,
                              std::shared_ptr<std::promise<QueryResult>> promise,
                              bool lead) {
  Stopwatch queued;
  Status submitted = pool_.Submit(
      [this, request, key, admitted, queued, promise, lead,
       trace = std::move(trace)]() mutable {
        trace.stages.push_back({"queue_wait", queued.ElapsedMillis()});
        QueryResult result = ExecuteOnWorker(*request, key, admitted, trace);
        result.latency_ms = admitted.ElapsedMillis();
        // Fan out before resolving the leader's own promise: a caller woken
        // by the leader future must observe the table entry already retired.
        if (lead) FanOut(key, result);
        RecordCompletion(result, std::move(trace));
        promise->set_value(std::move(result));
      });
  if (!submitted.ok() && lead) AbortLead(key, submitted);
  return submitted;
}

QueryResult QueryService::ExecuteOnWorker(const QueryRequest& request,
                                          const std::string& key,
                                          const Stopwatch& admitted,
                                          obs::RequestTrace& trace) {
  QueryResult result;
  // Second probe at dequeue: an identical request admitted just ahead of
  // this one may have populated the cache while this one queued
  // (coalescing-lite; collapses duplicates that arrive after their leader
  // finished). A hit also rescues requests whose deadline expired in the
  // queue — serving it is free.
  std::optional<QueryResult> hit;
  {
    obs::TraceSpan span(trace, "dequeue_probe");
    hit = ProbeCache(key);
  }
  if (hit.has_value()) {
    result = std::move(*hit);
    result.from_cache = true;
    result.coalesced = false;
    result.match_steps = 0;
    result.match_slices = 0;
    return result;
  }
  obs::TraceSpan span(trace, "execute");
  // Chaos hook: the worker executing this request can stall, fail, or lose
  // the task. A drop still resolves the promise — the service models the
  // *detection* of a lost task (a real one would hang the future forever,
  // which is exactly the outage mode the chaos suite asserts cannot happen).
  resilience::FaultDecision fault;
  if (options_.fault_injector != nullptr) {
    fault =
        options_.fault_injector->Decide(resilience::FaultPoint::kExecutor);
    SleepMs(fault.latency_ms);
  }
  if (!fault.status.ok()) {
    result.status = fault.status;
  } else {
    backend_executions_total_->Increment();
    result = Run(request, admitted);
  }
  span.Stop();
  // Partial (truncated) and errored results are never cached: a later
  // identical request must get the chance to compute the full answer.
  if (result.status.ok() && !result.truncated && !key.empty() &&
      options_.cache_capacity > 0) {
    cache_.Put(key, result);
  }
  return result;
}

void QueryService::FanOut(const std::string& key, const QueryResult& leader) {
  // The database is only edited between requests, so every waiter's key
  // still names the data the leader read.
  std::vector<InflightWaiter> waiters = inflight_.Complete(key);
  for (InflightWaiter& waiter : waiters) {
    ResolveWaiter(std::move(waiter), key, leader);
  }
}

void QueryService::ResolveWaiter(InflightWaiter waiter, const std::string& key,
                                 const QueryResult& leader) {
  // Shareable: any full OK result (even with a waiter whose own deadline
  // expired in flight — serving a ready answer is free, same rationale as
  // the dequeue-probe rescue), or a partial one the waiter opted into via
  // allow_partial. Leader errors and rejected partials re-execute instead,
  // within the retry budget.
  const bool shareable =
      leader.status.ok() && (!leader.truncated || waiter.request.allow_partial);
  if (!shareable) {
    Reexecute(std::move(waiter), key, leader);
    return;
  }
  QueryResult result = leader;
  result.coalesced = true;
  result.match_steps = 0;
  result.match_slices = 0;
  result.latency_ms = waiter.admitted.ElapsedMillis();
  inflight_.RecordFanout(1);
  inflight_.ObserveWaiterWait(waiter.attached.ElapsedMillis());
  RecordCompletion(result, std::move(waiter.trace));
  waiter.promise->set_value(std::move(result));
}

void QueryService::Reexecute(InflightWaiter waiter, const std::string& key,
                             const QueryResult& leader) {
  inflight_.ObserveWaiterWait(waiter.attached.ElapsedMillis());
  // The outcome a waiter inherits when its re-execution cannot run. A
  // rejected partial becomes the deadline outcome with the partial counts
  // attached; otherwise the leader's own status stands.
  auto leader_outcome = [&leader]() {
    QueryResult result;
    result.coalesced = true;
    if (leader.status.ok() && leader.truncated) {
      result.status = Status::DeadlineExceeded(
          "coalesced leader returned a partial result");
      result.embedding_count = leader.embedding_count;
      result.matched_graphs = leader.matched_graphs;
      result.truncated = true;
    } else {
      result.status = leader.status;
    }
    return result;
  };
  if (!waiter_budget_.TryConsumeRetry()) {
    // Budget exhausted: re-running every waiter of a failing leader would
    // amplify a coalesced burst back into the thundering herd coalescing
    // absorbed. Propagate the leader's outcome instead.
    inflight_.RecordReexecDenied();
    QueryResult result = leader_outcome();
    result.latency_ms = waiter.admitted.ElapsedMillis();
    RecordCompletion(result, std::move(waiter.trace));
    waiter.promise->set_value(std::move(result));
    return;
  }
  inflight_.RecordReexec();
  const char* kind = KindName(waiter.request.kind);
  auto promise = waiter.promise;
  Stopwatch admitted = waiter.admitted;
  // Dispatch as a plain non-leading task: re-executions never re-join the
  // in-flight table, so a persistently failing leader cannot grow retry
  // chains.
  Status submitted =
      Dispatch(std::make_shared<QueryRequest>(std::move(waiter.request)), key,
               admitted, std::move(waiter.trace), promise, /*lead=*/false);
  if (!submitted.ok()) {
    // Pool full or shut down; the promise must still resolve. The request
    // was admitted, so a retroactive rejection would be dishonest: the
    // waiter inherits the leader's outcome (same contract as budget
    // denial). The trace moved into the dead dispatch, so record a minimal
    // fresh one.
    QueryResult result = leader_outcome();
    result.latency_ms = admitted.ElapsedMillis();
    obs::RequestTrace trace;
    trace.id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
    trace.kind = kind;
    RecordCompletion(result, std::move(trace));
    promise->set_value(std::move(result));
  }
}

void QueryService::AbortLead(const std::string& key, const Status& status) {
  // The leader never entered the queue, so its entry must be retired here or
  // later duplicates would park on a leader that will never fan out. Waiters
  // that managed to attach in the meantime get the same rejection the leader
  // got — admission backpressure, not a computed answer.
  std::vector<InflightWaiter> waiters = inflight_.Complete(key);
  for (InflightWaiter& waiter : waiters) {
    QueryResult result;
    result.status = status;
    result.coalesced = true;
    result.latency_ms = waiter.admitted.ElapsedMillis();
    inflight_.ObserveWaiterWait(waiter.attached.ElapsedMillis());
    RecordCompletion(result, std::move(waiter.trace));
    waiter.promise->set_value(std::move(result));
  }
}

QueryResult QueryService::Execute(QueryRequest request) {
  auto submitted = Submit(std::move(request));
  if (!submitted.ok()) {
    QueryResult result;
    result.status = submitted.status();
    return result;
  }
  return submitted.value().get();
}

QueryResult QueryService::Run(const QueryRequest& request,
                              const Stopwatch& admitted) {
  if (DeadlinePassed(request, admitted)) {
    QueryResult result;
    if (request.allow_partial && request.kind == QueryKind::kMatchCount) {
      // Graceful degradation: an empty answer is a valid (trivial) subset.
      result.truncated = true;
      result.status = Status::OK();
    } else {
      result.status = Status::DeadlineExceeded(
          "deadline expired before execution started");
    }
    return result;
  }
  return request.kind == QueryKind::kSuggest ? RunSuggest(request)
                                             : RunMatch(request, admitted);
}

QueryResult QueryService::RunMatch(const QueryRequest& request,
                                   const Stopwatch& admitted) {
  QueryResult result;
  // Everything accumulated below is real: counted embeddings exist and a
  // graph enters matched_graphs only once >= 1 embedding was found, so a
  // truncated result is always a subset of the fault-free answer.
  auto truncate = [&](const char* why) {
    result.truncated = true;
    result.status = request.allow_partial ? Status::OK()
                                          : Status::DeadlineExceeded(why);
  };
  // One pin per request: every target is matched through the view of the
  // database's current Version(), with no lock taken per target graph.
  const std::shared_ptr<const View> view = PinView();
  const CollectionIndex& indexes = view->matches;
  auto find = [&indexes](GraphId id) -> const MatchIndex& {
    const MatchIndex* index = indexes.Find(id);
    // Admission checked the id, and the database is not edited mid-request.
    VQI_CHECK(index != nullptr) << "graph id " << id << " not found";
    return *index;
  };
  // Pattern-side prep is compiled once per request, not per target or slice.
  const PatternPlan plan(request.pattern, indexes.options());
  // `target` is null for a graph the collection's admission column ruled
  // out; it is counted like a matcher that does not fit, at 0 steps.
  auto match_one = [&](GraphId id, const MatchIndex* target) -> Status {
    if (CancelRequested(request)) {
      return Status::Cancelled("request cancelled between targets");
    }
    if (DeadlinePassed(request, admitted)) {
      return Status::DeadlineExceeded("deadline expired between targets");
    }
    uint64_t count = 0;
    Status s = CountWithDeadline(plan, target, request, admitted, &count,
                                 &result);
    if (s.ok() || s.code() == StatusCode::kDeadlineExceeded) {
      // On deadline, `count` is the partial lower bound from the final
      // slice — still a subset of the true answer.
      result.embedding_count += count;
      if (count > 0) result.matched_graphs.push_back(id);
    }
    return s;
  };
  auto match_many = [&](GraphId id, const MatchIndex* target) -> bool {
    Status s = match_one(id, target);
    if (s.code() == StatusCode::kDeadlineExceeded) {
      truncate("deadline expired mid-collection");
      return false;
    }
    if (!s.ok()) {  // injected vf2_slice fault
      result.status = s;
      return false;
    }
    return true;
  };

  if (!request.targets.empty()) {
    for (GraphId id : request.targets) {
      if (!match_many(id, &find(id))) return result;
    }
  } else if (request.target == kAllGraphs) {
    // The view keeps graphs() order, so matched_graphs does too. The dense
    // admission column rules most graphs out before their index is read.
    for (size_t i = 0; i < indexes.size(); ++i) {
      const MatchIndex* target =
          Admits(plan, indexes.admission(i), options_.match_options)
              ? &indexes.at(i)
              : nullptr;
      if (!match_many(indexes.id(i), target)) return result;
    }
  } else {
    Status s = match_one(request.target, &find(request.target));
    if (s.code() == StatusCode::kDeadlineExceeded) {
      truncate("deadline expired while matching");
      return result;
    }
    if (!s.ok()) {
      result.status = s;
      return result;
    }
  }
  result.status = Status::OK();
  return result;
}

QueryResult QueryService::RunSuggest(const QueryRequest& request) {
  QueryResult result;
  result.suggestions = PinView()->suggestions.SuggestNextEdges(
      request.pattern, request.focus, request.top_k);
  result.status = Status::OK();
  return result;
}

std::shared_ptr<const QueryService::View> QueryService::PinView() {
  // Nullptr is "no view yet": an empty, never-edited database has Version 0.
  const uint64_t version = db_.Version();
  std::shared_future<std::shared_ptr<const View>> pending;
  std::optional<std::promise<std::shared_ptr<const View>>> built;
  std::shared_ptr<const View> previous;
  {
    MutexLock lock(&view_mutex_);
    if (view_ != nullptr && view_->matches.version() == version) return view_;
    if (building_.valid()) {
      pending = building_;
    } else {
      built.emplace();
      building_ = built->get_future().share();
      previous = view_;
    }
  }
  if (pending.valid()) return pending.get();
  // Built with no lock held: the scan covers every graph of the collection,
  // and its waiters block on the future, not on the mutex.
  auto next = std::make_shared<const View>(View{
      previous == nullptr ? CollectionIndex(db_, CandidateIndexOptions{})
                          : CollectionIndex(previous->matches, db_),
      SuggestionIndex::Build(db_)});
  index_builds_.fetch_add(next->matches.builds(), std::memory_order_relaxed);
  {
    MutexLock lock(&view_mutex_);
    view_ = next;
    building_ = {};
  }
  built->set_value(next);
  return next;
}

Status QueryService::CountWithDeadline(const PatternPlan& pattern,
                                       const MatchIndex* target,
                                       const QueryRequest& request,
                                       const Stopwatch& admitted,
                                       uint64_t* count, QueryResult* result) {
  // Chaos hook: one matching slice can be slow (injected latency eats the
  // deadline, the slow-shard mode) or fail outright.
  auto slice_fault = [&]() -> Status {
    if (options_.fault_injector == nullptr) return Status::OK();
    resilience::FaultDecision fault = options_.fault_injector->Decide(
        resilience::FaultPoint::kVf2Slice);
    SleepMs(fault.latency_ms);
    if (fault.dropped) {
      return Status::Unavailable("injected slice drop at vf2_slice");
    }
    return fault.status;
  };

  MatchOptions opts = options_.match_options;
  opts.max_embeddings = request.max_embeddings;
  // One slice: a count under `max_steps`, true when it hit the budget. A
  // ruled-out target (null) finds nothing at 0 steps and never hits it, as
  // a matcher over a pair that does not fit would.
  auto run_slice = [&](uint64_t max_steps) {
    result->match_slices += 1;
    if (target == nullptr) {
      *count = 0;
      return false;
    }
    opts.max_steps = max_steps;
    SubgraphMatcher matcher(pattern, *target, opts);
    *count = matcher.CountEmbeddings();
    result->match_steps += matcher.steps();
    return matcher.hit_step_limit();
  };
  if (request.deadline_ms <= 0) {
    if (CancelRequested(request)) {
      return Status::Cancelled("request cancelled before matching");
    }
    VQI_RETURN_IF_ERROR(slice_fault());
    run_slice(0);
    return Status::OK();
  }
  // The matcher cannot pause/resume, so the cooperative budget hook
  // (max_steps) is applied in exponentially growing slices: re-running from
  // scratch at double the cap costs at most 2x the final successful run and
  // bounds how far past the deadline a worker can overshoot.
  for (uint64_t slice = kInitialStepSlice;; slice *= 2) {
    // Max_steps poisoning: a cancelled request treats its remaining step
    // budget as exhausted and abandons the count at this slice boundary.
    if (CancelRequested(request)) {
      return Status::Cancelled("request cancelled at slice boundary");
    }
    VQI_RETURN_IF_ERROR(slice_fault());
    // Each slice recounts from scratch, so overwrite rather than accumulate:
    // after a deadline the last value is the best lower bound found.
    if (!run_slice(slice)) return Status::OK();
    if (admitted.ElapsedMillis() >= request.deadline_ms) {
      return Status::DeadlineExceeded("deadline expired mid-match");
    }
  }
}

Status QueryService::AdmitAtPriority(RequestPriority priority) {
  if (priority == RequestPriority::kInteractive ||
      options_.shed_high_water >= 1.0) {
    return Status::OK();
  }
  double high_water = std::max(0.0, options_.shed_high_water);
  double capacity = static_cast<double>(pool_.queue_capacity());
  // Background sheds at the high-water mark, normal halfway between the
  // mark and a full queue — the closer the queue is to full, the more
  // important the traffic must be to enter it.
  double mark = priority == RequestPriority::kBackground
                    ? high_water * capacity
                    : (high_water + 1.0) / 2.0 * capacity;
  // Occupancy counts attached coalesced waiters alongside queued tasks: a
  // flood of duplicates executes once but still holds N promises, traces,
  // and fan-out work, so it must not bypass overload protection.
  double occupancy =
      static_cast<double>(pool_.QueueDepth() + inflight_.TotalWaiters());
  if (occupancy < mark) return Status::OK();
  if (priority == RequestPriority::kBackground) {
    shed_background_total_->Increment();
  } else {
    shed_normal_total_->Increment();
  }
  return Status::Unavailable(
      std::string("load shed: queue over the ") +
      RequestPriorityName(priority) + " high-water mark");
}

std::optional<QueryResult> QueryService::ProbeCache(const std::string& key,
                                                    bool* deferred_miss) {
  // cache_capacity 0 disables the cache but not coalescing, which still
  // computes keys — so the gate lives here, not in CacheKey.
  if (key.empty() || options_.cache_capacity == 0) return std::nullopt;
  if (options_.fault_injector != nullptr) {
    resilience::FaultDecision fault = options_.fault_injector->Decide(
        resilience::FaultPoint::kCacheProbe);
    SleepMs(fault.latency_ms);
    if (!fault.status.ok()) {
      // A broken cache degrades to a miss — it must never fail a request.
      cache_probe_faults_total_->Increment();
      return std::nullopt;
    }
  }
  std::optional<QueryResult> hit =
      cache_.Get(key, /*count_miss=*/deferred_miss == nullptr);
  if (deferred_miss != nullptr) *deferred_miss = !hit.has_value();
  return hit;
}

void QueryService::RecordCompletion(const QueryResult& result,
                                    obs::RequestTrace trace) {
  completed_total_->Increment();
  if (result.status.code() == StatusCode::kDeadlineExceeded) {
    deadline_exceeded_total_->Increment();
  }
  if (result.truncated) truncated_total_->Increment();
  latency_ms_->Observe(result.latency_ms);
  if (result.match_slices > 0) {
    match_steps_total_->Increment(result.match_steps);
    match_slices_total_->Increment(result.match_slices);
    slices_per_request_->Observe(static_cast<double>(result.match_slices));
  }
  trace.status = StatusCodeToString(result.status.code());
  trace.from_cache = result.from_cache;
  trace.total_ms = result.latency_ms;
  trace.match_steps = result.match_steps;
  trace.match_slices = result.match_slices;
  traces_.Record(std::move(trace));
}

ServiceStats QueryService::Snapshot() const {
  ServiceStats stats;
  stats.admitted = admitted_total_->Value();
  stats.completed = completed_total_->Value();
  stats.rejected = rejected_total_->Value();
  stats.shed = shed_background_total_->Value() + shed_normal_total_->Value();
  stats.deadline_exceeded = deadline_exceeded_total_->Value();
  stats.truncated = truncated_total_->Value();
  CacheStats cache_stats = cache_.GetStats();
  stats.cache_hits = cache_stats.hits;
  stats.cache_misses = cache_stats.misses;
  stats.cache_evictions = cache_stats.evictions;
  stats.backend_executions = backend_executions_total_->Value();
  stats.coalesce_leaders = inflight_.leaders();
  stats.coalesce_waiters = inflight_.waiters();
  stats.coalesce_fanout = inflight_.fanout();
  obs::HistogramSnapshot latency = latency_ms_->Snapshot();
  stats.p50_latency_ms = latency.Quantile(0.50);
  stats.p99_latency_ms = latency.Quantile(0.99);
  stats.index_builds = index_builds_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace vqi
