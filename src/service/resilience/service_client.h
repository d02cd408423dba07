#ifndef VQLIB_SERVICE_RESILIENCE_SERVICE_CLIENT_H_
#define VQLIB_SERVICE_RESILIENCE_SERVICE_CLIENT_H_

#include <cstdint>
#include <future>
#include <string>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "service/resilience/circuit_breaker.h"
#include "service/resilience/retry.h"

namespace vqi {
namespace resilience {

/// Knobs for a ServiceClient.
struct ServiceClientOptions {
  RetryPolicy retry;
  /// Retry-budget token deposit per first attempt (see RetryBudget). The
  /// client's steady-state load amplification is bounded by 1 + this ratio.
  double retry_budget_ratio = 0.1;
  /// Retry-budget burst allowance in tokens.
  double retry_budget_capacity = 10.0;
  CircuitBreakerOptions breaker;
  /// When false, the breaker never rejects (retry/budget still apply).
  bool enable_breaker = true;
  /// Seed for backoff jitter (deterministic tests fix it).
  uint64_t jitter_seed = 1;
  /// When false, backoff waits are computed and recorded but not slept —
  /// lets deterministic tests run a thousand "retries" in microseconds.
  bool sleep_on_backoff = true;
  /// Label applied to this client's metric series ({client="<label>"}).
  std::string metric_label = "0";
};

/// Point-in-time counters of one client.
struct ClientStats {
  uint64_t requests = 0;          ///< Execute() / Start() calls
  uint64_t attempts = 0;          ///< Submit attempts reaching the service
  uint64_t retries = 0;           ///< attempts beyond each request's first
  uint64_t ok = 0;                ///< requests that ended OK
  uint64_t failed = 0;            ///< requests that ended non-OK (any code)
  uint64_t budget_denied = 0;     ///< retries suppressed by the budget
  uint64_t breaker_rejected = 0;  ///< requests rejected while the breaker was open
  double total_backoff_ms = 0;    ///< backoff the policy scheduled

  /// attempts / requests — the measured load amplification the retry budget
  /// bounds at (1 + ratio) plus the burst allowance.
  double amplification() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(attempts) /
                               static_cast<double>(requests);
  }
};

/// Client-side resilience wrapper around QueryService::Submit: a circuit
/// breaker in front, a jittered-backoff retry loop behind it, and a
/// token-bucket retry budget so the loop cannot amplify load on a failing
/// service beyond a configured factor. This is the layer a well-behaved VQI
/// front end (or engine bridge, à la VisualNeo) talks to instead of raw
/// Submit.
///
/// Instruments (registered in the service's registry, labeled by client):
/// vqi_client_requests_total, vqi_client_retries_total,
/// vqi_client_budget_denied_total, vqi_client_breaker_rejected_total,
/// vqi_client_attempts_per_request (histogram), vqi_breaker_state (gauge:
/// 0 closed, 1 open, 2 half-open) and vqi_breaker_opened_total.
///
/// Thread-safe; the service must outlive the client.
class ServiceClient {
 public:
  /// A request whose first attempt Start() has made. Move-only, like the
  /// future it holds; Finish() or Abandon() consumes it exactly once.
  class Call {
   public:
    /// The current attempt's result when it is known without blocking: a
    /// cache hit, an admission refusal, a breaker rejection, or an attempt
    /// that already completed. nullptr while the attempt is still running.
    const QueryResult* Ready();

   private:
    friend class ServiceClient;
    QueryRequest request_;  ///< kept for retries
    std::future<QueryResult> future_;  ///< valid while an attempt runs
    QueryResult result_;
    uint64_t attempts_ = 0;
    bool breaker_rejected_ = false;
  };

  explicit ServiceClient(QueryService& service,
                         ServiceClientOptions options = {});

  /// Submits `request` with breaker + retry + budget semantics and waits for
  /// the result: Finish(Start(request)). Non-retryable outcomes (OK,
  /// kInvalidArgument, kNotFound, kDeadlineExceeded) return immediately;
  /// kUnavailable / kInternal retry up to the policy's attempt cap while the
  /// budget allows. A request rejected by the open breaker returns
  /// kUnavailable without touching the service.
  QueryResult Execute(QueryRequest request);

  /// First half of Execute, on the calling thread: counts the request, makes
  /// the retry-budget deposit, checks the breaker and submits the first
  /// attempt. Blocks on nothing past the service's admission (which answers
  /// a cache hit itself) and never sleeps on a backoff.
  Call Start(QueryRequest request);
  /// Second half: waits for the attempt, records its outcome and runs the
  /// retry loop, backoff sleeps included.
  QueryResult Finish(Call call);
  /// Settles a started call whose answer nobody will read: waits for its
  /// attempt and records the outcome, without retrying. A half-open
  /// breaker's probe that was never recorded would hold its permit forever.
  void Abandon(Call call);

  ClientStats stats() const;
  BreakerState breaker_state() const { return breaker_.state(); }
  const CircuitBreaker& breaker() const { return breaker_; }
  double budget_tokens() const { return budget_.tokens(); }

 private:
  /// One attempt: the breaker check, then Submit. A rejection is counted
  /// here and leaves `call` breaker-rejected.
  void StartAttempt(Call* call);
  /// Waits for the call's attempt and records its outcome with the breaker.
  void AwaitAttempt(Call* call);
  /// Counts a finished request's attempts and outcome.
  void CountFinished(const Call& call);
  void RecordOutcome(StatusCode code);

  QueryService& service_;
  ServiceClientOptions options_;
  CircuitBreaker breaker_;
  RetryBudget budget_;

  mutable Mutex mutex_;
  Rng rng_ VQLIB_GUARDED_BY(mutex_);
  ClientStats stats_ VQLIB_GUARDED_BY(mutex_);

  obs::Counter* requests_total_;
  obs::Counter* retries_total_;
  obs::Counter* budget_denied_total_;
  obs::Counter* breaker_rejected_total_;
  obs::Counter* breaker_opened_total_;
  obs::Histogram* attempts_per_request_;
  obs::Gauge* breaker_state_gauge_;
};

}  // namespace resilience
}  // namespace vqi

#endif  // VQLIB_SERVICE_RESILIENCE_SERVICE_CLIENT_H_
