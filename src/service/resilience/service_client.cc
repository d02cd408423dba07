#include "service/resilience/service_client.h"

#include <chrono>
#include <thread>
#include <utility>

namespace vqi {
namespace resilience {

ServiceClient::ServiceClient(QueryService& service,
                             ServiceClientOptions options)
    : service_(service),
      options_(std::move(options)),
      breaker_(options_.breaker),
      budget_(options_.retry_budget_ratio, options_.retry_budget_capacity),
      rng_(options_.jitter_seed) {
  obs::MetricsRegistry& registry = service_.metrics();
  obs::Labels labels{{"client", options_.metric_label}};
  requests_total_ = &registry.GetCounter(
      "vqi_client_requests_total", "Requests issued through a ServiceClient.",
      labels);
  retries_total_ = &registry.GetCounter(
      "vqi_client_retries_total", "Retry attempts the budget admitted.",
      labels);
  budget_denied_total_ = &registry.GetCounter(
      "vqi_client_budget_denied_total",
      "Retries suppressed by the token-bucket retry budget.", labels);
  breaker_rejected_total_ = &registry.GetCounter(
      "vqi_client_breaker_rejected_total",
      "Requests rejected fast while the circuit breaker was open.", labels);
  breaker_opened_total_ = &registry.GetCounter(
      "vqi_breaker_opened_total",
      "Circuit-breaker transitions into the open state.", labels);
  attempts_per_request_ = &registry.GetHistogram(
      "vqi_client_attempts_per_request",
      "Submit attempts one request needed (1 = no retries); the mean is the "
      "client's load amplification.",
      obs::Histogram::ExponentialBounds(1, 2, 6), labels);
  breaker_state_gauge_ = &registry.GetGauge(
      "vqi_breaker_state",
      "Circuit-breaker state: 0 closed, 1 open, 2 half-open.", labels);
}

void ServiceClient::RecordOutcome(StatusCode code) {
  if (!options_.enable_breaker) return;
  uint64_t opened_before = breaker_.TimesOpened();
  // Only service-health failures count against the breaker. Caller errors
  // and deadline expiries are answers, not outages.
  if (IsRetryable(code)) {
    breaker_.RecordFailure();
  } else {
    breaker_.RecordSuccess();
  }
  uint64_t newly_opened = breaker_.TimesOpened() - opened_before;
  if (newly_opened > 0) breaker_opened_total_->Increment(newly_opened);
  breaker_state_gauge_->Set(static_cast<double>(breaker_.state()));
}

const QueryResult* ServiceClient::Call::Ready() {
  if (future_.valid()) {
    if (future_.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      return nullptr;
    }
    result_ = future_.get();
  }
  return &result_;
}

QueryResult ServiceClient::Execute(QueryRequest request) {
  return Finish(Start(std::move(request)));
}

ServiceClient::Call ServiceClient::Start(QueryRequest request) {
  requests_total_->Increment();
  budget_.OnRequest();
  {
    MutexLock lock(&mutex_);
    ++stats_.requests;
  }
  Call call;
  call.request_ = std::move(request);
  StartAttempt(&call);
  return call;
}

void ServiceClient::StartAttempt(Call* call) {
  if (options_.enable_breaker && !breaker_.Allow()) {
    breaker_rejected_total_->Increment();
    breaker_state_gauge_->Set(static_cast<double>(breaker_.state()));
    {
      MutexLock lock(&mutex_);
      ++stats_.breaker_rejected;
      ++stats_.failed;
    }
    // Only the status changes: a retry the breaker rejects returns the
    // previous attempt's other fields.
    call->result_.status = Status::Unavailable("circuit breaker open");
    call->breaker_rejected_ = true;
    return;
  }
  ++call->attempts_;
  {
    MutexLock lock(&mutex_);
    ++stats_.attempts;
  }
  // The request is copied, not moved: a retry submits it again.
  StatusOr<std::future<QueryResult>> submitted =
      service_.Submit(call->request_);
  if (submitted.ok()) {
    call->future_ = std::move(submitted).value();
  } else {
    call->result_ = QueryResult{};
    call->result_.status = submitted.status();
  }
}

void ServiceClient::AwaitAttempt(Call* call) {
  if (call->future_.valid()) call->result_ = call->future_.get();
  RecordOutcome(call->result_.status.code());
}

void ServiceClient::CountFinished(const Call& call) {
  attempts_per_request_->Observe(static_cast<double>(call.attempts_));
  MutexLock lock(&mutex_);
  if (call.result_.status.ok()) {
    ++stats_.ok;
  } else {
    ++stats_.failed;
  }
}

QueryResult ServiceClient::Finish(Call call) {
  double backoff_ms = 0;
  for (;;) {
    // A breaker rejection was counted (as failed) when it happened.
    if (call.breaker_rejected_) return std::move(call.result_);
    AwaitAttempt(&call);

    if (!IsRetryable(call.result_.status.code())) break;
    if (call.attempts_ >= options_.retry.max_attempts) break;
    if (!budget_.TryConsumeRetry()) {
      budget_denied_total_->Increment();
      MutexLock lock(&mutex_);
      ++stats_.budget_denied;
      break;
    }

    retries_total_->Increment();
    {
      MutexLock lock(&mutex_);
      ++stats_.retries;
      backoff_ms = NextBackoffMs(options_.retry, backoff_ms, rng_);
      stats_.total_backoff_ms += backoff_ms;
    }
    if (options_.sleep_on_backoff && backoff_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
    }
    StartAttempt(&call);
  }
  CountFinished(call);
  return std::move(call.result_);
}

void ServiceClient::Abandon(Call call) {
  if (call.breaker_rejected_) return;
  AwaitAttempt(&call);
  CountFinished(call);
}

ClientStats ServiceClient::stats() const {
  MutexLock lock(&mutex_);
  return stats_;
}

}  // namespace resilience
}  // namespace vqi
