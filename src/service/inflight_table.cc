#include "service/inflight_table.h"

#include <utility>

namespace vqi {

InflightTable::Role InflightTable::JoinOrLead(const std::string& key,
                                              InflightWaiter* waiter) {
  {
    MutexLock lock(&mutex_);
    auto [it, inserted] = entries_.try_emplace(key);
    if (!inserted) {
      it->second.push_back(std::move(*waiter));
      total_waiters_.fetch_add(1, std::memory_order_relaxed);
      if (waiters_total_ != nullptr) waiters_total_->Increment();
      return Role::kWaiter;
    }
  }
  if (leaders_total_ != nullptr) leaders_total_->Increment();
  return Role::kLeader;
}

std::vector<InflightWaiter> InflightTable::Complete(const std::string& key) {
  std::vector<InflightWaiter> waiters;
  {
    MutexLock lock(&mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return waiters;
    waiters = std::move(it->second);
    entries_.erase(it);
  }
  if (!waiters.empty()) {
    total_waiters_.fetch_sub(waiters.size(), std::memory_order_relaxed);
  }
  return waiters;
}

size_t InflightTable::InflightKeys() const {
  MutexLock lock(&mutex_);
  return entries_.size();
}

void InflightTable::RegisterMetrics(obs::MetricsRegistry& registry,
                                    const obs::Labels& labels) {
  leaders_total_ = &registry.GetCounter(
      "vqi_coalesce_leaders_total",
      "Requests that became the single-flight leader for their cache key.",
      labels);
  waiters_total_ = &registry.GetCounter(
      "vqi_coalesce_waiters_total",
      "Requests attached as waiters to an in-flight leader.", labels);
  fanout_total_ = &registry.GetCounter(
      "vqi_coalesce_fanout_total",
      "Waiter responses resolved directly from a leader's result.", labels);
  reexec_total_ = &registry.GetCounter(
      "vqi_coalesce_reexec_total",
      "Independent waiter re-executions after a leader error or a rejected "
      "partial.",
      labels);
  reexec_denied_total_ = &registry.GetCounter(
      "vqi_coalesce_reexec_denied_total",
      "Waiter re-executions suppressed by the coalesce retry budget; the "
      "leader's outcome was propagated instead.",
      labels);
  waiter_wait_ms_ = &registry.GetHistogram(
      "vqi_coalesce_waiter_wait_ms",
      "Time a coalesced waiter spent attached before its leader fanned out.",
      obs::Histogram::DefaultLatencyBoundsMs(), labels);
}

void InflightTable::RecordFanout(uint64_t count) {
  if (fanout_total_ != nullptr) fanout_total_->Increment(count);
}

void InflightTable::RecordReexec() {
  if (reexec_total_ != nullptr) reexec_total_->Increment();
}

void InflightTable::RecordReexecDenied() {
  if (reexec_denied_total_ != nullptr) reexec_denied_total_->Increment();
}

void InflightTable::ObserveWaiterWait(double ms) {
  if (waiter_wait_ms_ != nullptr) waiter_wait_ms_->Observe(ms);
}

}  // namespace vqi
