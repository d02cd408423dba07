#ifndef VQLIB_SERVICE_INFLIGHT_TABLE_H_
#define VQLIB_SERVICE_INFLIGHT_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/query_types.h"

namespace vqi {

/// One coalesced duplicate parked on an in-flight leader: everything the
/// service needs to resolve the request at fan-out time — or to re-execute it
/// independently when the leader's result cannot be shared (leader error,
/// partial result a strict waiter rejects).
struct InflightWaiter {
  QueryRequest request;
  std::shared_ptr<std::promise<QueryResult>> promise;
  /// The waiter's own admission clock; drives QueryResult::latency_ms.
  Stopwatch admitted;
  /// Attach-to-fanout wait (the vqi_coalesce_waiter_wait_ms histogram).
  Stopwatch attached;
  obs::RequestTrace trace;
};

/// Single-flight table over canonical cache keys: the first request for a key
/// becomes the *leader* and executes; concurrent duplicates *attach* as
/// waiters and are resolved from the leader's one backend execution. This is
/// true request coalescing — the dequeue-time cache re-probe ("coalescing-
/// lite") only collapses duplicates that arrive after the leader finished,
/// while this table collapses duplicates that arrive while the leader is
/// still queued or running.
///
/// The table only tracks membership; fan-out policy (who may share a partial
/// result, when a waiter re-executes) lives in QueryService. Thread-safe.
class InflightTable {
 public:
  enum class Role { kLeader, kWaiter };

  InflightTable() = default;
  InflightTable(const InflightTable&) = delete;
  InflightTable& operator=(const InflightTable&) = delete;

  /// If no entry exists for `key`, registers one — the caller is the leader,
  /// `*waiter` is left untouched, and the caller must eventually call
  /// Complete(key) exactly once. Otherwise moves `*waiter` into the existing
  /// entry and returns kWaiter — the waiter's promise will be resolved by the
  /// leader's fan-out.
  Role JoinOrLead(const std::string& key, InflightWaiter* waiter);

  /// Removes the entry for `key` and returns its attached waiters (possibly
  /// empty). Called by the leader once its result is ready, or to abort a
  /// lead whose dispatch failed.
  std::vector<InflightWaiter> Complete(const std::string& key);

  /// Waiters currently attached across all in-flight keys. Counted as queue
  /// occupancy by priority load shedding: an unbounded flood of "free"
  /// duplicates still represents pending fan-out work and memory.
  size_t TotalWaiters() const {
    return total_waiters_.load(std::memory_order_relaxed);
  }

  /// Keys currently led by an executing request.
  size_t InflightKeys() const;

  /// Registers the coalescing instrument set (vqi_coalesce_{leaders,waiters,
  /// fanout,reexec,reexec_denied}_total and the waiter-wait histogram). Must
  /// be called before the table is used concurrently (the handles are
  /// unsynchronized init-time state); the registry must outlive the table.
  /// Without registration the table still works; events are simply
  /// unmetered. `labels` is applied to every series so N tables can share
  /// one registry (e.g. {shard="<i>"} under a sharded router).
  void RegisterMetrics(obs::MetricsRegistry& registry,
                       const obs::Labels& labels = {});

  // Metric hooks for the fan-out owner (the table cannot see fan-out policy).
  void RecordFanout(uint64_t count);
  void RecordReexec();
  void RecordReexecDenied();
  void ObserveWaiterWait(double ms);

  // Counter reads for ServiceStats snapshots (0 before RegisterMetrics).
  uint64_t leaders() const {
    return leaders_total_ != nullptr ? leaders_total_->Value() : 0;
  }
  uint64_t waiters() const {
    return waiters_total_ != nullptr ? waiters_total_->Value() : 0;
  }
  uint64_t fanout() const {
    return fanout_total_ != nullptr ? fanout_total_->Value() : 0;
  }

 private:
  mutable Mutex mutex_;
  std::unordered_map<std::string, std::vector<InflightWaiter>> entries_
      VQLIB_GUARDED_BY(mutex_);
  std::atomic<size_t> total_waiters_{0};

  // Instrument handles: written once by RegisterMetrics (which must happen
  // before concurrent use, per the class contract), read-only afterwards —
  // the same init-then-immutable pattern as ThreadPool's handles.
  obs::Counter* leaders_total_ = nullptr;
  obs::Counter* waiters_total_ = nullptr;
  obs::Counter* fanout_total_ = nullptr;
  obs::Counter* reexec_total_ = nullptr;
  obs::Counter* reexec_denied_total_ = nullptr;
  obs::Histogram* waiter_wait_ms_ = nullptr;
};

}  // namespace vqi

#endif  // VQLIB_SERVICE_INFLIGHT_TABLE_H_
