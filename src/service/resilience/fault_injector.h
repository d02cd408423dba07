#ifndef VQLIB_SERVICE_RESILIENCE_FAULT_INJECTOR_H_
#define VQLIB_SERVICE_RESILIENCE_FAULT_INJECTOR_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace vqi {
namespace resilience {

/// Named places in the query-service hot path where faults can be injected.
/// Each is a real production failure mode:
///   kCacheProbe  — the result cache is slow or unreachable (degrades to a
///                  miss, never fails the request).
///   kAdmission   — admission itself errors or stalls (overloaded front door).
///   kExecutor    — a worker fails the whole request or silently drops it
///                  (crashed shard, lost task).
///   kVf2Slice    — one matching slice is slow or errors (slow/failing shard
///                  mid-query; interacts with deadlines and partial results).
///   kHttpRead    — reading one HTTP request off the wire is slow (slowloris:
///                  a client trickling bytes holds a connection slot), torn
///                  (drop: the peer disappears mid-request), or errors (the
///                  socket fails; the server answers 503 and closes).
enum class FaultPoint : uint8_t {
  kCacheProbe = 0,
  kAdmission = 1,
  kExecutor = 2,
  kVf2Slice = 3,
  kHttpRead = 4,
};

inline constexpr size_t kNumFaultPoints = 5;

/// Stable spec/metric name for `point` ("cache_probe", "admission",
/// "executor", "vf2_slice", "http_read").
const char* FaultPointName(FaultPoint point);

/// Inverse of FaultPointName; false when `name` is not a fault point.
bool FaultPointFromName(std::string_view name, FaultPoint* out);

/// Per-point fault probabilities. All default to "never fires".
struct FaultPointSpec {
  /// Probability of failing the operation with `error_code`.
  double error_p = 0;
  /// Status injected by an error fault; kUnavailable or kInternal.
  StatusCode error_code = StatusCode::kUnavailable;
  /// Probability of stalling the operation by `latency_ms`.
  double latency_p = 0;
  double latency_ms = 0;
  /// Probability of dropping the work outright. At kExecutor this models a
  /// lost task (the service still resolves the future — see
  /// docs/resilience.md); elsewhere it behaves like an kUnavailable error.
  double drop_p = 0;

  bool Active() const { return error_p > 0 || latency_p > 0 || drop_p > 0; }
};

/// A full chaos configuration: one spec per fault point plus the seed that
/// makes every run reproducible.
struct FaultPlan {
  uint64_t seed = 42;
  std::array<FaultPointSpec, kNumFaultPoints> points;

  FaultPointSpec& At(FaultPoint p) { return points[static_cast<size_t>(p)]; }
  const FaultPointSpec& At(FaultPoint p) const {
    return points[static_cast<size_t>(p)];
  }
  bool AnyActive() const;
};

/// What a fault point decided for one operation, in application order:
/// sleep `latency_ms` first (if > 0), then fail with `status` (if non-OK).
/// `dropped` distinguishes a drop from a plain error so the executor can
/// model a lost task instead of an error reply.
struct FaultDecision {
  double latency_ms = 0;
  Status status;  // OK = let the operation proceed
  bool dropped = false;

  bool ok() const { return status.ok() && latency_ms == 0; }
};

/// Deterministic, seeded fault injector shared by every fault point of one
/// service. Each point draws from its own forked Rng stream, so the decision
/// sequence *per point* depends only on (seed, number of prior decisions at
/// that point) — concurrency at one point interleaves assignment of that
/// stream's decisions but cannot change which decisions are drawn, and
/// single-threaded chaos runs replay exactly.
///
/// Thread-safe. Specs can be swapped at runtime (SetSpec) so chaos scenarios
/// can script "fail hard, then recover" without rebuilding the service.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Rolls the dice for one operation at `point`. Checks, in order:
  /// latency, drop, error — so one decision can both stall and fail, like a
  /// timeout against a dead backend.
  FaultDecision Decide(FaultPoint point);

  /// Replaces the spec of `point` (e.g. clear faults to test recovery).
  void SetSpec(FaultPoint point, FaultPointSpec spec);

  /// Decisions that injected something at `point`, by kind.
  uint64_t InjectedErrors(FaultPoint point) const;
  uint64_t InjectedLatencies(FaultPoint point) const;
  uint64_t InjectedDrops(FaultPoint point) const;
  /// Total injections across all points and kinds.
  uint64_t InjectedTotal() const;

  /// Registers vqi_faults_injected_total{point=...,kind=...} counters and
  /// mirrors every future injection into them. Idempotent per registry: a
  /// repeat call for the currently registered registry is a no-op, so N
  /// service shards sharing one injector and one registry may each call it —
  /// accumulated counts are carried over exactly once. The registry must
  /// outlive the injector.
  void RegisterMetrics(obs::MetricsRegistry& registry);

  uint64_t seed() const { return seed_; }

  /// Parses the chaos-spec grammar (see docs/resilience.md):
  ///
  ///   spec    := clause (';' clause)*
  ///   clause  := 'seed' '=' uint
  ///            | point ':' setting (',' setting)*
  ///   point   := 'cache_probe' | 'admission' | 'executor' | 'vf2_slice'
  ///            | 'http_read'
  ///   setting := 'error' '=' prob | 'code' '=' ('unavailable' | 'internal')
  ///            | 'latency_ms' '=' num | 'latency_p' '=' prob
  ///            | 'drop' '=' prob
  ///
  /// e.g. "seed=7;executor:error=0.2,code=internal;vf2_slice:latency_ms=5,latency_p=0.5"
  ///
  /// Malformed specs come back as kInvalidArgument; an unknown point name is
  /// rejected with a message enumerating the valid points, so a typoed
  /// `--chaos` flag fails loudly instead of silently arming nothing.
  static StatusOr<FaultPlan> ParseChaosSpec(const std::string& spec);

 private:
  struct PointState {
    mutable Mutex mutex;
    Rng rng VQLIB_GUARDED_BY(mutex){0};
    FaultPointSpec spec VQLIB_GUARDED_BY(mutex);
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> latencies{0};
    std::atomic<uint64_t> drops{0};
    // Mirrors into an obs registry; RegisterMetrics may race with Decide, so
    // the handles are guarded like the spec (Decide snapshots them under the
    // lock before incrementing — see fault_injector.cc).
    obs::Counter* errors_metric VQLIB_GUARDED_BY(mutex) = nullptr;
    obs::Counter* latencies_metric VQLIB_GUARDED_BY(mutex) = nullptr;
    obs::Counter* drops_metric VQLIB_GUARDED_BY(mutex) = nullptr;
  };

  uint64_t seed_;
  std::array<PointState, kNumFaultPoints> states_;
  // RegisterMetrics idempotence (see its contract).
  mutable Mutex register_mutex_;
  obs::MetricsRegistry* registered_registry_ VQLIB_GUARDED_BY(register_mutex_) =
      nullptr;
};

}  // namespace resilience
}  // namespace vqi

#endif  // VQLIB_SERVICE_RESILIENCE_FAULT_INJECTOR_H_
