#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace perfbench {

/// One timed interval around a call the benchmark makes into a layer.
/// Spans of one request share `request`; `parent` is the id of the span
/// that caused this one (0 = none). Times are steady-clock nanoseconds.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Steady-clock now, in nanoseconds.
int64_t NowNs();

/// In-memory span store for traced runs. Spans are only kept while
/// enabled, so untraced runs pay one relaxed load per span site.
class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& span);
  /// Every span recorded so far, in recording order.
  std::vector<Span> Spans() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable vqi::Mutex mutex_;
  std::vector<Span> spans_ VQLIB_GUARDED_BY(mutex_);
};

/// Records a span from construction to destruction when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t request = 0, uint64_t parent = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  bool active_;
  Span span_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its child spans. Keyed by span id.
std::map<uint64_t, double> SelfTimesMs(const std::vector<Span>& spans);

/// Durations (ms) of every span called `name`.
std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name);

/// Writes one JSON object per span to `path`. Returns false on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
