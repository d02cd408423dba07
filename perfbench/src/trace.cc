#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Record(const Span& span) {
  vqi::MutexLock lock(&mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Spans() const {
  vqi::MutexLock lock(&mutex_);
  return spans_;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request, uint64_t parent)
    : active_(Tracer::Get().enabled()) {
  if (!active_) return;
  span_.name = name;
  span_.id = Tracer::Get().NextId();
  span_.parent = parent;
  span_.request = request;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  Tracer::Get().Record(span_);
}

std::map<uint64_t, double> SelfTimesMs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<uint64_t, double> self;
  for (const Span& span : spans) {
    int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      // Union of the child intervals, clipped to the parent.
      std::vector<std::pair<int64_t, int64_t>> intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cursor = span.start_ns;
      for (auto [start, end] : intervals) {
        start = std::max(start, cursor);
        end = std::min(end, span.end_ns);
        if (end > start) {
          covered += end - start;
          cursor = end;
        }
      }
    }
    self[span.id] =
        static_cast<double>(span.end_ns - span.start_ns - covered) / 1e6;
  }
  return self;
}

std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> durations;
  for (const Span& span : spans) {
    if (name == span.name) durations.push_back(span.ms());
  }
  return durations;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& span : spans) {
    std::fprintf(file,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 span.name, static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
