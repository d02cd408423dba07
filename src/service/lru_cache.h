#ifndef VQLIB_SERVICE_LRU_CACHE_H_
#define VQLIB_SERVICE_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace vqi {

/// Aggregated counters across all shards of a ShardedLruCache.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t entries = 0;

  double hit_rate() const {
    uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
};

/// A sharded LRU map from string keys to values of type `V`.
///
/// Keys in the query service are canonical forms (match/canonical.h) combined
/// with the target graph id, so isomorphic queries — however the user drew
/// them — share one entry. Sharding by key hash keeps lock hold times short
/// under concurrent workers; each shard maintains its own recency list and
/// counters, so eviction is LRU *per shard* (the standard serving-cache
/// trade-off; use num_shards = 1 for strict global LRU).
template <typename V>
class ShardedLruCache {
 public:
  /// `capacity` is the total entry budget, split evenly across `num_shards`
  /// (each shard gets at least one slot).
  explicit ShardedLruCache(size_t capacity, size_t num_shards = 8) {
    VQI_CHECK_GT(capacity, 0u) << "cache capacity must be positive";
    if (num_shards == 0) num_shards = 1;
    if (num_shards > capacity) num_shards = capacity;
    size_t per_shard = (capacity + num_shards - 1) / num_shards;
    shards_.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(per_shard));
    }
  }

  /// Returns a copy of the cached value and promotes the entry to
  /// most-recently-used, or nullopt on a miss. With `count_miss` false a
  /// miss goes uncounted until the caller calls CountMiss: the query service
  /// counts an admission probe's miss only for a request it admits. Hits
  /// always count.
  std::optional<V> Get(const std::string& key, bool count_miss = true) {
    Shard& shard = ShardFor(key);
    MutexLock lock(&shard.mutex);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      if (count_miss) {
        ++shard.misses;
        if (shard.misses_metric != nullptr) shard.misses_metric->Increment();
      }
      return std::nullopt;
    }
    ++shard.hits;
    if (shard.hits_metric != nullptr) shard.hits_metric->Increment();
    shard.order.splice(shard.order.begin(), shard.order, it->second);
    return it->second->second;
  }

  /// Counts the miss a Get(key, /*count_miss=*/false) left uncounted.
  void CountMiss(const std::string& key) {
    Shard& shard = ShardFor(key);
    MutexLock lock(&shard.mutex);
    ++shard.misses;
    if (shard.misses_metric != nullptr) shard.misses_metric->Increment();
  }

  /// Inserts or overwrites `key`, making it most-recently-used; evicts the
  /// least-recently-used entry of the shard when it is at capacity.
  void Put(const std::string& key, V value) {
    Shard& shard = ShardFor(key);
    MutexLock lock(&shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(value);
      shard.order.splice(shard.order.begin(), shard.order, it->second);
      return;
    }
    if (shard.order.size() >= shard.capacity) {
      shard.index.erase(shard.order.back().first);
      shard.order.pop_back();
      ++shard.evictions;
      if (shard.evictions_metric != nullptr) {
        shard.evictions_metric->Increment();
      }
    }
    shard.order.emplace_front(key, std::move(value));
    shard.index[key] = shard.order.begin();
  }

  /// Drops every entry (counters are preserved).
  void Clear() {
    for (auto& shard : shards_) {
      MutexLock lock(&shard->mutex);
      shard->order.clear();
      shard->index.clear();
    }
  }

  /// Sums hit/miss/eviction counters and live entries across shards.
  CacheStats GetStats() const {
    CacheStats stats;
    for (const auto& shard : shards_) {
      MutexLock lock(&shard->mutex);
      stats.hits += shard->hits;
      stats.misses += shard->misses;
      stats.evictions += shard->evictions;
      stats.entries += shard->order.size();
    }
    return stats;
  }

  /// Registers per-shard hit/miss/eviction counters (label cache_shard="<i>")
  /// under `prefix` and mirrors every future event into them; counts
  /// accumulated before registration are carried over. The registry must
  /// outlive the cache. Per-shard series expose skew a summed counter would
  /// hide — one hot shard saturating its mutex looks healthy in aggregate.
  ///
  /// `extra_labels` is prepended to every series (including the `_shards`
  /// gauge). The label key is deliberately `cache_shard`, NOT `shard`: N
  /// caches owned by N service shards share one registry and pass
  /// {shard="<service shard>"} here, so the two dimensions must not collide.
  void RegisterMetrics(obs::MetricsRegistry& registry,
                       const std::string& prefix = "vqi_cache",
                       const obs::Labels& extra_labels = {}) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      obs::Labels labels = extra_labels;
      labels.emplace_back("cache_shard", std::to_string(i));
      obs::Counter& hits = registry.GetCounter(
          prefix + "_hits_total", "Result-cache hits.", labels);
      obs::Counter& misses = registry.GetCounter(
          prefix + "_misses_total", "Result-cache misses.", labels);
      obs::Counter& evictions = registry.GetCounter(
          prefix + "_evictions_total", "Result-cache LRU evictions.", labels);
      Shard& shard = *shards_[i];
      MutexLock lock(&shard.mutex);
      if (shard.hits > 0) hits.Increment(shard.hits);
      if (shard.misses > 0) misses.Increment(shard.misses);
      if (shard.evictions > 0) evictions.Increment(shard.evictions);
      shard.hits_metric = &hits;
      shard.misses_metric = &misses;
      shard.evictions_metric = &evictions;
    }
    registry
        .GetGauge(prefix + "_shards", "Number of cache shards.", extra_labels)
        .Set(static_cast<double>(shards_.size()));
  }

  size_t num_shards() const { return shards_.size(); }

 private:
  struct Shard {
    explicit Shard(size_t cap) : capacity(cap) {}

    mutable Mutex mutex;
    // front = most recently used.
    std::list<std::pair<std::string, V>> order VQLIB_GUARDED_BY(mutex);
    std::unordered_map<std::string,
                       typename std::list<std::pair<std::string, V>>::iterator>
        index VQLIB_GUARDED_BY(mutex);
    const size_t capacity;  ///< immutable after construction
    uint64_t hits VQLIB_GUARDED_BY(mutex) = 0;
    uint64_t misses VQLIB_GUARDED_BY(mutex) = 0;
    uint64_t evictions VQLIB_GUARDED_BY(mutex) = 0;
    // Optional mirrors into an obs registry (see RegisterMetrics); guarded by
    // `mutex` like the local counters.
    obs::Counter* hits_metric VQLIB_GUARDED_BY(mutex) = nullptr;
    obs::Counter* misses_metric VQLIB_GUARDED_BY(mutex) = nullptr;
    obs::Counter* evictions_metric VQLIB_GUARDED_BY(mutex) = nullptr;
  };

  Shard& ShardFor(const std::string& key) {
    return *shards_[std::hash<std::string>{}(key) % shards_.size()];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace vqi

#endif  // VQLIB_SERVICE_LRU_CACHE_H_
