#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// A percentile is only reported where at least this many samples lie
/// beyond it; with fewer samples the percentile is lowered until they do.
inline constexpr size_t kTailSamples = 10;

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double Median(std::vector<double> values);

/// The q-quantile (q in [0, 1]) by linear interpolation between the closest
/// ranks of the sorted values; 0 when empty.
double Percentile(std::vector<double> values, double q);

/// The highest quantile <= q that has at least kTailSamples of `n` samples
/// beyond it, floored at the median. With n >= 1000 this is q itself for
/// q = 0.99.
double SupportedQuantile(size_t n, double q);

/// "p99", or "p97.5" for a lowered quantile.
std::string QuantileLabel(double q);

/// A percentile together with what it was computed from, so a report can
/// print its sample count.
struct TailStat {
  double value = 0;
  double quantile = 0;  ///< the quantile actually used (see SupportedQuantile)
  size_t samples = 0;
};

/// Percentile at SupportedQuantile(values.size(), q).
TailStat Tail(std::vector<double> values, double q);

/// Latencies in fixed memory: log-spaced buckets 0.5% wide from 1 us, so
/// recording a sample never allocates and the benchmark's own memory does
/// not grow with throughput (peak_rss_mb is meant to measure the program).
/// Quantiles interpolate within a bucket, so they are exact to 0.5%.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets + 1, 0) {}

  void Add(double ms);
  void Merge(const LatencyHistogram& other);
  size_t count() const { return count_; }
  /// The q-quantile in ms; 0 when empty.
  double Quantile(double q) const;

 private:
  static constexpr double kMinMs = 1e-3;
  static constexpr double kGrowth = 1.005;
  /// kMinMs * kGrowth^4000 is about 8 minutes.
  static constexpr size_t kBuckets = 4000;

  std::vector<uint64_t> counts_;
  size_t count_ = 0;
};

/// Quantile at SupportedQuantile(count, q).
TailStat Tail(const LatencyHistogram& histogram, double q);

/// True when `name` matches the metric-name grammar [A-Za-z0-9_.-]+.
bool IsMetricName(std::string_view name);

/// Sums the histogram series of family `name` whose labels do not contain
/// any of `exclude` (label key=value pairs). Series of one family share
/// their bucket bounds. Empty snapshot when the family is absent.
vqi::obs::HistogramSnapshot MergedHistogram(
    const vqi::obs::MetricsRegistry& registry, const std::string& name,
    const vqi::obs::Labels& exclude = {});

/// `after` minus `before`, bucket by bucket: the observations made between
/// the two snapshots of one histogram.
vqi::obs::HistogramSnapshot HistogramDelta(
    const vqi::obs::HistogramSnapshot& before,
    const vqi::obs::HistogramSnapshot& after);

/// HistogramSnapshot::Quantile at SupportedQuantile(count, q).
TailStat HistogramTail(const vqi::obs::HistogramSnapshot& histogram, double q);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
