#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double SupportedQuantile(size_t n, double q) {
  if (n == 0) return 0.5;
  const double highest =
      1.0 - static_cast<double>(kTailSamples) / static_cast<double>(n);
  return std::max(0.5, std::min(q, highest));
}

std::string QuantileLabel(double q) {
  char buffer[32];
  const double pct = q * 100.0;
  if (std::fabs(pct - std::round(pct)) < 1e-9) {
    std::snprintf(buffer, sizeof(buffer), "p%.0f", pct);
  } else {
    std::snprintf(buffer, sizeof(buffer), "p%.1f", pct);
  }
  return buffer;
}

TailStat Tail(std::vector<double> values, double q) {
  TailStat stat;
  stat.samples = values.size();
  stat.quantile = SupportedQuantile(values.size(), q);
  stat.value = Percentile(std::move(values), stat.quantile);
  return stat;
}

void LatencyHistogram::Add(double ms) {
  size_t bucket = 0;
  if (ms > kMinMs) {
    bucket = 1 + static_cast<size_t>(std::log(ms / kMinMs) / std::log(kGrowth));
  }
  ++counts_[std::min(bucket, kBuckets)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  // Same rank convention as Percentile: rank q * (n - 1) among the sorted
  // samples, placed evenly inside the bucket that holds it.
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  uint64_t below = 0;
  for (size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    if (rank < static_cast<double>(below + counts_[b])) {
      const double lo = b == 0 ? 0 : kMinMs * std::pow(kGrowth, b - 1.0);
      const double hi = kMinMs * std::pow(kGrowth, static_cast<double>(b));
      const double within = (rank - static_cast<double>(below) + 0.5) /
                            static_cast<double>(counts_[b]);
      return lo + within * (hi - lo);
    }
    below += counts_[b];
  }
  return kMinMs * std::pow(kGrowth, static_cast<double>(kBuckets));
}

TailStat Tail(const LatencyHistogram& histogram, double q) {
  TailStat stat;
  stat.samples = histogram.count();
  stat.quantile = SupportedQuantile(histogram.count(), q);
  stat.value = histogram.Quantile(stat.quantile);
  return stat;
}

bool IsMetricName(std::string_view name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

vqi::obs::HistogramSnapshot MergedHistogram(
    const vqi::obs::MetricsRegistry& registry, const std::string& name,
    const vqi::obs::Labels& exclude) {
  vqi::obs::HistogramSnapshot merged;
  for (const vqi::obs::FamilySnapshot& family : registry.Snapshot()) {
    if (family.name != name ||
        family.kind != vqi::obs::InstrumentKind::kHistogram) {
      continue;
    }
    for (const vqi::obs::SeriesSnapshot& series : family.series) {
      const bool excluded = std::any_of(
          series.labels.begin(), series.labels.end(), [&](const auto& label) {
            return std::find(exclude.begin(), exclude.end(), label) !=
                   exclude.end();
          });
      if (excluded) continue;
      const vqi::obs::HistogramSnapshot& h = series.histogram;
      if (merged.counts.empty()) {
        merged.bounds = h.bounds;
        merged.counts.assign(h.counts.size(), 0);
      }
      if (h.counts.size() != merged.counts.size()) continue;
      for (size_t i = 0; i < h.counts.size(); ++i) merged.counts[i] += h.counts[i];
      merged.count += h.count;
      merged.sum += h.sum;
    }
  }
  return merged;
}

vqi::obs::HistogramSnapshot HistogramDelta(
    const vqi::obs::HistogramSnapshot& before,
    const vqi::obs::HistogramSnapshot& after) {
  vqi::obs::HistogramSnapshot delta = after;
  if (before.counts.size() != after.counts.size()) return delta;
  for (size_t i = 0; i < delta.counts.size(); ++i) {
    delta.counts[i] -= std::min(delta.counts[i], before.counts[i]);
  }
  delta.count -= std::min(delta.count, before.count);
  delta.sum -= before.sum;
  return delta;
}

TailStat HistogramTail(const vqi::obs::HistogramSnapshot& histogram, double q) {
  TailStat stat;
  stat.samples = histogram.count;
  stat.quantile = SupportedQuantile(histogram.count, q);
  stat.value = histogram.count == 0 ? 0 : histogram.Quantile(stat.quantile);
  return stat;
}

}  // namespace perfbench
