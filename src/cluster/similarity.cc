#include "cluster/similarity.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace vqi {

double CosineSimilarity(const FeatureVector& a, const FeatureVector& b) {
  VQI_CHECK_EQ(a.size(), b.size());
  double dot = 0.0, norm_a = 0.0, norm_b = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    norm_a += a[i] * a[i];
    norm_b += b[i] * b[i];
  }
  if (norm_a == 0.0 && norm_b == 0.0) return 1.0;
  if (norm_a == 0.0 || norm_b == 0.0) return 0.0;
  return dot / (std::sqrt(norm_a) * std::sqrt(norm_b));
}

double Distance(const FeatureVector& a, const FeatureVector& b,
                DistanceMetric metric) {
  VQI_CHECK_EQ(a.size(), b.size());
  switch (metric) {
    case DistanceMetric::kEuclidean: {
      double sum = 0.0;
      for (size_t i = 0; i < a.size(); ++i) {
        double d = a[i] - b[i];
        sum += d * d;
      }
      return std::sqrt(sum);
    }
    case DistanceMetric::kCosine:
      return 1.0 - CosineSimilarity(a, b);
    case DistanceMetric::kJaccard: {
      double min_sum = 0.0, max_sum = 0.0;
      for (size_t i = 0; i < a.size(); ++i) {
        min_sum += std::min(a[i], b[i]);
        max_sum += std::max(a[i], b[i]);
      }
      if (max_sum == 0.0) return 0.0;
      return 1.0 - min_sum / max_sum;
    }
  }
  return 0.0;
}

DistanceTable::DistanceTable(const std::vector<FeatureVector>& points,
                             DistanceMetric metric) {
  entries_.reserve(points.size() * (points.size() + 1) / 2);
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = 0; j <= i; ++j) {
      entries_.push_back(Distance(points[i], points[j], metric));
    }
  }
}

}  // namespace vqi
