#include "cluster/agglomerative.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.h"

namespace vqi {

ClusteringResult AgglomerativeAverageLinkage(
    const std::vector<FeatureVector>& points, size_t k,
    DistanceMetric metric) {
  ClusteringResult result;
  size_t n = points.size();
  if (n == 0) return result;
  k = std::max<size_t>(1, std::min(k, n));

  // Active clusters as member lists; Lance-Williams style average-linkage
  // distances maintained in a dense matrix, seeded from the point distances.
  const DistanceTable dist(points, metric);
  std::vector<std::vector<size_t>> clusters(n);
  for (size_t i = 0; i < n; ++i) clusters[i] = {i};
  std::vector<bool> active(n, true);
  std::vector<std::vector<double>> linkage(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      linkage[i][j] = linkage[j][i] = dist(i, j);
    }
  }

  size_t active_count = n;
  while (active_count > k) {
    // Find the closest active pair.
    size_t best_i = 0, best_j = 0;
    double best = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      for (size_t j = i + 1; j < n; ++j) {
        if (!active[j]) continue;
        if (linkage[i][j] < best) {
          best = linkage[i][j];
          best_i = i;
          best_j = j;
        }
      }
    }
    // Merge j into i; update average-linkage distances:
    // d(i∪j, x) = (|i| d(i,x) + |j| d(j,x)) / (|i| + |j|).
    double si = static_cast<double>(clusters[best_i].size());
    double sj = static_cast<double>(clusters[best_j].size());
    for (size_t x = 0; x < n; ++x) {
      if (!active[x] || x == best_i || x == best_j) continue;
      linkage[best_i][x] = linkage[x][best_i] =
          (si * linkage[best_i][x] + sj * linkage[best_j][x]) / (si + sj);
    }
    clusters[best_i].insert(clusters[best_i].end(), clusters[best_j].begin(),
                            clusters[best_j].end());
    clusters[best_j].clear();
    active[best_j] = false;
    --active_count;
  }

  // Emit assignment + most-central member as pseudo-medoid.
  result.assignment.assign(n, 0);
  int cluster_index = 0;
  for (size_t c = 0; c < n; ++c) {
    if (!active[c]) continue;
    for (size_t member : clusters[c]) {
      result.assignment[member] = cluster_index;
    }
    // Medoid: member minimizing summed distance to the rest.
    size_t best_member = clusters[c][0];
    double best_cost = std::numeric_limits<double>::infinity();
    for (size_t a : clusters[c]) {
      double cost = 0.0;
      for (size_t b : clusters[c]) cost += dist(a, b);
      if (cost < best_cost) {
        best_cost = cost;
        best_member = a;
      }
    }
    result.medoids.push_back(best_member);
    ++cluster_index;
  }
  // Total cost against medoids.
  result.cost = 0.0;
  for (size_t i = 0; i < n; ++i) {
    result.cost += dist(i, result.medoids[result.assignment[i]]);
  }
  return result;
}

}  // namespace vqi
