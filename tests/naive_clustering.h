// Independent reference clustering for the tests: k-medoids, the mean
// silhouette and average linkage written per pair, calling Distance for every
// distance they read and caching none. The library reads one precomputed
// DistanceTable instead. Distance is symmetric bit for bit and the table keeps
// each diagonal entry as Distance computes it, so both must agree bit for bit:
// assignment, medoids, cost and every rng draw. Slow by design (about n^2.5
// distance calls for k-medoids, n^3 steps for average linkage); use it on
// test-sized inputs only.

#ifndef VQLIB_TESTS_NAIVE_CLUSTERING_H_
#define VQLIB_TESTS_NAIVE_CLUSTERING_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "cluster/kmedoids.h"     // ClusteringResult: plain data, no code
#include "cluster/similarity.h"  // Distance: the per-pair primitive
#include "common/rng.h"

namespace vqi {
namespace naive {

// Members of each cluster in ascending point order.
inline std::vector<std::vector<size_t>> Members(
    const std::vector<int>& assignment, size_t num_clusters) {
  std::vector<std::vector<size_t>> members(num_clusters);
  for (size_t i = 0; i < assignment.size(); ++i) {
    members[static_cast<size_t>(assignment[i])].push_back(i);
  }
  return members;
}

// Assigns every point to its nearest medoid; returns total cost.
inline double Assign(const std::vector<FeatureVector>& points,
                     const std::vector<size_t>& medoids, DistanceMetric metric,
                     std::vector<int>& assignment) {
  double cost = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    int best_cluster = 0;
    for (size_t c = 0; c < medoids.size(); ++c) {
      double d = Distance(points[i], points[medoids[c]], metric);
      if (d < best) {
        best = d;
        best_cluster = static_cast<int>(c);
      }
    }
    assignment[i] = best_cluster;
    cost += best;
  }
  return cost;
}

// PAM-style k-medoids: a sampled first medoid, greedy BUILD, then
// alternating assignment and medoid-update sweeps.
inline ClusteringResult KMedoids(const std::vector<FeatureVector>& points,
                                 size_t k, DistanceMetric metric, Rng& rng,
                                 size_t max_iterations = 30) {
  ClusteringResult result;
  size_t n = points.size();
  if (n == 0) return result;
  k = std::min(k, n);

  std::vector<size_t> medoids;
  std::vector<double> nearest(n, std::numeric_limits<double>::infinity());
  {
    size_t best = 0;
    double best_cost = std::numeric_limits<double>::infinity();
    size_t candidates = std::min<size_t>(n, 64);
    for (size_t t = 0; t < candidates; ++t) {
      size_t cand = (candidates == n) ? t : rng.UniformInt(n);
      double cost = 0.0;
      for (size_t i = 0; i < n; ++i) {
        cost += Distance(points[i], points[cand], metric);
      }
      if (cost < best_cost) {
        best_cost = cost;
        best = cand;
      }
    }
    medoids.push_back(best);
    for (size_t i = 0; i < n; ++i) {
      nearest[i] = Distance(points[i], points[best], metric);
    }
  }
  while (medoids.size() < k) {
    size_t best = medoids[0];
    double best_gain = -1.0;
    for (size_t cand = 0; cand < n; ++cand) {
      if (std::find(medoids.begin(), medoids.end(), cand) != medoids.end()) {
        continue;
      }
      double gain = 0.0;
      for (size_t i = 0; i < n; ++i) {
        double d = Distance(points[i], points[cand], metric);
        if (d < nearest[i]) gain += nearest[i] - d;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = cand;
      }
    }
    medoids.push_back(best);
    for (size_t i = 0; i < n; ++i) {
      nearest[i] =
          std::min(nearest[i], Distance(points[i], points[best], metric));
    }
  }

  std::vector<int> assignment(n, 0);
  double cost = Assign(points, medoids, metric, assignment);
  for (size_t iter = 0; iter < max_iterations; ++iter) {
    bool changed = false;
    std::vector<std::vector<size_t>> members =
        Members(assignment, medoids.size());
    for (size_t c = 0; c < medoids.size(); ++c) {
      if (members[c].empty()) continue;
      size_t best = medoids[c];
      double best_cost = std::numeric_limits<double>::infinity();
      for (size_t cand : members[c]) {
        double cand_cost = 0.0;
        for (size_t other : members[c]) {
          cand_cost += Distance(points[other], points[cand], metric);
        }
        if (cand_cost < best_cost) {
          best_cost = cand_cost;
          best = cand;
        }
      }
      if (best != medoids[c]) {
        medoids[c] = best;
        changed = true;
      }
    }
    if (!changed) break;
    cost = Assign(points, medoids, metric, assignment);
  }

  result.assignment = std::move(assignment);
  result.medoids = std::move(medoids);
  result.cost = cost;
  return result;
}

// Mean silhouette coefficient; 0 for fewer than two clusters.
inline double MeanSilhouette(const std::vector<FeatureVector>& points,
                             const ClusteringResult& clustering,
                             DistanceMetric metric) {
  size_t n = points.size();
  if (n == 0 || clustering.num_clusters() < 2) return 0.0;
  std::vector<std::vector<size_t>> members =
      Members(clustering.assignment, clustering.num_clusters());
  double total = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t own = static_cast<size_t>(clustering.assignment[i]);
    if (members[own].size() <= 1) continue;
    double a = 0.0;
    for (size_t j : members[own]) {
      if (j != i) a += Distance(points[i], points[j], metric);
    }
    a /= static_cast<double>(members[own].size() - 1);
    double b = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < members.size(); ++c) {
      if (c == own || members[c].empty()) continue;
      double d = 0.0;
      for (size_t j : members[c]) d += Distance(points[i], points[j], metric);
      d /= static_cast<double>(members[c].size());
      b = std::min(b, d);
    }
    if (!std::isfinite(b)) continue;
    double denom = std::max(a, b);
    total += denom == 0.0 ? 0.0 : (b - a) / denom;
    ++counted;
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

// Average-linkage agglomerative clustering down to `k` clusters, each
// reported with its most central member as medoid.
inline ClusteringResult AgglomerativeAverageLinkage(
    const std::vector<FeatureVector>& points, size_t k,
    DistanceMetric metric) {
  ClusteringResult result;
  size_t n = points.size();
  if (n == 0) return result;
  k = std::max<size_t>(1, std::min(k, n));

  std::vector<std::vector<size_t>> clusters(n);
  for (size_t i = 0; i < n; ++i) clusters[i] = {i};
  std::vector<bool> active(n, true);
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      dist[i][j] = dist[j][i] = Distance(points[i], points[j], metric);
    }
  }

  size_t active_count = n;
  while (active_count > k) {
    size_t best_i = 0, best_j = 0;
    double best = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      for (size_t j = i + 1; j < n; ++j) {
        if (!active[j]) continue;
        if (dist[i][j] < best) {
          best = dist[i][j];
          best_i = i;
          best_j = j;
        }
      }
    }
    double si = static_cast<double>(clusters[best_i].size());
    double sj = static_cast<double>(clusters[best_j].size());
    for (size_t x = 0; x < n; ++x) {
      if (!active[x] || x == best_i || x == best_j) continue;
      dist[best_i][x] = dist[x][best_i] =
          (si * dist[best_i][x] + sj * dist[best_j][x]) / (si + sj);
    }
    clusters[best_i].insert(clusters[best_i].end(), clusters[best_j].begin(),
                            clusters[best_j].end());
    clusters[best_j].clear();
    active[best_j] = false;
    --active_count;
  }

  result.assignment.assign(n, 0);
  int cluster_index = 0;
  for (size_t c = 0; c < n; ++c) {
    if (!active[c]) continue;
    for (size_t member : clusters[c]) {
      result.assignment[member] = cluster_index;
    }
    size_t best_member = clusters[c][0];
    double best_cost = std::numeric_limits<double>::infinity();
    for (size_t a : clusters[c]) {
      double cost = 0.0;
      for (size_t b : clusters[c]) {
        cost += Distance(points[a], points[b], metric);
      }
      if (cost < best_cost) {
        best_cost = cost;
        best_member = a;
      }
    }
    result.medoids.push_back(best_member);
    ++cluster_index;
  }
  result.cost = 0.0;
  for (size_t i = 0; i < n; ++i) {
    result.cost += Distance(
        points[i], points[result.medoids[result.assignment[i]]], metric);
  }
  return result;
}

}  // namespace naive
}  // namespace vqi

#endif  // VQLIB_TESTS_NAIVE_CLUSTERING_H_
