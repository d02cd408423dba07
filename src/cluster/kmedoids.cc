#include "cluster/kmedoids.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace vqi {

namespace {

// Assigns every point to its nearest medoid; returns total cost.
double Assign(const DistanceTable& dist, const std::vector<size_t>& medoids,
              std::vector<int>& assignment) {
  double cost = 0.0;
  for (size_t i = 0; i < assignment.size(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    int best_cluster = 0;
    for (size_t c = 0; c < medoids.size(); ++c) {
      double d = dist(i, medoids[c]);
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

}  // namespace

ClusteringResult KMedoids(const std::vector<FeatureVector>& points, size_t k,
                          DistanceMetric metric, Rng& rng,
                          size_t max_iterations) {
  ClusteringResult result;
  size_t n = points.size();
  if (n == 0) return result;
  k = std::min(k, n);
  VQI_CHECK_GE(k, 1u);
  const DistanceTable dist(points, metric);

  // BUILD: first medoid minimizes total distance on a sample; subsequent
  // medoids maximize marginal cost reduction (classic greedy PAM BUILD).
  std::vector<size_t> medoids;
  std::vector<double> nearest(n, std::numeric_limits<double>::infinity());
  {
    size_t best = 0;
    double best_cost = std::numeric_limits<double>::infinity();
    // On large inputs evaluate a random sample of starting candidates.
    size_t candidates = std::min<size_t>(n, 64);
    for (size_t t = 0; t < candidates; ++t) {
      size_t cand = (candidates == n) ? t : rng.UniformInt(n);
      double cost = 0.0;
      for (size_t i = 0; i < n; ++i) cost += dist(i, cand);
      if (cost < best_cost) {
        best_cost = cost;
        best = cand;
      }
    }
    medoids.push_back(best);
    for (size_t i = 0; i < n; ++i) nearest[i] = dist(i, best);
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
        double d = dist(i, cand);
        if (d < nearest[i]) gain += nearest[i] - d;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = cand;
      }
    }
    medoids.push_back(best);
    for (size_t i = 0; i < n; ++i) {
      nearest[i] = std::min(nearest[i], dist(i, best));
    }
  }

  // Alternating refinement: assignment, then per-cluster medoid update.
  std::vector<int> assignment(n, 0);
  double cost = Assign(dist, medoids, assignment);
  for (size_t iter = 0; iter < max_iterations; ++iter) {
    bool changed = false;
    std::vector<std::vector<size_t>> members =
        ClusterMembers(assignment, medoids.size());
    for (size_t c = 0; c < medoids.size(); ++c) {
      if (members[c].empty()) continue;
      size_t best = medoids[c];
      double best_cost = std::numeric_limits<double>::infinity();
      for (size_t cand : members[c]) {
        double cand_cost = 0.0;
        for (size_t other : members[c]) cand_cost += dist(other, cand);
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
    cost = Assign(dist, medoids, assignment);
  }

  result.assignment = std::move(assignment);
  result.medoids = std::move(medoids);
  result.cost = cost;
  return result;
}

std::vector<std::vector<size_t>> ClusterMembers(
    const std::vector<int>& assignment, size_t num_clusters) {
  std::vector<std::vector<size_t>> members(num_clusters);
  for (size_t i = 0; i < assignment.size(); ++i) {
    VQI_CHECK_GE(assignment[i], 0);
    VQI_CHECK_LT(static_cast<size_t>(assignment[i]), num_clusters);
    members[assignment[i]].push_back(i);
  }
  return members;
}

double MeanSilhouette(const std::vector<FeatureVector>& points,
                      const ClusteringResult& clustering,
                      DistanceMetric metric) {
  size_t n = points.size();
  if (n == 0 || clustering.num_clusters() < 2) return 0.0;
  std::vector<std::vector<size_t>> members =
      ClusterMembers(clustering.assignment, clustering.num_clusters());
  const DistanceTable dist(points, metric);
  double total = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t own = static_cast<size_t>(clustering.assignment[i]);
    if (members[own].size() <= 1) continue;  // silhouette undefined
    double a = 0.0;
    for (size_t j : members[own]) {
      if (j != i) a += dist(i, j);
    }
    a /= static_cast<double>(members[own].size() - 1);
    double b = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < members.size(); ++c) {
      if (c == own || members[c].empty()) continue;
      double d = 0.0;
      for (size_t j : members[c]) d += dist(i, j);
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

}  // namespace vqi
