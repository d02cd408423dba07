#ifndef VQLIB_CLUSTER_KMEDOIDS_H_
#define VQLIB_CLUSTER_KMEDOIDS_H_

#include <vector>

#include "cluster/similarity.h"
#include "common/rng.h"

namespace vqi {

/// Result of a flat clustering of n points into k groups.
struct ClusteringResult {
  /// Cluster index of every point (0..k-1).
  std::vector<int> assignment;
  /// Point index of each cluster's medoid (meaningful for k-medoids; for
  /// other algorithms the most central member is reported).
  std::vector<size_t> medoids;
  /// Sum of point-to-medoid distances.
  double cost = 0.0;

  size_t num_clusters() const { return medoids.size(); }
};

/// k-medoids (PAM-style): greedy BUILD initialization followed by
/// alternating assignment / medoid-update sweeps until convergence or
/// `max_iterations`. Deterministic given the rng seed. k is clamped to the
/// number of points. Each pairwise distance is computed once, into a
/// DistanceTable of n(n+1)/2 doubles (0.25 MB at 250 points, 16 MB at 2,000)
/// that is freed on return.
ClusteringResult KMedoids(const std::vector<FeatureVector>& points, size_t k,
                          DistanceMetric metric, Rng& rng,
                          size_t max_iterations = 30);

/// Members of each cluster, from an assignment vector.
std::vector<std::vector<size_t>> ClusterMembers(
    const std::vector<int>& assignment, size_t num_clusters);

/// Mean silhouette coefficient of a clustering (quality in [-1, 1]);
/// clusterings with singleton-only clusters return 0. Reads one
/// DistanceTable, as KMedoids does.
double MeanSilhouette(const std::vector<FeatureVector>& points,
                      const ClusteringResult& clustering,
                      DistanceMetric metric);

}  // namespace vqi

#endif  // VQLIB_CLUSTER_KMEDOIDS_H_
