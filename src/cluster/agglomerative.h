#ifndef VQLIB_CLUSTER_AGGLOMERATIVE_H_
#define VQLIB_CLUSTER_AGGLOMERATIVE_H_

#include "cluster/kmedoids.h"

namespace vqi {

/// Average-linkage agglomerative clustering down to `k` clusters.
/// Each pairwise distance is computed once, into a DistanceTable of
/// n(n+1)/2 doubles that seeds the merge loop's n x n linkage matrix and
/// serves the medoid pick and the cost: about 1.5 n^2 doubles in all (48 MB
/// at 2,000 points), and cubic-ish time; intended for collections up to a
/// few thousand points. Offered as an alternative clustering strategy in the
/// modular (Tzanikos-style) pipeline.
ClusteringResult AgglomerativeAverageLinkage(
    const std::vector<FeatureVector>& points, size_t k,
    DistanceMetric metric);

}  // namespace vqi

#endif  // VQLIB_CLUSTER_AGGLOMERATIVE_H_
