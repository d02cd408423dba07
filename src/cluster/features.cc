#include "cluster/features.h"

#include <algorithm>
#include <unordered_map>

#include "match/vf2.h"

namespace vqi {

std::vector<FeatureVector> TreeFeatures(
    const GraphDatabase& db, const std::vector<FrequentTree>& basis) {
  std::unordered_map<GraphId, size_t> position;
  position.reserve(db.size());
  for (size_t i = 0; i < db.graphs().size(); ++i) {
    position[db.graphs()[i].id()] = i;
  }
  std::vector<FeatureVector> features(db.size(),
                                      FeatureVector(basis.size(), 0.0));
  for (size_t dim = 0; dim < basis.size(); ++dim) {
    for (GraphId gid : basis[dim].support) {
      auto it = position.find(gid);
      if (it != position.end()) features[it->second][dim] = 1.0;
    }
  }
  return features;
}

FeatureVector TreeFeatureOf(const Graph& g,
                            const std::vector<FrequentTree>& basis) {
  FeatureVector f(basis.size(), 0.0);
  // One index of `g` for the whole basis; trees never prune with shells.
  MatchIndex index(g, kNoTrussShells);
  for (size_t dim = 0; dim < basis.size(); ++dim) {
    PatternPlan plan(basis[dim].tree, kNoTrussShells);
    if (SubgraphMatcher(plan, index).Exists()) f[dim] = 1.0;
  }
  return f;
}

}  // namespace vqi
