#include "mining/closed_trees.h"

#include <algorithm>
#include <unordered_set>

#include "match/vf2.h"

namespace vqi {

std::vector<FrequentTree> ClosedTrees(const std::vector<FrequentTree>& trees) {
  std::vector<FrequentTree> closed;
  for (size_t i = 0; i < trees.size(); ++i) {
    const FrequentTree& t = trees[i];
    bool is_closed = true;
    for (size_t j = 0; j < trees.size(); ++j) {
      if (i == j) continue;
      const FrequentTree& super = trees[j];
      if (super.tree.NumEdges() != t.tree.NumEdges() + 1) continue;
      if (super.support != t.support) continue;
      if (ContainsSubgraph(super.tree, t.tree)) {
        is_closed = false;
        break;
      }
    }
    if (is_closed) closed.push_back(t);
  }
  return closed;
}

std::vector<FrequentTree> MineClosedTrees(const GraphDatabase& db,
                                          const TreeMinerConfig& config) {
  return ClosedTrees(MineFrequentTrees(db, config));
}

std::vector<FrequentTree> MaintainClosedTrees(
    std::vector<FrequentTree> trees, const GraphDatabase& db,
    const BatchUpdate& update, const TreeMinerConfig& config) {
  std::unordered_set<GraphId> deleted(update.deletions.begin(),
                                      update.deletions.end());
  // Every tree is matched against the same additions (only those actually
  // in the db now): one index per added graph for the whole call (trees
  // never prune with truss shells).
  std::vector<GraphId> added_ids;
  std::vector<MatchIndex> added_indexes;
  for (const Graph& added : update.additions) {
    if (!db.Contains(added.id())) continue;
    added_ids.push_back(added.id());
    added_indexes.emplace_back(db.Get(added.id()), kNoTrussShells);
  }
  std::vector<FrequentTree> maintained;
  for (FrequentTree& t : trees) {
    // 1. Drop deleted ids.
    auto end = std::remove_if(
        t.support.begin(), t.support.end(),
        [&](GraphId id) { return deleted.count(id) > 0; });
    t.support.erase(end, t.support.end());
    // 2. Match against additions.
    PatternPlan plan(t.tree, kNoTrussShells);
    for (size_t i = 0; i < added_ids.size(); ++i) {
      if (SubgraphMatcher(plan, added_indexes[i]).Exists()) {
        t.support.push_back(added_ids[i]);
      }
    }
    std::sort(t.support.begin(), t.support.end());
    t.support.erase(std::unique(t.support.begin(), t.support.end()),
                    t.support.end());
    // 3. Frequency filter.
    if (t.support.size() >= config.min_support) {
      maintained.push_back(std::move(t));
    }
  }
  // 4. Re-check closedness on the maintained set.
  return ClosedTrees(maintained);
}

}  // namespace vqi
