#include "summary/summarizer.h"

#include <algorithm>

#include "metrics/cognitive_load.h"

namespace vqi {

GraphSummary SummarizeWithPatterns(const Graph& g,
                                   const std::vector<Graph>& vocabulary,
                                   const SummaryConfig& config) {
  GraphSummary summary;
  std::vector<Edge> edges = g.Edges();
  if (edges.empty() || vocabulary.empty()) {
    summary.uncovered_edges = edges.size();
    return summary;
  }

  // Precompute per-pattern coverage bitsets.
  std::vector<Bitset> coverage;
  coverage.reserve(vocabulary.size());
  NetworkCoverageIndex index(g, edges);
  for (const Graph& p : vocabulary) {
    coverage.push_back(index.Bits(p, config.coverage));
  }

  Bitset covered(edges.size());
  std::vector<bool> used(vocabulary.size(), false);
  while (summary.patterns.size() < config.max_patterns) {
    size_t best = vocabulary.size();
    size_t best_gain = 0;
    for (size_t i = 0; i < vocabulary.size(); ++i) {
      if (used[i]) continue;
      size_t gain = covered.NewBits(coverage[i]);
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == vocabulary.size() || best_gain == 0) break;
    used[best] = true;
    covered.UnionWith(coverage[best]);
    summary.patterns.push_back(vocabulary[best]);
    summary.explained_edges.push_back(best_gain);
  }

  summary.edge_coverage = static_cast<double>(covered.Count()) /
                          static_cast<double>(edges.size());
  summary.uncovered_edges = edges.size() - covered.Count();
  summary.mean_cognitive_load = SetCognitiveLoad(summary.patterns);
  return summary;
}

}  // namespace vqi
