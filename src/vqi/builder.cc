#include "vqi/builder.h"

#include "metrics/coverage.h"

namespace vqi {

namespace {

PatternPanel PanelWithBasics(const AttributePanel& attributes) {
  PatternPanel panel;
  Label dominant = attributes.DominantVertexLabel();
  for (Graph& basic : PatternPanel::DefaultBasicPatterns(dominant)) {
    panel.AddBasic(std::move(basic));
  }
  return panel;
}

}  // namespace

StatusOr<VqiBuildResult> BuildVqiForDatabase(const GraphDatabase& db,
                                             const CatapultConfig& config,
                                             const LabelDictionary* dict) {
  StatusOr<CatapultResult> selection = RunCatapult(db, config);
  if (!selection.ok()) return selection.status();

  VqiBuildResult result;
  AttributePanel attributes =
      AttributePanel::FromStats(db.ComputeLabelStats(), dict);
  PatternPanel patterns = PanelWithBasics(attributes);
  std::vector<double> coverages = RecordedCoverages(selection->state);
  for (size_t j = 0; j < coverages.size(); ++j) {
    patterns.AddCanned(selection->patterns()[j], coverages[j]);
  }
  result.vqi = VisualQueryInterface(DataSourceKind::kGraphCollection,
                                    std::move(attributes), std::move(patterns));
  result.catapult_state = std::move(selection->state);
  result.catapult_stats = selection->stats;
  return result;
}

StatusOr<VqiBuildResult> BuildVqiForNetwork(const Graph& network,
                                            const TattooConfig& config,
                                            const LabelDictionary* dict) {
  StatusOr<TattooResult> selection = RunTattoo(network, config);
  if (!selection.ok()) return selection.status();

  // Label stats of the single network.
  LabelStats stats;
  for (VertexId v = 0; v < network.NumVertices(); ++v) {
    ++stats.vertex_label_counts[network.VertexLabel(v)];
  }
  for (const Edge& e : network.Edges()) {
    ++stats.edge_label_counts[e.label];
  }

  VqiBuildResult result;
  AttributePanel attributes = AttributePanel::FromStats(stats, dict);
  PatternPanel patterns = PanelWithBasics(attributes);
  NetworkCoverageIndex index(network, network.Edges());
  for (const Graph& p : selection->patterns) {
    patterns.AddCanned(p, index.Fraction(p, config.coverage));
  }
  result.vqi = VisualQueryInterface(DataSourceKind::kSingleNetwork,
                                    std::move(attributes), std::move(patterns));
  result.tattoo_stats = selection->stats;
  return result;
}

VisualQueryInterface BuildManualBaselineVqi(const LabelStats& stats,
                                            DataSourceKind kind,
                                            const LabelDictionary* dict) {
  AttributePanel attributes = AttributePanel::FromStats(stats, dict);
  PatternPanel patterns = PanelWithBasics(attributes);
  return VisualQueryInterface(kind, std::move(attributes),
                              std::move(patterns));
}

}  // namespace vqi
