#include "vqi/maintainer.h"

namespace vqi {

VqiMaintainer::VqiMaintainer(CatapultState state, MidasConfig config)
    : config_(std::move(config)) {
  state_.catapult = std::move(state);
  // MIDAS maintenance relies on the closed-tree feature basis.
  state_.catapult.config.use_closed_trees = true;
}

StatusOr<MaintenanceReport> VqiMaintainer::ApplyBatch(
    VisualQueryInterface& vqi, GraphDatabase& db, BatchUpdate update,
    const LabelDictionary* dict) {
  StatusOr<MaintenanceReport> report =
      ApplyBatchAndMaintain(state_, db, std::move(update), config_);
  if (!report.ok()) return report;

  // Refresh the Attribute Panel (labels may have appeared/vanished).
  vqi.attribute_panel() = AttributePanel::FromStats(db.ComputeLabelStats(), dict);

  // Refresh the canned patterns (keep basic ones).
  vqi.pattern_panel().ReplaceCanned(state_.patterns(),
                                    report->pattern_coverages);

  // The database just changed under anything serving from it; give caches a
  // chance to drop results computed against the pre-batch state.
  for (const auto& listener : batch_listeners_) listener();
  return report;
}

void VqiMaintainer::AddBatchListener(std::function<void()> listener) {
  batch_listeners_.push_back(std::move(listener));
}

}  // namespace vqi
