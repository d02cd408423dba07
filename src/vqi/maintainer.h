#ifndef VQLIB_VQI_MAINTAINER_H_
#define VQLIB_VQI_MAINTAINER_H_

#include <functional>
#include <vector>

#include "common/status.h"
#include "midas/midas.h"
#include "vqi/interface.h"

namespace vqi {

/// Keeps a collection-backed VQI fresh as the repository evolves, by
/// wrapping MIDAS: batch updates are applied to the database, the canned
/// patterns are maintained, and the VQI's Attribute and Pattern panels are
/// refreshed in place.
class VqiMaintainer {
 public:
  /// `state` is the CATAPULT state returned by BuildVqiForDatabase (moved
  /// in). The maintainer owns it from here on.
  VqiMaintainer(CatapultState state, MidasConfig config);

  /// Applies `update` to `db`, maintains the pattern set, refreshes the
  /// panels of `vqi`. Returns the MIDAS maintenance report.
  StatusOr<MaintenanceReport> ApplyBatch(VisualQueryInterface& vqi,
                                         GraphDatabase& db,
                                         BatchUpdate update,
                                         const LabelDictionary* dict = nullptr);

  /// Registers `listener` to run after every successfully applied batch,
  /// once the database and panels reflect the update. Listeners are not
  /// needed for serving freshness: QueryService keys its cache by the
  /// database's content versions, which the batch's edits move. Listeners
  /// run on the ApplyBatch caller's thread, in registration order; they must
  /// not call back into this maintainer.
  void AddBatchListener(std::function<void()> listener);

  const MidasState& state() const { return state_; }

 private:
  MidasState state_;
  MidasConfig config_;
  std::vector<std::function<void()>> batch_listeners_;
};

}  // namespace vqi

#endif  // VQLIB_VQI_MAINTAINER_H_
