#ifndef VQLIB_SIM_FORMULATION_H_
#define VQLIB_SIM_FORMULATION_H_

#include <vector>

#include "graph/graph.h"
#include "sim/klm.h"

namespace vqi {

/// The recorded actions of one simulated query formulation.
struct FormulationTrace {
  std::vector<SimAction> actions;
  /// How many canned/basic patterns were stamped.
  size_t patterns_used = 0;
  /// How many target edges arrived via pattern stamps (vs drawn singly).
  size_t edges_from_patterns = 0;
  /// Number of atomic steps — the usability studies' primary measure.
  size_t StepCount() const { return actions.size(); }
};

/// Total KLM time of a trace given the Pattern Panel size the user browses.
double TraceSeconds(const FormulationTrace& trace, const KlmModel& model,
                    size_t pattern_panel_size);

/// Simulates an expert user formulating `target` on a VQI exposing
/// `patterns` (pattern-at-a-time where possible, edge-at-a-time for the
/// rest):
///  * repeatedly stamp the largest available pattern that embeds
///    *structurally* into the not-yet-built part of the target; the stamp
///    costs 1 step, plus 1 merge step per contact vertex with the built
///    region, plus 1 relabel step per label the user must fix afterwards
///    (vertex labels of newly placed vertices and edge labels that differ
///    from the target) — exactly the stamp-then-edit workflow the surveyed
///    VQIs support. A pattern is only stamped when this costs fewer steps
///    than drawing the same edges one at a time;
///  * then draw the remaining edges one at a time (new vertices need an add
///    step and a label step; every edge needs an add step, labeled edges one
///    more).
/// With an empty pattern list this degenerates to pure edge-at-a-time
/// formulation — the manual-VQI baseline of the surveyed studies.
FormulationTrace SimulateFormulation(const Graph& target,
                                     const std::vector<Graph>& patterns);

}  // namespace vqi

#endif  // VQLIB_SIM_FORMULATION_H_
