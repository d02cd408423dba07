#ifndef VQLIB_MATCH_VF2_H_
#define VQLIB_MATCH_VF2_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "match/candidate_index.h"
#include "match/csr_graph.h"

namespace vqi {

/// Options controlling subgraph matching semantics and budgets.
struct MatchOptions {
  /// When true, require induced embeddings (pattern non-edges must map to
  /// target non-edges). Coverage in the surveyed papers uses plain subgraph
  /// isomorphism (monomorphism), the default.
  bool induced = false;
  /// Respect vertex labels (a pattern vertex only maps to an equal label).
  bool match_vertex_labels = true;
  /// Respect edge labels.
  bool match_edge_labels = true;
  /// Treat kDummyLabel as a wildcard that matches any label (closure-graph
  /// semantics: a dummy vertex/edge stands for "some member has this").
  bool dummy_is_wildcard = false;
  /// Stop after this many embeddings during Count/Enumerate. 0 = unlimited.
  uint64_t max_embeddings = 0;
  /// Abort search after this many recursive steps (guards worst cases on
  /// large targets). 0 = unlimited.
  uint64_t max_steps = 0;
};

/// An embedding maps pattern vertex i to Embedding[i] in the target.
using Embedding = std::vector<VertexId>;

/// The admission test every search starts with (docs/matching.md, "Label
/// census"): false when the pattern compiled into `plan` has more vertices
/// or edges than `target` or, when labels are matched exactly under
/// `options`, a census bucket above the target's. Such a pair has no
/// embedding. `target` is MatchIndex::Admission() or a CollectionIndex's
/// admission column.
bool Admits(const PatternPlan& plan, const AdmissionRow& target,
            const MatchOptions& options);

/// VF2-style backtracking matcher for one (pattern, target) pair, run over a
/// compiled PatternPlan and the target's MatchIndex. Construction admits the
/// pair first (Admits): a pair it rules out has no embedding, so every run
/// of it returns none at 0 steps and the matcher allocates no scratch. An
/// admitted search seeds from the rarest-label pattern vertex; when no target
/// vertex can take that seed, every run ends at the search root (1 step),
/// again without scratch. Otherwise every candidate is pre-filtered by
/// degree, neighborhood label signatures and truss shells before the full
/// feasibility check. Candidates are visited in target adjacency order at
/// anchored depths and in vertex-id order at anchorless ones, so the
/// embedding sequence does not depend on which filters an index carries.
///
/// The pattern must be connected for meaningful candidate propagation; a
/// disconnected pattern is matched component-by-component implicitly by
/// falling back to full candidate scans, which is correct but slow.
class SubgraphMatcher {
 public:
  /// One-off search: compiles a private plan of `pattern` and a private
  /// index of `target`, both without truss shells. Loops that match several
  /// patterns against one target should share an index instead.
  SubgraphMatcher(const Graph& pattern, const Graph& target,
                  MatchOptions options = {});

  /// Shared form: `plan` and `index` (built from the target graph) must
  /// outlive the matcher. Truss shells prune only when both carry them.
  SubgraphMatcher(const PatternPlan& plan, const MatchIndex& index,
                  MatchOptions options = {});
  // The matcher keeps pointers to both, so temporaries would dangle.
  SubgraphMatcher(PatternPlan&&, const MatchIndex&, MatchOptions = {}) = delete;
  SubgraphMatcher(const PatternPlan&, MatchIndex&&, MatchOptions = {}) = delete;

  SubgraphMatcher(const SubgraphMatcher&) = delete;
  SubgraphMatcher& operator=(const SubgraphMatcher&) = delete;

  /// True when at least one embedding exists.
  bool Exists();

  /// Returns some embedding or nullopt.
  std::optional<Embedding> FindOne();

  /// Counts embeddings up to options.max_embeddings (distinct mappings;
  /// automorphic images count separately, as in the coverage definitions of
  /// the surveyed papers). An empty pattern has one, the empty mapping.
  uint64_t CountEmbeddings();

  /// Invokes `callback` per embedding; return false from it to stop early.
  /// Returns the number of embeddings delivered.
  uint64_t Enumerate(const std::function<bool(const Embedding&)>& callback);

  /// True when the search hit max_steps before completing (results may be
  /// lower bounds). Reset at the start of every Exists/FindOne/Count/
  /// Enumerate call, so it always describes the most recent run.
  bool hit_step_limit() const { return hit_step_limit_; }

  /// Adjusts the step budget for subsequent runs (0 = unlimited), letting a
  /// caller retry the same matcher with a bigger budget after a limited run.
  void set_max_steps(uint64_t max_steps) { options_.max_steps = max_steps; }

  /// Search steps consumed by the last Exists/FindOne/Count/Enumerate call —
  /// one step per search-tree node expansion plus one per feasibility probe
  /// on a candidate vertex (the O(degree) consistency check). This is the
  /// unit max_steps budgets, exposed so callers (e.g. the query service's
  /// deadline slicing) can meter matcher work. Candidates rejected by the
  /// index's O(1) admission filters never cost a step, and a pair ruled out
  /// at construction (oversized, or failing the label census) costs 0 steps
  /// and never hits the limit. An empty pattern's one embedding is the
  /// search root: 1 step. So is a pair whose seed no target vertex can
  /// take, which never hits the limit either: a set max_steps is >= 1.
  uint64_t steps() const { return steps_; }

 private:
  void Init();
  /// The seed vertex for this target, which picks the plan's match order;
  /// `*width` is its candidate count when label seeding is sound and
  /// SIZE_MAX otherwise.
  VertexId ChooseStart(size_t* width) const;
  /// Full consistency check of pu -> tv. `anchor` is the pattern vertex
  /// whose image's adjacency row yielded tv over an edge labelled
  /// `anchor_label` (kUnmapped at an anchorless depth): that edge is known
  /// to exist, so only the other mapped neighbors are looked up.
  bool Feasible(VertexId pu, VertexId tv, VertexId anchor,
                Label anchor_label) const;
  /// Cheap prune-only index filters (degree, exact label, signature
  /// subsumption, truss shell).
  bool IndexAdmits(VertexId pu, VertexId tv) const;
  bool Recurse(size_t depth, const std::function<bool(const Embedding&)>& cb,
               uint64_t* found);
  /// Resets the per-run counters; false when the run needs no search (no
  /// embedding can exist).
  bool StartRun();

  std::optional<PatternPlan> owned_plan_;  // one-off form only
  std::optional<MatchIndex> owned_index_;  // one-off form only
  const PatternPlan* plan_;
  const MatchIndex* index_;
  const CsrGraph* pcsr_;  // &plan_->csr
  const CsrGraph* tcsr_;  // &index_->csr
  MatchOptions options_;
  bool label_filters_ = false;  // bucket seeding + signatures are sound
  bool shell_filter_ = false;   // plan and index both carry truss shells
  bool fits_ = false;  // size and (gated) label census admit the pair
  bool root_only_ = false;  // fits, but no target vertex can take the seed
  const VertexId* order_ = nullptr;    // pattern vertices in match order
  const int* anchor_ = nullptr;        // order index of an earlier neighbor
  std::vector<VertexId> mapping_;      // pattern -> target (kUnmapped if none)
  std::vector<bool> used_;             // target vertex already used
  uint64_t steps_ = 0;
  bool hit_step_limit_ = false;

  static constexpr VertexId kUnmapped = 0xFFFFFFFFu;
};

/// Convenience: does `target` contain a subgraph isomorphic to `pattern`?
bool ContainsSubgraph(const Graph& target, const Graph& pattern,
                      const MatchOptions& options = {});

/// Convenience: count embeddings of `pattern` in `target` with a cap.
uint64_t CountEmbeddings(const Graph& target, const Graph& pattern,
                         uint64_t cap, const MatchOptions& options = {});

}  // namespace vqi

#endif  // VQLIB_MATCH_VF2_H_
