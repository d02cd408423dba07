#include "match/vf2.h"

#include <limits>
#include <utility>

namespace vqi {

bool Admits(const PatternPlan& plan, const AdmissionRow& target,
            const MatchOptions& options) {
  // The census compares labels exactly, so it applies under the gate of the
  // label filters; when edge labels are matched it compares every edge type.
  const bool exact_labels =
      options.match_vertex_labels && !options.dummy_is_wildcard;
  return plan.csr.NumVertices() <= target.vertices &&
         plan.csr.NumEdges() <= target.edges &&
         (!exact_labels ||
          plan.census.FitsIn(target.census, options.match_edge_labels));
}

SubgraphMatcher::SubgraphMatcher(const Graph& pattern, const Graph& target,
                                 MatchOptions options)
    : owned_plan_(std::in_place, pattern, kNoTrussShells),
      owned_index_(std::in_place, target, kNoTrussShells),
      plan_(&*owned_plan_),
      index_(&*owned_index_),
      options_(options) {
  Init();
}

SubgraphMatcher::SubgraphMatcher(const PatternPlan& plan,
                                 const MatchIndex& index, MatchOptions options)
    : plan_(&plan), index_(&index), options_(options) {
  Init();
}

void SubgraphMatcher::Init() {
  pcsr_ = &plan_->csr;
  tcsr_ = &index_->csr;
  // Label-bucket seeding and signature subsumption compare labels exactly, so
  // they are only sound when vertex labels are matched and dummies are not
  // wildcards; degree and truss filters are structural and always sound.
  label_filters_ = options_.match_vertex_labels && !options_.dummy_is_wildcard;
  shell_filter_ = !plan_->shells.empty() && index_->candidates.has_truss();
  fits_ = Admits(*plan_, index_->Admission(), options_);
  // A pair that does not fit is never searched, and an empty pattern's one
  // (empty) embedding sits at the search root: neither needs an order or
  // scratch space.
  if (pcsr_->NumVertices() == 0 || !fits_) return;
  size_t width = 0;
  const VertexId start = ChooseStart(&width);
  // No target vertex passes the seed's label and degree filters, so the
  // root expands no candidate: neither does this pair need scratch space.
  if (width == 0) {
    root_only_ = true;
    return;
  }
  mapping_.assign(pcsr_->NumVertices(), kUnmapped);
  used_.assign(tcsr_->NumVertices(), false);
  order_ = plan_->Order(start);
  anchor_ = plan_->Anchors(start);
}

VertexId SubgraphMatcher::ChooseStart(size_t* width) const {
  // Seed from the rarest pattern vertex: the one with the fewest viable
  // target candidates |{tv : label(tv) == label(v), deg(tv) >= deg(v)}|, read
  // off the index's label buckets. Ties prefer higher degree (a stronger
  // anchor for the rest of the order), then lower id for determinism. The
  // width does not depend on the index's optional truss shells, so a shared
  // and a private index yield the same order. When label seeding is unsound
  // (wildcards, labels ignored) the highest-degree vertex starts.
  const size_t n = pcsr_->NumVertices();
  VertexId start = 0;
  *width = std::numeric_limits<size_t>::max();
  if (label_filters_) {
    // A later vertex of a (label, degree) class has its first's width and
    // degree, so neither strict comparison lets it displace the first:
    // probing one vertex per class, in id order, picks the same seed.
    for (VertexId v : plan_->seeds) {
      size_t candidates = index_->candidates
                              .CandidatesForLabel(pcsr_->VertexLabel(v),
                                                  pcsr_->Degree(v))
                              .size();
      if (candidates < *width ||
          (candidates == *width && pcsr_->Degree(v) > pcsr_->Degree(start))) {
        start = v;
        *width = candidates;
      }
    }
  } else {
    // Highest-degree vertex: a strong static heuristic at pattern scale.
    for (VertexId v = 1; v < n; ++v) {
      if (pcsr_->Degree(v) > pcsr_->Degree(start)) start = v;
    }
  }
  return start;
}

bool SubgraphMatcher::Feasible(VertexId pu, VertexId tv, VertexId anchor,
                               Label anchor_label) const {
  auto labels_compatible = [&](Label a, Label b) {
    if (a == b) return true;
    return options_.dummy_is_wildcard &&
           (a == kDummyLabel || b == kDummyLabel);
  };
  if (options_.match_vertex_labels &&
      !labels_compatible(pcsr_->VertexLabel(pu), tcsr_->VertexLabel(tv))) {
    return false;
  }
  // Every pattern edge from pu to an already-mapped vertex must exist in the
  // target (with a matching label); for induced matching, mapped non-edges
  // must stay non-edges. Degree was already checked by IndexAdmits. The
  // edge to the anchor's image is the one tv was read from.
  for (const Neighbor* nb = pcsr_->NeighborsBegin(pu);
       nb != pcsr_->NeighborsEnd(pu); ++nb) {
    VertexId mapped = mapping_[nb->vertex];
    if (mapped == kUnmapped) continue;
    Label elabel = anchor_label;
    if (nb->vertex != anchor) {
      std::optional<Label> found = tcsr_->EdgeLabel(tv, mapped);
      if (!found.has_value()) return false;
      elabel = *found;
    }
    if (options_.match_edge_labels &&
        !labels_compatible(elabel, nb->edge_label)) {
      return false;
    }
  }
  if (options_.induced) {
    for (VertexId pv = 0; pv < pcsr_->NumVertices(); ++pv) {
      if (mapping_[pv] == kUnmapped || pv == pu) continue;
      if (!pcsr_->HasEdge(pu, pv) && tcsr_->HasEdge(tv, mapping_[pv])) {
        return false;
      }
    }
  }
  return true;
}

bool SubgraphMatcher::IndexAdmits(VertexId pu, VertexId tv) const {
  if (tcsr_->Degree(tv) < pcsr_->Degree(pu)) return false;
  if (label_filters_) {
    const CandidateIndex& candidates = index_->candidates;
    if (pcsr_->VertexLabel(pu) != tcsr_->VertexLabel(tv)) return false;
    if (!CandidateIndex::SignatureSubsumes(
            plan_->signatures[pu], candidates.NeighborhoodSignature(tv))) {
      return false;
    }
    if (!CandidateIndex::SignatureSubsumes(
            plan_->repeat_signatures[pu],
            candidates.NeighborhoodRepeatSignature(tv))) {
      return false;
    }
  }
  if (shell_filter_ &&
      index_->candidates.Shell(tv) < plan_->shells[pu]) {
    return false;
  }
  return true;
}

bool SubgraphMatcher::Recurse(
    size_t depth, const std::function<bool(const Embedding&)>& cb,
    uint64_t* found) {
  // A step is one unit of matcher work: a node expansion (this check) or a
  // feasibility probe on a candidate (the check in try_candidate below).
  // Candidates the index's O(1) admission filters reject never cost a step.
  // The budget check precedes every increment and aborts immediately, so for
  // any budget B: hit_step_limit ⟺ (full-run steps > B), and the run's
  // prefix up to the abort is identical to the unbudgeted run.
  auto budget_ok = [&]() {
    if (options_.max_steps != 0 && steps_ >= options_.max_steps) {
      hit_step_limit_ = true;
      return false;
    }
    ++steps_;
    return true;
  };
  if (!budget_ok()) return false;
  if (depth == pcsr_->NumVertices()) {
    ++*found;
    if (!cb(mapping_)) return false;
    if (options_.max_embeddings != 0 && *found >= options_.max_embeddings) {
      return false;
    }
    return true;
  }
  VertexId pu = order_[depth];
  int anchor = anchor_[depth];
  auto try_candidate = [&](VertexId tv, VertexId anchor_pu,
                           Label anchor_label) {
    if (used_[tv] || !IndexAdmits(pu, tv)) return true;
    if (!budget_ok()) return false;
    if (!Feasible(pu, tv, anchor_pu, anchor_label)) return true;
    mapping_[pu] = tv;
    used_[tv] = true;
    bool keep_going = Recurse(depth + 1, cb, found);
    mapping_[pu] = kUnmapped;
    used_[tv] = false;
    return keep_going;
  };
  if (anchor >= 0) {
    // Candidates: target neighbors of the anchor's image.
    const VertexId anchor_pu = order_[static_cast<size_t>(anchor)];
    const VertexId t_anchor = mapping_[anchor_pu];
    for (const Neighbor* nb = tcsr_->NeighborsBegin(t_anchor);
         nb != tcsr_->NeighborsEnd(t_anchor); ++nb) {
      if (!try_candidate(nb->vertex, anchor_pu, nb->edge_label)) return false;
    }
  } else {
    // Anchorless depth (the seed, or a new component): every target vertex
    // in id order.
    for (VertexId tv = 0; tv < tcsr_->NumVertices(); ++tv) {
      if (!try_candidate(tv, kUnmapped, 0)) return false;
    }
  }
  return true;
}

bool SubgraphMatcher::StartRun() {
  // A root-only run is its root's one step, which fits every budget.
  steps_ = root_only_ ? 1 : 0;
  hit_step_limit_ = false;
  return fits_ && !root_only_;
}

bool SubgraphMatcher::Exists() {
  if (!StartRun()) return false;
  uint64_t found = 0;
  Recurse(0, [](const Embedding&) { return false; }, &found);
  return found > 0;
}

std::optional<Embedding> SubgraphMatcher::FindOne() {
  std::optional<Embedding> result;
  if (!StartRun()) return std::nullopt;
  uint64_t found = 0;
  Recurse(
      0,
      [&](const Embedding& e) {
        result = e;
        return false;
      },
      &found);
  return result;
}

uint64_t SubgraphMatcher::CountEmbeddings() {
  return Enumerate([](const Embedding&) { return true; });
}

uint64_t SubgraphMatcher::Enumerate(
    const std::function<bool(const Embedding&)>& callback) {
  if (!StartRun()) return 0;
  uint64_t found = 0;
  Recurse(0, callback, &found);
  return found;
}

bool ContainsSubgraph(const Graph& target, const Graph& pattern,
                      const MatchOptions& options) {
  return SubgraphMatcher(pattern, target, options).Exists();
}

uint64_t CountEmbeddings(const Graph& target, const Graph& pattern,
                         uint64_t cap, const MatchOptions& options) {
  MatchOptions opts = options;
  opts.max_embeddings = cap;
  return SubgraphMatcher(pattern, target, opts).CountEmbeddings();
}

}  // namespace vqi
