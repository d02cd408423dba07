#include "match/candidate_index.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

#include "common/logging.h"

namespace vqi {

namespace {

// Per-vertex neighborhood label masks, shared by the target index and the
// pattern plan so both sides of the subsumption test fold labels alike.
void ComputeSignatures(const CsrGraph& csr, std::vector<uint64_t>* signatures,
                       std::vector<uint64_t>* repeat_signatures) {
  const size_t n = csr.NumVertices();
  signatures->assign(n, 0);
  repeat_signatures->assign(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    uint64_t sig = 0;
    uint64_t repeat = 0;
    for (const Neighbor* nb = csr.NeighborsBegin(v); nb != csr.NeighborsEnd(v);
         ++nb) {
      uint64_t bit = CandidateIndex::LabelBit(csr.VertexLabel(nb->vertex));
      repeat |= sig & bit;  // second sighting of this label class
      sig |= bit;
    }
    (*signatures)[v] = sig;
    (*repeat_signatures)[v] = repeat;
  }
}

// Max trussness over each vertex's incident edges (0 when isolated), read
// off the per-slot trussness of `truss`, a decomposition of the graph `csr`
// views: both keep the graph's sorted rows. Empty when it has no edges.
std::vector<int> ShellsFromSlots(const CsrGraph& csr,
                                 const TrussDecomposition& truss) {
  VQI_CHECK(truss.Describes(csr.NumVertices(), csr.NumEdges()))
      << "the decomposition is not of this graph";
  std::vector<int> shells;
  if (csr.NumEdges() == 0) return shells;
  shells.assign(csr.NumVertices(), 0);
  for (VertexId v = 0; v < csr.NumVertices(); ++v) {
    for (uint32_t s = truss.offsets[v]; s < truss.offsets[v + 1]; ++s) {
      shells[v] = std::max(shells[v], truss.trussness[s]);
    }
  }
  return shells;
}

// The same shells from a decomposition of its own; empty when shells are
// disabled or the graph has no edges.
std::vector<int> VertexShells(const Graph& g, const CsrGraph& csr,
                              const CandidateIndexOptions& options) {
  if (!options.use_truss || csr.NumEdges() == 0) return {};
  return ShellsFromSlots(csr, DecomposeTruss(g));
}

// Greedy match order seeded at `start`: next comes the unbound vertex with
// the most bound neighbors (connectivity first), then the higher degree, then
// the lower id; a disconnected pattern continues with any unbound vertex.
// Each position records the order index of its first bound neighbor in
// adjacency order, whose image anchors its candidates (-1 when none is).
void MatchOrderFrom(const CsrGraph& csr, VertexId start, VertexId* order,
                    int* anchors) {
  const size_t n = csr.NumVertices();
  std::vector<int> position(n, -1);  // order index once bound
  std::vector<size_t> bound_neighbors(n, 0);
  auto bind = [&](VertexId v, size_t at) {
    order[at] = v;
    position[v] = static_cast<int>(at);
    for (const Neighbor* nb = csr.NeighborsBegin(v); nb != csr.NeighborsEnd(v);
         ++nb) {
      ++bound_neighbors[nb->vertex];
    }
  };
  anchors[0] = -1;
  bind(start, 0);
  for (size_t at = 1; at < n; ++at) {
    VertexId best = 0;
    bool found = false;
    for (VertexId v = 0; v < n; ++v) {
      if (position[v] >= 0) continue;
      if (!found || bound_neighbors[v] > bound_neighbors[best] ||
          (bound_neighbors[v] == bound_neighbors[best] &&
           csr.Degree(v) > csr.Degree(best))) {
        best = v;
        found = true;
      }
    }
    int anchor = -1;
    for (const Neighbor* nb = csr.NeighborsBegin(best);
         nb != csr.NeighborsEnd(best); ++nb) {
      if (position[nb->vertex] >= 0) {
        anchor = position[nb->vertex];
        break;
      }
    }
    anchors[at] = anchor;
    bind(best, at);
  }
}

uint64_t BucketKey(Label label, uint32_t degree) {
  return (static_cast<uint64_t>(label) << 32) | degree;
}

// Census bucket of the edge type {a, b} with edge label `e`: a multiplicative
// hash of the sorted endpoint labels and the edge label, top bits kept. Any
// function of the type is sound; mixing spreads small alphabets' types.
size_t EdgeTypeBucket(Label a, Label b, Label e) {
  static_assert(LabelCensus::kEdgeBuckets == 64, "keep the top 6 bits");
  if (a > b) std::swap(a, b);
  uint64_t h = (uint64_t{a} << 32 | b) * 0x9E3779B97F4A7C15ull;
  h = (h ^ (h >> 29) ^ e) * 0xBF58476D1CE4E5B9ull;
  return static_cast<size_t>(h >> 58);
}

// Saturating count: past 255 a bucket stays at 255, which never exceeds the
// true count, so the pattern-vs-target comparison stays a necessary test.
void Bump(uint8_t* count) {
  if (*count != UINT8_MAX) ++*count;
}

}  // namespace

LabelCensus::LabelCensus(const CsrGraph& csr) {
  for (VertexId v = 0; v < csr.NumVertices(); ++v) {
    const Label label = csr.VertexLabel(v);
    Bump(&vertices[label % kVertexBuckets]);
    for (const Neighbor* nb = csr.NeighborsBegin(v); nb != csr.NeighborsEnd(v);
         ++nb) {
      if (nb->vertex < v) continue;  // each undirected edge once
      Bump(&edges[EdgeTypeBucket(label, csr.VertexLabel(nb->vertex),
                                 nb->edge_label)]);
    }
  }
}

bool LabelCensus::FitsIn(const LabelCensus& target, bool edge_labels) const {
  // OR of "pattern bucket exceeds target bucket" over every bucket: most
  // pairs a scan meets fail on some bucket, at no predictable position.
  uint8_t over = 0;
  for (size_t b = 0; b < kVertexBuckets; ++b) {
    over |= static_cast<uint8_t>(vertices[b] > target.vertices[b]);
  }
  if (edge_labels) {
    for (size_t b = 0; b < kEdgeBuckets; ++b) {
      over |= static_cast<uint8_t>(edges[b] > target.edges[b]);
    }
  }
  return over == 0;
}

CandidateIndex::CandidateIndex(const CsrGraph& csr) {
  const size_t n = csr.NumVertices();
  ComputeSignatures(csr, &signatures_, &repeat_signatures_);

  // One sort groups vertices by label with degree-ascending runs; ties break
  // by id so the layout is deterministic.
  bucket_vertices_.resize(n);
  std::iota(bucket_vertices_.begin(), bucket_vertices_.end(), 0u);
  auto key = [&csr](VertexId v) {
    return BucketKey(csr.VertexLabel(v), csr.Degree(v));
  };
  std::sort(bucket_vertices_.begin(), bucket_vertices_.end(),
            [&key](VertexId a, VertexId b) {
              uint64_t ka = key(a);
              uint64_t kb = key(b);
              return ka != kb ? ka < kb : a < b;
            });
  bucket_keys_.resize(n);
  for (size_t i = 0; i < n; ++i) bucket_keys_[i] = key(bucket_vertices_[i]);
}

CandidateIndex CandidateIndex::Build(const Graph& g, const CsrGraph& csr,
                                     const CandidateIndexOptions& options) {
  CandidateIndex index(csr);
  index.shells_ = VertexShells(g, csr, options);
  return index;
}

CandidateIndex CandidateIndex::Build(const CsrGraph& csr,
                                     const TrussDecomposition& truss) {
  CandidateIndex index(csr);
  index.shells_ = ShellsFromSlots(csr, truss);
  return index;
}

CandidateIndex::Range CandidateIndex::CandidatesForLabel(
    Label label, uint32_t min_degree) const {
  auto first = std::lower_bound(bucket_keys_.begin(), bucket_keys_.end(),
                                BucketKey(label, min_degree));
  auto last = std::upper_bound(first, bucket_keys_.end(),
                               BucketKey(label, UINT32_MAX));
  const VertexId* base = bucket_vertices_.data();
  return {base + (first - bucket_keys_.begin()),
          base + (last - bucket_keys_.begin())};
}

MatchIndex::MatchIndex(const Graph& g, const CandidateIndexOptions& options)
    : csr(g),
      candidates(CandidateIndex::Build(g, csr, options)),
      census(csr) {}

MatchIndex::MatchIndex(const Graph& g, const TrussDecomposition& truss)
    : csr(g), candidates(CandidateIndex::Build(csr, truss)), census(csr) {}

AdmissionRow MatchIndex::Admission() const {
  return {static_cast<uint32_t>(csr.NumVertices()),
          static_cast<uint32_t>(csr.NumEdges()), census};
}

std::shared_ptr<const MatchIndex> MatchIndex::Build(
    const Graph& g, const CandidateIndexOptions& options) {
  return std::make_shared<const MatchIndex>(g, options);
}

PatternPlan::PatternPlan(const Graph& pattern,
                         const CandidateIndexOptions& options)
    : csr(pattern),
      census(csr),
      shells(VertexShells(pattern, csr, options)) {
  ComputeSignatures(csr, &signatures, &repeat_signatures);
  const size_t n = csr.NumVertices();
  std::vector<uint64_t> classes;  // (label, degree) keys already seeded
  for (VertexId v = 0; v < n; ++v) {
    const uint64_t key = BucketKey(csr.VertexLabel(v), csr.Degree(v));
    if (std::find(classes.begin(), classes.end(), key) != classes.end()) {
      continue;
    }
    classes.push_back(key);
    seeds.push_back(v);
  }
  orders.resize(n * n);
  anchors.resize(n * n);
  for (VertexId start = 0; start < n; ++start) {
    MatchOrderFrom(csr, start, orders.data() + start * n,
                   anchors.data() + start * n);
  }
}

CollectionIndex::CollectionIndex(const GraphDatabase& db,
                                 const CandidateIndexOptions& options)
    : options_(options) {
  IndexGraphs(db, nullptr);
}

CollectionIndex::CollectionIndex(const CollectionIndex& previous,
                                 const GraphDatabase& db)
    : options_(previous.options_) {
  IndexGraphs(db, &previous);
}

void CollectionIndex::IndexGraphs(const GraphDatabase& db,
                                  const CollectionIndex* previous) {
  version_ = db.Version();
  entries_.reserve(db.size());
  admission_.reserve(db.size());
  position_.reserve(db.size());
  for (const Graph& g : db.graphs()) {
    const uint64_t content_version = db.ContentVersion(g.id());
    std::shared_ptr<const MatchIndex> index;
    if (previous != nullptr) {
      auto it = previous->position_.find(g.id());
      if (it != previous->position_.end() &&
          previous->entries_[it->second].content_version == content_version) {
        index = previous->entries_[it->second].index;
      }
    }
    if (index == nullptr) {
      index = MatchIndex::Build(g, options_);
      ++builds_;
    }
    position_.emplace(g.id(), entries_.size());
    admission_.push_back(index->Admission());
    entries_.push_back({g.id(), content_version, std::move(index)});
  }
}

const MatchIndex* CollectionIndex::Find(GraphId id) const {
  auto it = position_.find(id);
  return it == position_.end() ? nullptr : entries_[it->second].index.get();
}

}  // namespace vqi
