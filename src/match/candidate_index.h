#ifndef VQLIB_MATCH_CANDIDATE_INDEX_H_
#define VQLIB_MATCH_CANDIDATE_INDEX_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_database.h"
#include "match/csr_graph.h"
#include "truss/truss.h"

namespace vqi {

struct CandidateIndexOptions {
  /// Compute k-truss vertex shells (TATTOO's structure-aware split applied as
  /// a matcher filter): shell(v) = max trussness over v's incident edges. A
  /// pattern vertex embedded at v needs shell_pattern(u) <= shell_target(v),
  /// because trussness is monotone under supergraphs — so the filter is sound
  /// for plain and induced matching alike, labels or not.
  bool use_truss = true;
};

/// Options for indexes and plans without truss shells: for graphs searched
/// only a few times (a decomposition per graph is not repaid), for
/// collections of small graphs, and for tree patterns (all shells 2, so
/// they never prune). See docs/matching.md.
inline constexpr CandidateIndexOptions kNoTrussShells{/*use_truss=*/false};

/// Per-graph candidate index for the matcher: vertex-label buckets sorted
/// ascending by degree (so a label's min-degree suffix is a binary search),
/// 64-bit neighborhood label signatures, and optional truss shells. All
/// filters are prune-only: they may only reject vertices that cannot appear
/// in any embedding (tests/match_test.cc proves soundness against brute
/// force).
class CandidateIndex {
 public:
  /// Builds the index for `g`; `csr` must be a CSR view of the same graph.
  static CandidateIndex Build(const Graph& g, const CsrGraph& csr,
                              const CandidateIndexOptions& options = {});

  /// The same index with truss shells read off `truss`, a decomposition of
  /// the graph `csr` views (what use_truss would compute, without computing
  /// it again).
  static CandidateIndex Build(const CsrGraph& csr,
                              const TrussDecomposition& truss);

  /// Bit for one vertex label in a 64-bit neighborhood signature. Labels are
  /// folded mod 64, so the subset test below is conservative (never prunes a
  /// true candidate) even for large alphabets.
  static uint64_t LabelBit(Label label) {
    return uint64_t{1} << (label & 63u);
  }

  /// True when every label bit required around the pattern vertex is present
  /// around the target vertex — a necessary condition for an embedding when
  /// vertex labels are matched exactly.
  static bool SignatureSubsumes(uint64_t pattern_sig, uint64_t target_sig) {
    return (pattern_sig & ~target_sig) == 0;
  }

  /// Contiguous run of target vertices, degree-ascending.
  struct Range {
    const VertexId* begin = nullptr;
    const VertexId* end = nullptr;
    size_t size() const { return static_cast<size_t>(end - begin); }
  };

  /// Vertices labeled `label` with degree >= `min_degree` (degree-ascending;
  /// empty range when the label does not occur).
  Range CandidatesForLabel(Label label, uint32_t min_degree) const;

  /// OR of LabelBit over v's neighbors' vertex labels.
  uint64_t NeighborhoodSignature(VertexId v) const { return signatures_[v]; }

  /// Bits for labels appearing on >= 2 of v's neighbors. A pattern vertex
  /// with two same-label neighbors can only embed at a target vertex that
  /// also sees that label at least twice, so the repeat mask subsumption is
  /// sound whenever the base signature is (exact label matching). Folding
  /// mod 64 stays conservative: a pattern repeat bit means >= 2 neighbors in
  /// that bit's label class, which the embedding forces onto >= 2 distinct
  /// same-class target neighbors.
  uint64_t NeighborhoodRepeatSignature(VertexId v) const {
    return repeat_signatures_[v];
  }

  bool has_truss() const { return !shells_.empty(); }

  /// Max trussness over v's incident edges; 0 for isolated vertices. Only
  /// meaningful when has_truss().
  int Shell(VertexId v) const { return shells_[v]; }

 private:
  // Buckets and signatures; no shells.
  explicit CandidateIndex(const CsrGraph& csr);

  std::vector<VertexId> bucket_vertices_;  // sorted by (label, degree, id)
  std::vector<uint64_t> bucket_keys_;      // parallel: label << 32 | degree
  std::vector<uint64_t> signatures_;
  std::vector<uint64_t> repeat_signatures_;
  std::vector<int> shells_;  // empty when truss shells are disabled
};

/// Fixed-size label census of one graph: saturating 8-bit counts of its
/// vertex labels and of its edge types (the unordered pair of endpoint labels
/// plus the edge label), each folded into a fixed number of buckets. An
/// embedding maps pattern vertices injectively onto equal-label target
/// vertices and pattern edges onto equal-type target edges, so under exact
/// label matching no pattern bucket can exceed the target's. Folding only
/// merges classes and saturation only caps counts, so both can weaken the
/// test but never make it reject a pair that has an embedding.
struct LabelCensus {
  static constexpr size_t kVertexBuckets = 32;
  static constexpr size_t kEdgeBuckets = 64;

  /// Counts `csr`'s vertex labels and edge types; shared by the target index
  /// and the pattern plan so both sides fold alike.
  explicit LabelCensus(const CsrGraph& csr);

  /// True when every bucket of this (pattern) census is <= the one of
  /// `target`; edge-type buckets count only when `edge_labels` is set.
  /// Compares every bucket without an early exit, so the loops vectorize.
  bool FitsIn(const LabelCensus& target, bool edge_labels) const;

  std::array<uint8_t, kVertexBuckets> vertices{};
  std::array<uint8_t, kEdgeBuckets> edges{};
};

/// What the matcher's admission test reads of a target graph: its size and
/// its label census. A CollectionIndex keeps one per graph in a dense
/// column, so a scan rules a graph out without touching its MatchIndex.
struct AdmissionRow {
  uint32_t vertices = 0;
  uint32_t edges = 0;
  LabelCensus census;
};

/// The target side of a match: a CSR snapshot plus its candidate index and
/// label census, built together and shared immutably across threads and
/// patterns.
struct MatchIndex {
  explicit MatchIndex(const Graph& g,
                      const CandidateIndexOptions& options = {});
  /// With truss shells read off `truss`, which must be DecomposeTruss(g).
  MatchIndex(const Graph& g, const TrussDecomposition& truss);

  CsrGraph csr;
  CandidateIndex candidates;
  LabelCensus census;

  /// This graph's size and census, as a CollectionIndex's column holds them.
  AdmissionRow Admission() const;

  static std::shared_ptr<const MatchIndex> Build(
      const Graph& g, const CandidateIndexOptions& options = {});
};

/// The pattern side of a match, compiled once per pattern and shared by
/// every search of it: the pattern's CSR, its label census and its vertices'
/// neighborhood label signatures (the same census and masks a MatchIndex
/// keeps), the seed candidates, the match order from every seed vertex and,
/// when compiled with truss shells, its vertex shells. Compile a plan with the options of the
/// indexes it will run against; a plan and an index without shells on both
/// sides simply skip the shell filter.
struct PatternPlan {
  explicit PatternPlan(const Graph& pattern,
                       const CandidateIndexOptions& options = {});

  /// The match order when the search seeds at `start`: NumVertices()
  /// pattern vertices, `start` first. Only the seed depends on the target,
  /// so every order is compiled here and a search just picks its row.
  const VertexId* Order(VertexId start) const {
    return orders.data() + start * csr.NumVertices();
  }
  /// Parallel to Order(start): for each position, the order index of an
  /// earlier-bound neighbor whose image anchors its candidates (-1: none).
  const int* Anchors(VertexId start) const {
    return anchors.data() + start * csr.NumVertices();
  }

  CsrGraph csr;
  LabelCensus census;
  std::vector<uint64_t> signatures;
  std::vector<uint64_t> repeat_signatures;
  std::vector<int> shells;  // empty when compiled without truss shells
  /// The lowest-id vertex of each distinct (label, degree), in id order.
  /// Vertices of one class have the same seed width and degree, so the
  /// seed choice only needs to probe these.
  std::vector<VertexId> seeds;
  std::vector<VertexId> orders;  // row per seed vertex, see Order()
  std::vector<int> anchors;      // row per seed vertex, see Anchors()
};

/// One MatchIndex per graph of a GraphDatabase, in graphs() order, all built
/// with one CandidateIndexOptions. Immutable once built, so threads share it
/// without a lock. The copy-on-write constructor follows the database after
/// edits: it shares the previous index's entry for every id whose
/// GraphDatabase::ContentVersion is unchanged and builds the rest. Versions
/// are drawn from one process-wide counter, so an index built from one copy
/// of a database never serves another copy's edit of the same id.
class CollectionIndex {
 public:
  /// Indexes every graph of `db` with `options`.
  CollectionIndex(const GraphDatabase& db,
                  const CandidateIndexOptions& options);

  /// Indexes `db` with `previous`'s options, sharing `previous`'s index of
  /// every id whose content version is unchanged. Ids are matched by id, not
  /// by position: GraphDatabase::Remove reorders graphs().
  CollectionIndex(const CollectionIndex& previous, const GraphDatabase& db);

  size_t size() const { return entries_.size(); }
  /// Id and index of the i-th graph in the database's graphs() order.
  GraphId id(size_t i) const { return entries_[i].id; }
  const MatchIndex& at(size_t i) const { return *entries_[i].index; }
  /// The i-th graph's size and census, copied from at(i) into one dense
  /// column: read it first, and fetch at(i) only for a pair it admits.
  const AdmissionRow& admission(size_t i) const { return admission_[i]; }
  /// The index of graph `id`, or nullptr when the database did not hold it.
  const MatchIndex* Find(GraphId id) const;

  /// The GraphDatabase::Version() this index was built at.
  uint64_t version() const { return version_; }
  /// The options every entry was built with: compile a PatternPlan with
  /// them.
  const CandidateIndexOptions& options() const { return options_; }
  /// Entries this instance built rather than shared from a previous index.
  size_t builds() const { return builds_; }

 private:
  struct Entry {
    GraphId id = -1;
    uint64_t content_version = 0;
    std::shared_ptr<const MatchIndex> index;
  };

  // Fills the entries from `db`, sharing from `previous` when non-null.
  void IndexGraphs(const GraphDatabase& db, const CollectionIndex* previous);

  CandidateIndexOptions options_;
  uint64_t version_ = 0;
  std::vector<Entry> entries_;                   // graphs() order
  std::vector<AdmissionRow> admission_;          // parallel to entries_
  std::unordered_map<GraphId, size_t> position_;  // id -> entries_ index
  size_t builds_ = 0;
};

}  // namespace vqi

#endif  // VQLIB_MATCH_CANDIDATE_INDEX_H_
