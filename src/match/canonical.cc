#include "match/canonical.h"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <vector>

#include "common/logging.h"
#include "graph/graph_algos.h"

namespace vqi {
namespace {

// Appends a uint32 as 4 big-endian bytes (big-endian keeps lexicographic
// string order aligned with numeric order).
void AppendU32(std::string& out, uint32_t value) {
  out.push_back(static_cast<char>((value >> 24) & 0xFF));
  out.push_back(static_cast<char>((value >> 16) & 0xFF));
  out.push_back(static_cast<char>((value >> 8) & 0xFF));
  out.push_back(static_cast<char>(value & 0xFF));
}

uint64_t Bit(VertexId v) { return uint64_t{1} << v; }

size_t PatternSize(const Graph& g) {
  VQI_CHECK_LE(g.NumVertices(), 64u)
      << "CanonicalCode is for small pattern graphs";
  return g.NumVertices();
}

// One canonicalization: the graph copied once into flat arrays, and the
// buffers every refinement round and every leaf reuse.
//
// Colorings are dense ints; equal color == same cell, cell order == color
// order. The search individualizes each vertex of the first non-singleton
// cell in turn and keeps the lexicographically smallest leaf code, skipping a
// vertex when a twin of it was already branched on at the same node: twins v
// and w have the same label and the same labelled edges to every other
// vertex, so (v w) is an automorphism. It fixes every coloring the search
// reaches while v and w share a cell, and maps the subtree that
// individualizes v onto the one that individualizes w, leaf codes included.
// The pruned subtree therefore holds no code the explored one lacks.
class CodeSearch {
 public:
  explicit CodeSearch(const Graph& g);

  // The smallest leaf code, or nullopt once the search visits more than
  // `max_nodes` nodes.
  std::optional<std::string> Run(uint64_t max_nodes);

 private:
  // Refines `colors` to a stable coloring. A vertex's signature is its old
  // color, then the sorted (neighbour color << 32 | edge label) keys of its
  // row, compared lexicographically (a row that is a prefix of another sorts
  // first); new colors are assigned in signature order, which makes the
  // refinement isomorphism-invariant.
  void Refine(uint32_t* colors);
  bool SameSignature(VertexId a, VertexId b, const uint32_t* colors) const;
  const uint64_t* KeysBegin(VertexId v) const {
    return keys_.data() + offsets_[v];
  }
  const uint64_t* KeysEnd(VertexId v) const {
    return keys_.data() + offsets_[v + 1];
  }
  // Writes the leaf code of a discrete coloring (color == position): the
  // vertex count, the labels in order, and the upper triangle of the
  // adjacency matrix with edge label + 1 for an edge and 0 for none. An edge
  // labelled kDummyLabel wraps to 0, so a graph with one appends the
  // positions of those edges; no other graph's code changes.
  void EncodeLeaf(const uint32_t* colors);
  // Searches below the coloring at `depth`; false once over budget.
  bool Search(size_t depth);

  const size_t n_;
  std::vector<uint32_t> offsets_;     // n + 1 rows of the sorted adjacency
  std::vector<Neighbor> slots_;       // 2 |E|
  std::vector<Label> vertex_labels_;  // n
  std::vector<uint32_t> matrix_;      // n x n: edge label + 1, or 0
  std::vector<uint64_t> dummy_;       // n: bit w when {v,w} is kDummyLabel
  std::vector<uint64_t> twins_;       // n: bit w when v and w are twins
  bool has_dummy_edge_ = false;

  std::vector<uint64_t> keys_;        // parallel to slots_
  std::vector<VertexId> perm_;        // n: vertices in signature order
  std::vector<uint32_t> next_;        // n: the next round's colors
  std::vector<uint32_t> colorings_;   // n x n: the coloring at each depth
  std::string code_;                  // the current leaf's code
  std::string best_;                  // empty until the first leaf
  uint64_t nodes_ = 0;
  uint64_t max_nodes_ = 0;
};

CodeSearch::CodeSearch(const Graph& g)
    : n_(PatternSize(g)),
      offsets_(n_ + 1),
      vertex_labels_(n_),
      matrix_(n_ * n_, 0),
      dummy_(n_, 0),
      twins_(n_, 0),
      perm_(n_),
      next_(n_),
      colorings_(n_ * n_) {
  std::vector<uint64_t> adjacent(n_, 0);
  slots_.reserve(2 * g.NumEdges());
  for (VertexId v = 0; v < n_; ++v) {
    offsets_[v] = static_cast<uint32_t>(slots_.size());
    vertex_labels_[v] = g.VertexLabel(v);
    for (const Neighbor& nb : g.Neighbors(v)) {
      slots_.push_back(nb);
      matrix_[v * n_ + nb.vertex] = nb.edge_label + 1;
      adjacent[v] |= Bit(nb.vertex);
      if (nb.edge_label == kDummyLabel) {
        dummy_[v] |= Bit(nb.vertex);
        has_dummy_edge_ = true;
      }
    }
  }
  offsets_[n_] = static_cast<uint32_t>(slots_.size());
  keys_.resize(slots_.size());

  // Twins compare edge presence and label, not the matrix value alone: an
  // edge labelled kDummyLabel and a missing edge both read 0 there.
  for (VertexId v = 0; v < n_; ++v) {
    for (VertexId w = v + 1; w < n_; ++w) {
      const uint64_t others = ~(Bit(v) | Bit(w));
      if (vertex_labels_[v] != vertex_labels_[w] ||
          ((adjacent[v] ^ adjacent[w]) & others) != 0) {
        continue;
      }
      bool twins = true;
      for (uint64_t rest = adjacent[v] & others; rest != 0 && twins;
           rest &= rest - 1) {
        const size_t x = static_cast<size_t>(__builtin_ctzll(rest));
        twins = matrix_[v * n_ + x] == matrix_[w * n_ + x];
      }
      if (twins) {
        twins_[v] |= Bit(w);
        twins_[w] |= Bit(v);
      }
    }
  }
}

std::optional<std::string> CodeSearch::Run(uint64_t max_nodes) {
  if (n_ == 0) {
    std::string code;
    AppendU32(code, 0);
    return code;
  }
  // Initial colors from sorted (vertex label, degree) pairs.
  std::vector<std::pair<std::pair<Label, size_t>, VertexId>> init(n_);
  for (VertexId v = 0; v < n_; ++v) {
    init[v] = {{vertex_labels_[v], offsets_[v + 1] - offsets_[v]}, v};
  }
  std::sort(init.begin(), init.end());
  uint32_t color = 0;
  for (size_t i = 0; i < n_; ++i) {
    if (i > 0 && init[i].first != init[i - 1].first) ++color;
    colorings_[init[i].second] = color;
  }
  max_nodes_ = max_nodes;
  if (!Search(0)) return std::nullopt;
  VQI_CHECK(!best_.empty());
  return std::move(best_);
}

bool CodeSearch::SameSignature(VertexId a, VertexId b,
                               const uint32_t* colors) const {
  return colors[a] == colors[b] &&
         std::equal(KeysBegin(a), KeysEnd(a), KeysBegin(b), KeysEnd(b));
}

void CodeSearch::Refine(uint32_t* colors) {
  while (true) {
    for (VertexId v = 0; v < n_; ++v) {
      for (uint32_t s = offsets_[v]; s < offsets_[v + 1]; ++s) {
        keys_[s] = static_cast<uint64_t>(colors[slots_[s].vertex]) << 32 |
                   slots_[s].edge_label;
      }
      std::sort(keys_.begin() + offsets_[v], keys_.begin() + offsets_[v + 1]);
    }
    std::iota(perm_.begin(), perm_.end(), VertexId{0});
    std::sort(perm_.begin(), perm_.end(), [&](VertexId a, VertexId b) {
      if (colors[a] != colors[b]) return colors[a] < colors[b];
      return std::lexicographical_compare(KeysBegin(a), KeysEnd(a),
                                          KeysBegin(b), KeysEnd(b));
    });
    uint32_t color = 0;
    for (size_t i = 0; i < n_; ++i) {
      if (i > 0 && !SameSignature(perm_[i - 1], perm_[i], colors)) ++color;
      next_[perm_[i]] = color;
    }
    if (std::equal(next_.begin(), next_.end(), colors)) return;
    std::copy(next_.begin(), next_.end(), colors);
  }
}

void CodeSearch::EncodeLeaf(const uint32_t* colors) {
  std::vector<VertexId>& order = perm_;
  for (VertexId v = 0; v < n_; ++v) order[colors[v]] = v;
  code_.clear();
  AppendU32(code_, static_cast<uint32_t>(n_));
  for (size_t i = 0; i < n_; ++i) AppendU32(code_, vertex_labels_[order[i]]);
  for (size_t i = 0; i < n_; ++i) {
    const uint32_t* row = matrix_.data() + order[i] * n_;
    for (size_t j = i + 1; j < n_; ++j) AppendU32(code_, row[order[j]]);
  }
  if (!has_dummy_edge_) return;
  for (size_t i = 0; i < n_; ++i) {
    for (size_t j = i + 1; j < n_; ++j) {
      if ((dummy_[order[i]] & Bit(order[j])) != 0) {
        AppendU32(code_, static_cast<uint32_t>(i));
        AppendU32(code_, static_cast<uint32_t>(j));
      }
    }
  }
}

bool CodeSearch::Search(size_t depth) {
  if (++nodes_ > max_nodes_) return false;
  uint32_t* colors = colorings_.data() + depth * n_;
  Refine(colors);
  // Target: the smallest-color cell with more than one vertex.
  uint32_t cell_size[64] = {};
  for (size_t v = 0; v < n_; ++v) ++cell_size[colors[v]];
  const uint32_t* target = std::find_if(
      cell_size, cell_size + n_, [](uint32_t size) { return size > 1; });
  if (target == cell_size + n_) {  // discrete: a leaf
    EncodeLeaf(colors);
    if (best_.empty() || code_ < best_) best_.swap(code_);
    return true;
  }
  const uint32_t target_color = static_cast<uint32_t>(target - cell_size);
  // Each individualization adds a cell, so depth + 1 < n here.
  uint32_t* child = colors + n_;
  uint64_t branched = 0;
  for (VertexId v = 0; v < n_; ++v) {
    if (colors[v] != target_color || (twins_[v] & branched) != 0) continue;
    branched |= Bit(v);
    // Individualize v: give it its own color just below the rest of its
    // cell by shifting all colors >= target up by one and keeping v.
    for (VertexId u = 0; u < n_; ++u) {
      const bool shift = colors[u] > target_color ||
                         (colors[u] == target_color && u != v);
      child[u] = colors[u] + (shift ? 1 : 0);
    }
    if (!Search(depth + 1)) return false;
  }
  return true;
}

}  // namespace

std::string CanonicalCode(const Graph& g) {
  return *CodeSearch(g).Run(std::numeric_limits<uint64_t>::max());
}

std::optional<std::string> CanonicalCodeWithin(const Graph& g,
                                               uint64_t max_nodes) {
  return CodeSearch(g).Run(max_nodes);
}

bool AreIsomorphic(const Graph& a, const Graph& b) {
  if (a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  if (DegreeSequence(a) != DegreeSequence(b)) return false;
  auto label_multiset = [](const Graph& g) {
    std::map<Label, size_t> counts;
    for (VertexId v = 0; v < g.NumVertices(); ++v) ++counts[g.VertexLabel(v)];
    return counts;
  };
  if (label_multiset(a) != label_multiset(b)) return false;
  return CanonicalCode(a) == CanonicalCode(b);
}

}  // namespace vqi
