#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/graph_database.h"
#include "service/query_types.h"

namespace perfbench {

/// What every workload receives from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its spans ("" = do not write).
  std::string trace_out;
};

/// The seeded molecule collection every collection workload starts from.
vqi::GraphDatabase Molecules(size_t count, uint64_t seed);

/// Connected subgraphs of random collection graphs with
/// [min_edges, max_edges] edges, pairwise non-isomorphic and not isomorphic
/// to anything already in `seen` (canonical codes, updated in place).
std::vector<vqi::Graph> DistinctPatterns(const vqi::GraphDatabase& db,
                                         size_t count, size_t min_edges,
                                         size_t max_edges, vqi::Rng& rng,
                                         std::unordered_set<std::string>* seen);

/// A copy of `pattern` with its vertices randomly renumbered, as a user
/// re-drawing the same query would produce. `old_to_new[v]` is the new id of
/// old vertex v.
vqi::Graph Permuted(const vqi::Graph& pattern, vqi::Rng& rng,
                    std::vector<vqi::VertexId>* old_to_new);

/// Samples ranks 0..n-1 with probability proportional to 1 / (rank + 1).
class ZipfSampler {
 public:
  explicit ZipfSampler(size_t n);
  size_t Sample(vqi::Rng& rng) const;

 private:
  std::vector<double> cumulative_;
};

/// The POST /query JSON body for `request` (the fields the benchmark sets).
std::string QueryBody(const vqi::QueryRequest& request);

/// Deterministic content of a result (status, counts, matched graphs,
/// suggestions, truncated) as a 64-bit hash, computed the same way for a
/// wire response and an in-process result.
uint64_t ContentHash(const vqi::QueryResult& result);

/// A parsed POST /query response body.
struct WireResult {
  uint64_t content_hash = 0;
  uint64_t match_steps = 0;
  size_t matched_graphs = 0;
};
vqi::StatusOr<WireResult> ParseWireResult(const std::string& body);

/// Machine-speed probe. The machine the sizes were taken on (a shared
/// 4-vCPU VM) drifts in speed by 10-40% over seconds, which swamps
/// run-to-run comparisons. Right before a timed call or a serving slice the
/// benchmark runs a fixed kernel (fill and sort 64K integers, benchmark code
/// the library never touches) and scales the measured time by
/// kProbeReferenceMs / probe: time at the reference speed.
inline constexpr double kProbeReferenceMs = 5.5;

/// kProbeReferenceMs divided by the kernel's wall time now.
double SpeedFactor();
/// The median SpeedFactor of three probes: one probe a noisy neighbour
/// slowed cannot skew the timed call it scales.
double ProbeSpeed();

/// Resident set size now and at its peak, in MB.
double RssMb();
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
