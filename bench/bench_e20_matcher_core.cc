// E20 — the matcher core (CSR adjacency + candidate index) on labeled BA /
// WS targets, plus one collection scan in the shape of CATAPULT and MIDAS
// coverage scoring. The step count of a search is deterministic, so this
// bench pins it: every row's median over its patterns, and the scan's total
// steps and count of searched pairs, must equal the committed
// EXPERIMENTS.md E20 figures, and the binary exits non-zero otherwise (ctest
// runs it under the `bench_smoke` label). Wall times are printed for the
// record only. Embedding correctness is certified separately by
// tests/differential_test.cc against an independent naive oracle.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_database.h"
#include "match/candidate_index.h"
#include "match/pattern_utils.h"
#include "match/vf2.h"

namespace vqi {
namespace {

constexpr uint64_t kSeed = 20;
constexpr size_t kPatternsPerConfig = 12;
// Runs that hit this cap are excluded from the medians (and reported).
constexpr uint64_t kStepCap = 20000000;
// Row step medians committed in EXPERIMENTS.md §E20, in MakeConfigs order.
constexpr uint64_t kPinnedSteps[] = {94,  226, 1431, 219, 6235,  320,
                                     415, 158, 748,  184, 73132, 80298};
// The collection scan: kScanPatterns patterns of 4-10 edges drawn from a
// kScanMolecules-molecule collection, each tested with Exists against every
// molecule. Pinned: its total steps and the pairs it searched (steps > 0);
// the admission column (size test and label census) rules out most of the
// rest at 0 steps.
constexpr size_t kScanMolecules = 500;
constexpr size_t kScanPatterns = 200;
constexpr uint64_t kPinnedScanSteps = 720403;
constexpr uint64_t kPinnedScanSearched = 17969;

struct Config {
  std::string family;
  size_t n = 0;
  size_t num_labels = 0;
  Graph target;
};

// Label alphabets follow the paper's domain: visual query targets are
// property graphs and molecule collections, whose vertex types number ~8-20
// (atom types, entity types). Two 4-label rows are kept as a floor — on
// label-poor graphs the index can only prune structurally, and the table
// reports that honestly.
std::vector<Config> MakeConfigs() {
  std::vector<Config> configs;
  Rng rng(kSeed);
  for (size_t n : {200u, 600u, 1500u}) {
    for (size_t num_labels : {8u, 16u}) {
      gen::LabelConfig labels;
      labels.num_vertex_labels = num_labels;
      labels.num_edge_labels = 2;
      Config config;
      config.family = "BA(m=3)";
      config.n = n;
      config.num_labels = num_labels;
      config.target = gen::BarabasiAlbert(n, 3, labels, rng);
      configs.push_back(std::move(config));
    }
  }
  for (size_t n : {300u, 1000u}) {
    for (size_t num_labels : {8u, 12u}) {
      gen::LabelConfig labels;
      labels.num_vertex_labels = num_labels;
      labels.num_edge_labels = 2;
      Config config;
      config.family = "WS(k=6)";
      config.n = n;
      config.num_labels = num_labels;
      config.target = gen::WattsStrogatz(n, 6, 0.1, labels, rng);
      configs.push_back(std::move(config));
    }
  }
  for (const char* family : {"BA", "WS"}) {
    gen::LabelConfig labels;
    labels.num_vertex_labels = 4;
    labels.num_edge_labels = 2;
    Config config;
    config.num_labels = 4;
    if (family[0] == 'B') {
      config.family = "BA(m=3)";
      config.n = 600;
      config.target = gen::BarabasiAlbert(600, 3, labels, rng);
    } else {
      config.family = "WS(k=6)";
      config.n = 1000;
      config.target = gen::WattsStrogatz(1000, 6, 0.1, labels, rng);
    }
    configs.push_back(std::move(config));
  }
  return configs;
}

std::vector<Graph> MakePatterns(const Graph& target, Rng& rng) {
  std::vector<Graph> patterns;
  for (size_t i = 0; i < kPatternsPerConfig; ++i) {
    size_t edges = 4 + rng.UniformInt(5);  // 4..8 edges
    std::optional<Graph> pattern;
    for (int attempt = 0; attempt < 8 && !pattern.has_value(); ++attempt) {
      pattern = RandomConnectedSubgraph(target, edges, rng);
    }
    if (pattern.has_value()) patterns.push_back(std::move(*pattern));
  }
  return patterns;
}

struct EngineRun {
  uint64_t count = 0;
  uint64_t steps = 0;
  bool capped = false;
  double seconds = 0;
};

EngineRun RunEngine(const Graph& pattern, const MatchIndex& index) {
  MatchOptions options;
  options.max_steps = kStepCap;
  Stopwatch timer;
  const PatternPlan plan(pattern);
  SubgraphMatcher matcher(plan, index, options);
  EngineRun run;
  run.count = matcher.CountEmbeddings();
  run.seconds = timer.ElapsedSeconds();
  run.steps = matcher.steps();
  run.capped = matcher.hit_step_limit();
  return run;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// Runs the collection scan and prints its row; returns 1 when a pinned
// figure moved, else 0.
size_t RunCollectionScan() {
  GraphDatabase molecules = gen::MoleculeDatabase(kScanMolecules, {}, kSeed);
  const std::vector<Graph>& graphs = molecules.graphs();
  // One shared index per molecule, truss-free as offline coverage builds it.
  const CollectionIndex indexes(molecules, kNoTrussShells);
  Rng rng(kSeed ^ 0x5CA4);
  uint64_t steps = 0;
  uint64_t searched = 0;
  uint64_t embedded = 0;
  size_t patterns = 0;
  Stopwatch timer;
  while (patterns < kScanPatterns) {
    std::optional<Graph> pattern = RandomConnectedSubgraph(
        graphs[rng.UniformInt(graphs.size())], 4 + rng.UniformInt(7), rng);
    if (!pattern.has_value()) continue;
    ++patterns;
    const PatternPlan plan(*pattern, kNoTrussShells);
    for (size_t i = 0; i < indexes.size(); ++i) {
      // As CoverageBits scans: a pair the admission column rules out costs
      // 0 steps and is never searched.
      if (!Admits(plan, indexes.admission(i), MatchOptions{})) continue;
      SubgraphMatcher matcher(plan, indexes.at(i));
      embedded += matcher.Exists() ? 1 : 0;
      steps += matcher.steps();
      searched += matcher.steps() > 0 ? 1 : 0;
    }
  }
  const double seconds = timer.ElapsedSeconds();
  const bool searched_moved = searched != kPinnedScanSearched;
  const bool steps_moved = steps != kPinnedScanSteps;
  bench::Table table(
      "E20 collection scan: Exists of every pattern against every molecule "
      "(total steps and searched pairs pinned to EXPERIMENTS.md)",
      {"molecules", "patterns", "pairs", "searched", "pinned", "embedded",
       "steps", "pinned", "ms"});
  table.AddRow({std::to_string(graphs.size()), std::to_string(patterns),
                std::to_string(patterns * graphs.size()),
                std::to_string(searched),
                std::to_string(kPinnedScanSearched) +
                    (searched_moved ? " MOVED" : ""),
                std::to_string(embedded), std::to_string(steps),
                std::to_string(kPinnedScanSteps) +
                    (steps_moved ? " MOVED" : ""),
                bench::Fmt(seconds * 1e3, 1)});
  table.Print();
  return searched_moved || steps_moved ? 1 : 0;
}

// Prints the table; returns the number of rows whose step median moved.
size_t RunStepPin() {
  std::vector<Config> configs = MakeConfigs();
  Rng rng(kSeed ^ 0xE20);
  bench::Table table(
      "E20: VF2 search steps over a shared CSR + candidate index (medians "
      "per target; steps pinned to EXPERIMENTS.md)",
      {"target", "n", "labels", "patterns", "steps (med)", "pinned",
       "ms (med)"});
  size_t capped_runs = 0;
  size_t moved_rows = 0;
  for (size_t row = 0; row < configs.size(); ++row) {
    const Config& config = configs[row];
    std::vector<Graph> patterns = MakePatterns(config.target, rng);
    // One shared index per target, built once — the cached-serving shape.
    std::shared_ptr<const MatchIndex> index = MatchIndex::Build(config.target);
    std::vector<double> steps, ms;
    for (const Graph& pattern : patterns) {
      EngineRun run = RunEngine(pattern, *index);
      if (run.capped) {
        ++capped_runs;
        continue;
      }
      steps.push_back(static_cast<double>(run.steps));
      ms.push_back(run.seconds * 1e3);
    }
    const uint64_t median = static_cast<uint64_t>(Median(steps));
    const bool moved = median != kPinnedSteps[row];
    moved_rows += moved ? 1 : 0;
    table.AddRow({config.family, std::to_string(config.n),
                  std::to_string(config.num_labels),
                  std::to_string(steps.size()), std::to_string(median),
                  std::to_string(kPinnedSteps[row]) + (moved ? " MOVED" : ""),
                  bench::Fmt(Median(ms), 2)});
  }
  table.Print();
  std::printf("%zu runs excluded at the %llu-step cap\n\n", capped_runs,
              static_cast<unsigned long long>(kStepCap));
  moved_rows += RunCollectionScan();
  std::printf("step pin: %s (%zu of %zu rows moved)\n\n",
              moved_rows == 0 ? "PASS" : "FAIL", moved_rows,
              configs.size() + 1);
  return moved_rows;
}

void BM_Engine(benchmark::State& state) {
  Rng rng(kSeed);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 8;
  labels.num_edge_labels = 2;
  Graph target = gen::BarabasiAlbert(600, 3, labels, rng);
  std::vector<Graph> patterns = MakePatterns(target, rng);
  std::shared_ptr<const MatchIndex> index = MatchIndex::Build(target);
  size_t i = 0;
  for (auto _ : state) {
    EngineRun run = RunEngine(patterns[i++ % patterns.size()], *index);
    benchmark::DoNotOptimize(run.count);
  }
}
BENCHMARK(BM_Engine)->Unit(benchmark::kMillisecond);

void BM_MatchIndexBuild(benchmark::State& state) {
  Rng rng(kSeed);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 8;
  labels.num_edge_labels = 2;
  Graph target =
      gen::BarabasiAlbert(static_cast<size_t>(state.range(0)), 3, labels, rng);
  for (auto _ : state) {
    std::shared_ptr<const MatchIndex> index = MatchIndex::Build(target);
    benchmark::DoNotOptimize(index->candidates.has_truss());
  }
}
BENCHMARK(BM_MatchIndexBuild)
    ->Arg(200)
    ->Arg(1500)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vqi

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const size_t moved_rows = vqi::RunStepPin();
  benchmark::RunSpecifiedBenchmarks();
  return moved_rows == 0 ? 0 : 1;
}
