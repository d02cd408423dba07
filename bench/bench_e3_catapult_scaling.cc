// E3 — tutorial §2.3 practicality of data-driven construction on large
// collections ("significant reduction in the cost of constructing ... a
// VQI"): CATAPULT end-to-end runtime and per-stage breakdown as the
// repository grows. Expected shape: near-linear growth dominated by the
// mining/clustering stages; well under interactive-rebuild budgets even at
// thousands of graphs (construction is offline, once per data source).
// Every row's candidate count and coverage are deterministic, so this bench
// pins them: they must equal the committed EXPERIMENTS.md E3 figures, and the
// binary exits non-zero otherwise (ctest runs it under the `bench_smoke`
// label). Wall times are printed for the record only.

#include <benchmark/benchmark.h>

#include <iterator>
#include <string>

#include "bench_util.h"
#include "catapult/catapult.h"
#include "graph/generators.h"
#include "metrics/coverage.h"

namespace vqi {
namespace {

constexpr uint64_t kSeed = 31;

// One row per collection size, with its #cands and coverage as committed
// in EXPERIMENTS.md §E3.
struct Pin {
  size_t db_size;
  const char* cands;
  const char* coverage;
};
constexpr Pin kPins[] = {{250, "503", "0.764"},
                         {500, "737", "0.754"},
                         {1000, "956", "0.755"},
                         {2000, "1329", "0.748"}};

CatapultConfig ConfigFor(size_t db_size) {
  CatapultConfig config;
  config.budget = 10;
  config.num_clusters = 0;  // sqrt heuristic
  config.tree_config.min_support = std::max<size_t>(2, db_size / 20);
  config.tree_config.max_edges = 2;
  config.walks_per_csg = 24;
  config.seed = kSeed;
  return config;
}

// Prints the table; returns the number of rows whose #cands or coverage
// moved (a failed run counts as moved).
size_t RunExperiment() {
  bench::Table table("E3: CATAPULT scaling with repository size",
                     {"|D| graphs", "total (s)", "mine (s)", "cluster (s)",
                      "CSG (s)", "cands (s)", "select (s)", "#cands",
                      "coverage"});
  size_t moved_rows = 0;
  for (const Pin& pin : kPins) {
    GraphDatabase db =
        gen::MoleculeDatabase(pin.db_size, gen::MoleculeConfig{}, kSeed);
    auto result = RunCatapult(db, ConfigFor(pin.db_size));
    if (!result.ok()) {
      std::printf("E3 size %zu failed: %s\n", pin.db_size,
                  result.status().ToString().c_str());
      ++moved_rows;
      continue;
    }
    const CatapultStats& s = result->stats;
    const std::string cands = std::to_string(s.num_candidates);
    const std::string coverage =
        bench::Fmt(DbSetCoverage(db, result->patterns()));
    moved_rows += cands != pin.cands || coverage != pin.coverage ? 1 : 0;
    table.AddRow({std::to_string(pin.db_size), bench::Fmt(s.total_seconds()),
                  bench::Fmt(s.mine_seconds), bench::Fmt(s.cluster_seconds),
                  bench::Fmt(s.csg_seconds), bench::Fmt(s.candidate_seconds),
                  bench::Fmt(s.select_seconds),
                  bench::PinCell(cands, pin.cands),
                  bench::PinCell(coverage, pin.coverage)});
  }
  table.Print();
  std::printf("E3 pin: %s (%zu of %zu rows moved)\n\n",
              moved_rows == 0 ? "PASS" : "FAIL", moved_rows,
              std::size(kPins));
  return moved_rows;
}

void BM_CatapultEndToEnd(benchmark::State& state) {
  size_t db_size = static_cast<size_t>(state.range(0));
  GraphDatabase db = gen::MoleculeDatabase(db_size, gen::MoleculeConfig{}, 3);
  CatapultConfig config = ConfigFor(db_size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunCatapult(db, config));
  }
  state.SetComplexityN(static_cast<int64_t>(db_size));
}
BENCHMARK(BM_CatapultEndToEnd)
    ->Arg(125)
    ->Arg(250)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

}  // namespace
}  // namespace vqi

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const size_t moved_rows = vqi::RunExperiment();
  benchmark::RunSpecifiedBenchmarks();
  return moved_rows == 0 ? 0 : 1;
}
