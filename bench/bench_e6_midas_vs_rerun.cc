// E6 — tutorial §2.4 MIDAS claims:
//   "selecting canned patterns repeatedly ... as D evolves ... can be
//    extremely inefficient. MIDAS addresses this limitation ... guarantees
//    that the quality of the updated pattern set is at least the same or
//    better than the original canned patterns."
// Reproduction: MIDAS maintenance time vs full CATAPULT recomputation over
// a batch-size sweep, plus the pattern-set score before/after maintenance
// on the updated database. Expected shape: maintenance is several times
// cheaper than rerun at small batches (the common daily-update case), and
// score_after >= score_before on every row. Every row's drift kind, rescanned
// graphs and scores are deterministic, so this bench pins them: they must
// equal the committed EXPERIMENTS.md E6 figures, and the binary exits non-zero
// otherwise (ctest runs it under the `bench_smoke` label). Wall times are
// printed for the record only.

#include <benchmark/benchmark.h>

#include <iterator>
#include <string>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "graph/generators.h"
#include "midas/midas.h"

namespace vqi {
namespace {

constexpr uint64_t kSeed = 66;
constexpr size_t kDbSize = 400;

MidasConfig Config() {
  MidasConfig config;
  config.base.budget = 8;
  config.base.num_clusters = 8;
  config.base.tree_config.min_support = kDbSize / 20;
  config.base.walks_per_csg = 24;
  config.base.seed = kSeed;
  config.drift_threshold = 0.01;
  return config;
}

BatchUpdate MakeBatch(const GraphDatabase& db, double fraction,
                      bool structurally_different, Rng& rng) {
  BatchUpdate update;
  size_t count = static_cast<size_t>(fraction * static_cast<double>(db.size()));
  std::vector<GraphId> ids = db.Ids();
  rng.Shuffle(ids);
  for (size_t i = 0; i < count && i < ids.size(); ++i) {
    update.deletions.push_back(ids[i]);
  }
  gen::LabelConfig er_labels;
  er_labels.num_vertex_labels = 4;
  for (size_t i = 0; i < count; ++i) {
    update.additions.push_back(
        structurally_different
            ? gen::ErdosRenyi(12, 0.4, er_labels, rng)
            : gen::Molecule(gen::MoleculeConfig{}, rng));
  }
  return update;
}

// One batch of the sweep, with its drift kind, rescanned graphs and score
// before -> after as committed in EXPERIMENTS.md §E6.
struct Row {
  double fraction;
  bool different;  // structurally different batch -> expect major drift
  const char* kind;
  const char* rescanned;
  const char* score_before;
  const char* score_after;
};
constexpr Row kRows[] = {
    {0.05, false, "minor", "20", "0.771", "0.771"},
    {0.10, false, "minor", "40", "0.761", "0.761"},
    {0.20, false, "minor", "80", "0.783", "0.783"},
    {0.40, false, "minor", "160", "0.781", "0.781"},
    {0.10, true, "major", "40", "0.761", "0.789"},
    {0.20, true, "major", "80", "0.741", "0.778"},
};

// Prints the table; returns the number of rows whose kind, rescanned count
// or scores moved (a failed run counts as moved).
size_t RunExperiment() {
  bench::Table table(
      "E6: maintenance (MIDAS) vs full recomputation (CATAPULT rerun)",
      {"batch size", "drift", "kind", "rescanned", "maintain (s)", "rerun (s)",
       "speedup", "score before", "score after", "cov before", "cov after"});

  size_t matched_rows = 0;
  for (const Row& row : kRows) {
    double fraction = row.fraction;
    // Fresh database + state per row so batches are independent.
    GraphDatabase db =
        gen::MoleculeDatabase(kDbSize, gen::MoleculeConfig{}, kSeed);
    MidasConfig config = Config();
    auto state = InitializeMidas(db, config);
    if (!state.ok()) continue;
    Rng rng(kSeed + static_cast<uint64_t>(fraction * 100) +
            (row.different ? 1000 : 0));
    BatchUpdate update = MakeBatch(db, fraction, row.different, rng);
    size_t batch_graphs = update.additions.size() + update.deletions.size();

    Stopwatch maintain_watch;
    auto report = ApplyBatchAndMaintain(*state, db, std::move(update), config);
    double maintain_seconds = maintain_watch.ElapsedSeconds();
    if (!report.ok()) continue;

    Stopwatch rerun_watch;
    auto rerun = RunCatapult(db, state->catapult.config);
    double rerun_seconds = rerun_watch.ElapsedSeconds();
    if (!rerun.ok()) continue;

    const std::string kind = ModificationTypeName(report->drift.type);
    const std::string rescanned = std::to_string(report->graphs_rescanned);
    const std::string score_before = bench::Fmt(report->score_before);
    const std::string score_after = bench::Fmt(report->score_after);
    if (kind == row.kind && rescanned == row.rescanned &&
        score_before == row.score_before && score_after == row.score_after) {
      ++matched_rows;
    }
    table.AddRow(
        {std::to_string(batch_graphs) + " (" +
             bench::Fmt(100 * fraction, 0) +
             (row.different ? "%, drifting)" : "%)"),
         bench::Fmt(report->drift.distance, 4), bench::PinCell(kind, row.kind),
         bench::PinCell(rescanned, row.rescanned),
         bench::Fmt(maintain_seconds), bench::Fmt(rerun_seconds),
         bench::Fmt(rerun_seconds / std::max(1e-9, maintain_seconds), 1) + "x",
         bench::PinCell(score_before, row.score_before),
         bench::PinCell(score_after, row.score_after),
         bench::Fmt(report->coverage_before),
         bench::Fmt(report->coverage_after)});
  }
  table.Print();
  std::printf("E6 invariant: score after >= score before on every row "
              "(the MIDAS quality guarantee).\n");
  const size_t moved_rows = std::size(kRows) - matched_rows;
  std::printf("E6 pin: %s (%zu of %zu rows moved)\n\n",
              moved_rows == 0 ? "PASS" : "FAIL", moved_rows, std::size(kRows));
  return moved_rows;
}

void BM_MidasMaintainSmallBatch(benchmark::State& state) {
  GraphDatabase db = gen::MoleculeDatabase(150, gen::MoleculeConfig{}, 5);
  MidasConfig config = Config();
  config.base.tree_config.min_support = 8;
  auto midas = InitializeMidas(db, config);
  Rng rng(6);
  for (auto _ : state) {
    state.PauseTiming();
    BatchUpdate update = MakeBatch(db, 0.03, /*structurally_different=*/false, rng);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        ApplyBatchAndMaintain(*midas, db, std::move(update), config));
  }
}
BENCHMARK(BM_MidasMaintainSmallBatch)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vqi

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const size_t moved_rows = vqi::RunExperiment();
  benchmark::RunSpecifiedBenchmarks();
  return moved_rows == 0 ? 0 : 1;
}
