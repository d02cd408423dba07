// E10 — tutorial §2.5 "Beyond VQIs":
//   "given that these patterns have high coverage and diversity, and low
//    cognitive load, they can be potentially useful for efficiently
//    generating graph summaries that are visualization-friendly."
// Reproduction: summarize a network with three vocabularies — TATTOO's
// canned patterns, the basic patterns, and random subgraphs — under the
// same pattern budget. Expected shape: the canned vocabulary explains more
// edges per pattern at comparable or lower cognitive load.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iterator>

#include "bench_util.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "match/pattern_utils.h"
#include "summary/summarizer.h"
#include "tattoo/tattoo.h"
#include "vqi/panels.h"

namespace vqi {
namespace {

constexpr uint64_t kSeed = 110;

// EXPERIMENTS.md §E10's figures. Every cell is deterministic: TATTOO's picks
// and the summarizer's greedy both run step-budgeted coverage over a seeded
// network.
struct VocabularyPin {
  const char* patterns_used;
  const char* edge_coverage;
  const char* uncovered_edges;
  const char* mean_cognitive_load;
};
constexpr VocabularyPin kCannedPin = {"10", "0.605", "2369", "0.294"};
constexpr VocabularyPin kBasicPin = {"2", "0.048", "5712", "0.175"};
constexpr VocabularyPin kRandomPin = {"10", "0.363", "3821", "0.296"};
// E10b, per greedy pick of the canned vocabulary: pattern edges and new
// edges explained.
constexpr const char* kMarginalPins[][2] = {
    {"6", "787"}, {"6", "635"}, {"5", "494"}, {"5", "434"}, {"6", "290"},
    {"4", "242"}, {"5", "218"}, {"5", "195"}, {"4", "193"}, {"4", "143"},
};

// Prints both tables; returns the number of pinned cells that moved (a
// failed run, or a pick count other than the pinned one, counts as one).
size_t RunExperiment() {
  Rng rng(kSeed);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 4;
  Graph network = gen::WattsStrogatz(2000, 3, 0.15, labels, rng);

  // Vocabulary 1: TATTOO canned patterns.
  TattooConfig config;
  config.budget = 10;
  config.samples_per_class = 32;
  config.seed = kSeed;
  auto tattoo = RunTattoo(network, config);
  if (!tattoo.ok()) {
    std::printf("E10 FAILED: %s\n", tattoo.status().ToString().c_str());
    return 1;
  }

  // Vocabulary 2: basic patterns (dominant label 0).
  std::vector<Graph> basic = PatternPanel::DefaultBasicPatterns(0);

  // Vocabulary 3: random connected subgraphs of matching sizes.
  std::vector<Graph> random_vocab;
  while (random_vocab.size() < tattoo->patterns.size()) {
    auto sub = RandomConnectedSubgraph(network, 4 + rng.UniformInt(9), rng);
    if (sub.has_value()) random_vocab.push_back(std::move(*sub));
  }

  SummaryConfig sconfig;
  sconfig.max_patterns = 10;
  sconfig.coverage.max_embeddings = 512;
  sconfig.coverage.max_steps = 400000;

  bench::Table table("E10: pattern-based graph summarization (budget 10)",
                     {"vocabulary", "patterns used", "edge coverage",
                      "uncovered edges", "mean cognitive load"});
  struct Entry {
    const char* name;
    const std::vector<Graph>* vocab;
    const VocabularyPin& pin;
  };
  bench::PinTally pins;
  for (const Entry& entry :
       {Entry{"canned (TATTOO)", &tattoo->patterns, kCannedPin},
        Entry{"basic only", &basic, kBasicPin},
        Entry{"random subgraphs", &random_vocab, kRandomPin}}) {
    GraphSummary summary =
        SummarizeWithPatterns(network, *entry.vocab, sconfig);
    table.AddRow(
        {entry.name,
         pins.Cell(std::to_string(summary.patterns.size()),
                   entry.pin.patterns_used),
         pins.Cell(bench::Fmt(summary.edge_coverage), entry.pin.edge_coverage),
         pins.Cell(std::to_string(summary.uncovered_edges),
                   entry.pin.uncovered_edges),
         pins.Cell(bench::Fmt(summary.mean_cognitive_load),
                   entry.pin.mean_cognitive_load)});
  }
  table.Print();

  // Per-pattern marginal contribution of the canned vocabulary.
  GraphSummary canned = SummarizeWithPatterns(network, tattoo->patterns, sconfig);
  bench::Table marginals("E10b: greedy marginal edge gains (canned vocabulary)",
                         {"pick #", "pattern edges", "new edges explained"});
  const size_t picks = std::min(canned.patterns.size(), std::size(kMarginalPins));
  for (size_t i = 0; i < picks; ++i) {
    marginals.AddRow(
        {std::to_string(i + 1),
         pins.Cell(std::to_string(canned.patterns[i].NumEdges()),
                   kMarginalPins[i][0]),
         pins.Cell(std::to_string(canned.explained_edges[i]),
                   kMarginalPins[i][1])});
  }
  marginals.Print();
  const size_t moved =
      pins.moved() + (canned.patterns.size() != std::size(kMarginalPins));
  std::printf("E10 pin: %s (%zu cells moved)\n\n",
              moved == 0 ? "PASS" : "FAIL", moved);
  return moved;
}

void BM_Summarize(benchmark::State& state) {
  Rng rng(4);
  gen::LabelConfig labels;
  Graph network = gen::WattsStrogatz(500, 3, 0.2, labels, rng);
  std::vector<Graph> vocab = PatternPanel::DefaultBasicPatterns(0);
  SummaryConfig config;
  config.coverage.match_vertex_labels = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SummarizeWithPatterns(network, vocab, config));
  }
}
BENCHMARK(BM_Summarize)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vqi

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const size_t moved_cells = vqi::RunExperiment();
  benchmark::RunSpecifiedBenchmarks();
  return moved_cells == 0 ? 0 : 1;
}
