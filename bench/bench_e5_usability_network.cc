// E5 — tutorial §2.3 TATTOO claims on large networks:
//  (a) canned-pattern topologies are "consistent with the topologies of
//      real-world queries (e.g., star, chain, petals, flower)";
//  (b) data-driven VQIs beat manual ones on formulation steps/time.
// Reproduction: a TATTOO-built VQI vs the manual baseline on a query
// workload drawn with the published query-log topology mix; plus the
// topology histograms of the workload and of the selected patterns.
// Expected shape: chains+stars dominate both histograms; the data-driven
// panel cuts steps and time.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "graph/generators.h"
#include "sim/usability.h"
#include "sim/workload.h"
#include "vqi/builder.h"

namespace vqi {
namespace {

constexpr uint64_t kSeed = 55;

// EXPERIMENTS.md §E5's figures. Every cell is deterministic: the network,
// TATTOO's picks (under its step-budgeted coverage), the workload and the
// formulation model all follow the seed.
struct TopologyPin {
  TopologyClass cls;
  const char* workload;
  const char* selected;
};
constexpr TopologyPin kTopologyPins[] = {
    {TopologyClass::kChain, "48", "2"}, {TopologyClass::kStar, "23", "3"},
    {TopologyClass::kTree, "0", "0"},   {TopologyClass::kCycle, "4", "0"},
    {TopologyClass::kPetal, "3", "3"},  {TopologyClass::kFlower, "2", "2"},
    {TopologyClass::kOther, "0", "0"},
};
struct UsabilityPin {
  const char* mean_steps;
  const char* median_steps;
  const char* mean_seconds;
  const char* patterns_per_query;
};
constexpr UsabilityPin kDataDrivenPin = {"7.5", "7.0", "18.0", "1.64"};
constexpr UsabilityPin kManualPin = {"10.0", "9.0", "23.2", "2.67"};
constexpr const char* kStepReductionPin = "25.5";
constexpr const char* kTimeReductionPin = "22.5";

// Prints both tables; returns the number of pinned cells that moved (a
// failed build counts as one).
size_t RunExperiment() {
  Rng rng(kSeed);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 6;
  Graph network = gen::WattsStrogatz(5000, 3, 0.15, labels, rng);

  TattooConfig config;
  config.budget = 10;
  config.samples_per_class = 48;
  config.seed = kSeed;
  auto built = BuildVqiForNetwork(network, config);
  if (!built.ok()) {
    std::printf("E5 FAILED: %s\n", built.status().ToString().c_str());
    return 1;
  }
  bench::PinTally pins;

  // (a) Topology histograms.
  WorkloadConfig wconfig;
  wconfig.num_queries = 80;
  wconfig.min_edges = 4;
  wconfig.max_edges = 12;
  wconfig.seed = kSeed + 1;
  std::vector<Graph> workload = GenerateNetworkWorkload(network, wconfig);
  auto workload_hist = WorkloadTopologyHistogram(workload);
  auto selected_hist =
      WorkloadTopologyHistogram(built->vqi.pattern_panel().CannedPatterns());

  bench::Table topo("E5a: topology mix — query log model vs selected patterns",
                    {"topology", "workload queries", "selected patterns"});
  for (const TopologyPin& pin : kTopologyPins) {
    topo.AddRow({TopologyClassName(pin.cls),
                 pins.Cell(std::to_string(workload_hist[pin.cls]),
                           pin.workload),
                 pins.Cell(std::to_string(selected_hist[pin.cls]),
                           pin.selected)});
  }
  topo.Print();

  // (b) Usability comparison.
  LabelStats stats;
  for (VertexId v = 0; v < network.NumVertices(); ++v) {
    ++stats.vertex_label_counts[network.VertexLabel(v)];
  }
  for (const Edge& e : network.Edges()) ++stats.edge_label_counts[e.label];
  VisualQueryInterface manual =
      BuildManualBaselineVqi(stats, DataSourceKind::kSingleNetwork);

  UsabilityComparison cmp = CompareUsability(
      workload, built->vqi.pattern_panel(), manual.pattern_panel());
  bench::Table usability("E5b: formulation on a large network (TATTOO VQI)",
                         {"interface", "mean steps", "median steps",
                          "mean time (s)", "patterns/query"});
  auto usability_row = [&pins](const char* name, const UsabilityResult& stats,
                                const UsabilityPin& pin) {
    return std::vector<std::string>{
        name, pins.Cell(bench::Fmt(stats.mean_steps, 1), pin.mean_steps),
        pins.Cell(bench::Fmt(stats.median_steps, 1), pin.median_steps),
        pins.Cell(bench::Fmt(stats.mean_seconds, 1), pin.mean_seconds),
        pins.Cell(bench::Fmt(stats.mean_patterns_used, 2),
                  pin.patterns_per_query)};
  };
  usability.AddRow(usability_row("data-driven", cmp.data_driven,
                                 kDataDrivenPin));
  usability.AddRow(usability_row("manual", cmp.manual, kManualPin));
  usability.AddRow(
      {"reduction %",
       pins.Cell(bench::Fmt(cmp.step_reduction_percent(), 1),
                 kStepReductionPin),
       "-",
       pins.Cell(bench::Fmt(cmp.time_reduction_percent(), 1),
                 kTimeReductionPin),
       "-"});
  usability.Print();
  std::printf("E5 pin: %s (%zu cells moved)\n\n",
              pins.moved() == 0 ? "PASS" : "FAIL", pins.moved());
  return pins.moved();
}

void BM_NetworkWorkloadGeneration(benchmark::State& state) {
  Rng rng(3);
  gen::LabelConfig labels;
  Graph network = gen::WattsStrogatz(2000, 3, 0.15, labels, rng);
  WorkloadConfig config;
  config.num_queries = 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateNetworkWorkload(network, config));
  }
}
BENCHMARK(BM_NetworkWorkloadGeneration)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vqi

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const size_t moved_cells = vqi::RunExperiment();
  benchmark::RunSpecifiedBenchmarks();
  return moved_cells == 0 ? 0 : 1;
}
