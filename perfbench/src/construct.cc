// The construct phase of a session: the paper's offline half. CATAPULT
// selects canned patterns for molecule collections, TATTOO for networks;
// both run single-threaded on the calling thread.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "catapult/catapult.h"
#include "graph/generators.h"
#include "metrics/coverage.h"
#include "report.h"
#include "stats.h"
#include "tattoo/tattoo.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Each run builds patterns for several independent instances, all drawn
/// from the seed: with one large instance TATTOO's time and coverage swing
/// with the seed far more than any gate could tolerate, and the mean over
/// instances narrows that spread. TATTOO's coverage varies most, so it gets
/// more, smaller instances.
constexpr size_t kCollections = 8;
constexpr size_t kMolecules = 250;
constexpr size_t kNetworks = 12;
constexpr size_t kNetworkVertices = 6250;
constexpr size_t kAttachEdges = 3;
constexpr size_t kNetworkLabels = 5;
constexpr size_t kSetups = 3;

vqi::CatapultConfig CatapultConfigFor(size_t db_size) {
  vqi::CatapultConfig config;
  config.budget = 10;
  config.tree_config.min_support = db_size / 20;
  config.tree_config.max_edges = 2;
  config.walks_per_csg = 24;
  return config;
}

vqi::TattooConfig TattooConfigFor() {
  vqi::TattooConfig config;
  config.budget = 10;
  config.samples_per_class = 32;
  // CanonicalCode explores k! branches on a star with k same-label leaves,
  // so one sampled 12-leaf star can hold TATTOO's candidate stage for half
  // a minute and swamp every other number. Capped until canonicalization
  // prunes automorphisms.
  config.max_pattern_edges = 8;
  return config;
}

struct Inputs {
  std::vector<vqi::GraphDatabase> collections;
  std::vector<vqi::Graph> networks;
};

Inputs MakeInputs(uint64_t seed) {
  vqi::Rng seeder(seed);
  Inputs inputs;
  for (size_t i = 0; i < kCollections; ++i) {
    inputs.collections.push_back(Molecules(kMolecules, seeder.Next()));
  }
  vqi::gen::LabelConfig labels;
  labels.num_vertex_labels = kNetworkLabels;
  for (size_t i = 0; i < kNetworks; ++i) {
    vqi::Rng rng(seeder.Next());
    inputs.networks.push_back(
        vqi::gen::BarabasiAlbert(kNetworkVertices, kAttachEdges, labels, rng));
  }
  return inputs;
}

/// One pass: CATAPULT on every collection, then TATTOO on every network.
/// Only timings are kept, so memory does not grow with the pass count.
struct Pass {
  std::vector<double> catapult_s;  ///< wall time of each call
  std::vector<double> tattoo_s;
  std::vector<double> catapult_speed;  ///< ProbeSpeed() before each call
  std::vector<double> tattoo_speed;
  std::vector<vqi::CatapultStats> catapult;
  std::vector<vqi::TattooStats> tattoo;
};

/// The pattern sets of the first pass, and how many later calls selected
/// a different set.
struct Selections {
  std::vector<std::vector<vqi::Graph>> catapult;
  std::vector<std::vector<vqi::Graph>> tattoo;
  size_t differing = 0;

  /// Keeps `patterns` as instance i's set on the first pass; later passes
  /// are compared with it.
  void Record(std::vector<std::vector<vqi::Graph>>& sets, size_t i,
              const std::vector<vqi::Graph>& patterns) {
    if (sets.size() <= i) {
      sets.push_back(patterns);
      return;
    }
    const std::vector<vqi::Graph>& first = sets[i];
    bool same = first.size() == patterns.size();
    for (size_t k = 0; same && k < first.size(); ++k) {
      same = first[k].IdenticalTo(patterns[k]);
    }
    if (!same) ++differing;
  }
};

/// Runs passes until `seconds` elapse (at least one). False on a pipeline
/// error, which is reported.
bool RunPasses(const Inputs& inputs, double seconds, std::vector<Pass>* passes,
               Selections* selections, Report& report) {
  const int64_t start = NowNs();
  do {
    Pass pass;
    for (size_t i = 0; i < inputs.collections.size(); ++i) {
      const vqi::GraphDatabase& db = inputs.collections[i];
      pass.catapult_speed.push_back(ProbeSpeed());
      ScopedSpan span("catapult");
      const int64_t begin = NowNs();
      auto result = vqi::RunCatapult(db, CatapultConfigFor(db.size()));
      pass.catapult_s.push_back(static_cast<double>(NowNs() - begin) / 1e9);
      if (!result.ok()) {
        report.CheckFailed("RunCatapult: " + result.status().ToString());
        return false;
      }
      pass.catapult.push_back(result->stats);
      selections->Record(selections->catapult, i, result->patterns());
    }
    for (size_t i = 0; i < inputs.networks.size(); ++i) {
      const vqi::Graph& network = inputs.networks[i];
      pass.tattoo_speed.push_back(ProbeSpeed());
      ScopedSpan span("tattoo");
      const int64_t begin = NowNs();
      auto result = vqi::RunTattoo(network, TattooConfigFor());
      pass.tattoo_s.push_back(static_cast<double>(NowNs() - begin) / 1e9);
      if (!result.ok()) {
        report.CheckFailed("RunTattoo: " + result.status().ToString());
        return false;
      }
      pass.tattoo.push_back(result->stats);
      selections->Record(selections->tattoo, i, result->patterns);
    }
    passes->push_back(std::move(pass));
  } while (static_cast<double>(NowNs() - start) / 1e9 < seconds);
  return true;
}

/// Budget, size range, non-empty coverage, identical output on every pass,
/// and stage seconds within each call's wall time. Returns the number of
/// failed pipeline calls.
uint64_t CheckPasses(const Inputs& inputs, const std::vector<Pass>& passes,
                     const Selections& selections, Report& report) {
  const vqi::TattooConfig tconfig = TattooConfigFor();
  auto bad_set = [](const std::vector<vqi::Graph>& patterns, size_t budget,
                    size_t min_edges, size_t max_edges, auto covered) {
    if (patterns.size() != budget) return true;
    for (const vqi::Graph& p : patterns) {
      if (p.NumEdges() < min_edges || p.NumEdges() > max_edges ||
          covered(p) == 0) {
        return true;
      }
    }
    return false;
  };
  size_t bad_sets = 0;
  for (size_t i = 0; i < inputs.collections.size(); ++i) {
    const vqi::GraphDatabase& db = inputs.collections[i];
    const vqi::CatapultConfig cconfig = CatapultConfigFor(db.size());
    bad_sets += bad_set(selections.catapult[i], cconfig.budget,
                        cconfig.min_pattern_edges, cconfig.max_pattern_edges,
                        [&](const vqi::Graph& p) {
                          return vqi::CoverageBits(db, p).Count();
                        });
  }
  for (size_t i = 0; i < inputs.networks.size(); ++i) {
    const vqi::Graph& network = inputs.networks[i];
    const std::vector<vqi::Edge> edges = network.Edges();
    bad_sets += bad_set(selections.tattoo[i], tconfig.budget,
                        tconfig.min_pattern_edges, tconfig.max_pattern_edges,
                        [&](const vqi::Graph& p) {
                          return vqi::NetworkCoverageBits(network, edges, p,
                                                          tconfig.coverage)
                              .Count();
                        });
  }
  uint64_t failed = bad_sets;
  const std::string sets =
      std::to_string(bad_sets) + " of " +
      std::to_string(inputs.collections.size() + inputs.networks.size()) +
      " pattern sets miss the budget of 10, leave their edge range, or hold "
      "a pattern covering nothing";
  if (bad_sets > 0) {
    report.CheckFailed(sets);
  } else {
    report.CheckPassed(sets);
  }

  const size_t differing = selections.differing;
  size_t over = 0;
  size_t calls = 0;
  for (const Pass& pass : passes) {
    // The stage timers run inside the calls, so they cannot exceed the
    // wall clock measured around them.
    for (size_t i = 0; i < pass.catapult.size(); ++i, ++calls) {
      if (pass.catapult[i].total_seconds() > pass.catapult_s[i]) ++over;
    }
    for (size_t i = 0; i < pass.tattoo.size(); ++i, ++calls) {
      if (pass.tattoo[i].total_seconds() > pass.tattoo_s[i]) ++over;
    }
  }
  const std::string repeat = std::to_string(passes.size()) + " passes: " +
                             std::to_string(differing) +
                             " calls selected a different pattern set";
  if (differing > 0) {
    report.CheckFailed(repeat);
    failed += differing;
  } else {
    report.CheckPassed(repeat);
  }
  const std::string stages = std::to_string(over) + " of " +
                             std::to_string(calls) +
                             " calls report stage seconds above their wall time";
  if (over > 0) {
    report.CheckFailed(stages);
  } else {
    report.CheckPassed(stages);
  }
  return failed;
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

/// Per call: the median over passes of `f(pass, i)` for each of `count`
/// instances, averaged over the instances. The median filters the calls a
/// noisy neighbour slowed down; the mean keeps every instance's weight.
template <typename F>
double InstanceMedianMean(const std::vector<Pass>& passes, size_t count, F f) {
  std::vector<double> medians;
  for (size_t i = 0; i < count; ++i) {
    std::vector<double> values;
    for (const Pass& pass : passes) values.push_back(f(pass, i));
    medians.push_back(Median(values));
  }
  return Mean(medians);
}

double CatapultMedian(const std::vector<Pass>& passes, double (*f)(const Pass&, size_t)) {
  return InstanceMedianMean(passes, kCollections, f);
}

double TattooMedian(const std::vector<Pass>& passes, double (*f)(const Pass&, size_t)) {
  return InstanceMedianMean(passes, kNetworks, f);
}

std::string PerCall(size_t passes, size_t instances) {
  return "(per call at reference speed: median of " + std::to_string(passes) +
         " passes, mean over " + std::to_string(instances) + " instances)";
}

void ReportStages(const std::vector<Pass>& passes, Report& report) {
  const std::string collections = PerCall(passes.size(), kCollections);
  const std::string networks = PerCall(passes.size(), kNetworks);
  auto stage = [&](const char* name, double (*f)(const Pass&, size_t),
                   bool catapult) {
    report.Add(name, catapult ? CatapultMedian(passes, f) : TattooMedian(passes, f),
               "s", catapult ? collections : networks);
  };
  // Stage seconds are scaled like the call they ran in.
  stage("catapult.mine_s", [](const Pass& p, size_t i) { return p.catapult_speed[i] * p.catapult[i].mine_seconds; }, true);
  stage("catapult.cluster_s", [](const Pass& p, size_t i) { return p.catapult_speed[i] * p.catapult[i].cluster_seconds; }, true);
  stage("catapult.csg_s", [](const Pass& p, size_t i) { return p.catapult_speed[i] * p.catapult[i].csg_seconds; }, true);
  stage("catapult.candidates_s", [](const Pass& p, size_t i) { return p.catapult_speed[i] * p.catapult[i].candidate_seconds; }, true);
  stage("catapult.select_s", [](const Pass& p, size_t i) { return p.catapult_speed[i] * p.catapult[i].select_seconds; }, true);
  stage("catapult.untimed_s", [](const Pass& p, size_t i) {
    return p.catapult_speed[i] * (p.catapult_s[i] - p.catapult[i].total_seconds());
  }, true);
  stage("tattoo.decompose_s", [](const Pass& p, size_t i) { return p.tattoo_speed[i] * p.tattoo[i].decompose_seconds; }, false);
  stage("tattoo.candidates_s", [](const Pass& p, size_t i) { return p.tattoo_speed[i] * p.tattoo[i].candidate_seconds; }, false);
  stage("tattoo.select_s", [](const Pass& p, size_t i) { return p.tattoo_speed[i] * p.tattoo[i].select_seconds; }, false);
  double catapult_candidates = 0;
  double tattoo_candidates = 0;
  for (const vqi::CatapultStats& stats : passes.front().catapult) {
    catapult_candidates += static_cast<double>(stats.num_candidates);
  }
  for (const vqi::TattooStats& stats : passes.front().tattoo) {
    tattoo_candidates += static_cast<double>(stats.num_candidates);
  }
  report.Add("catapult.num_candidates", catapult_candidates, "count",
             "(sum over " + std::to_string(kCollections) + " collections)");
  report.Add("tattoo.num_candidates", tattoo_candidates, "count",
             "(sum over " + std::to_string(kNetworks) + " networks)");
}

/// Call seconds at the reference machine speed (see SpeedFactor).
double CatapultSeconds(const Pass& pass, size_t i) {
  return pass.catapult_speed[i] * pass.catapult_s[i];
}
double TattooSeconds(const Pass& pass, size_t i) {
  return pass.tattoo_speed[i] * pass.tattoo_s[i];
}
double CatapultWall(const Pass& pass, size_t i) { return pass.catapult_s[i]; }
double TattooWall(const Pass& pass, size_t i) { return pass.tattoo_s[i]; }

}  // namespace

bool RunConstructPhase(const RunConfig& config, Report& report,
                       SetupTimes* setup) {
  Inputs inputs;
  for (size_t round = 0; round < kSetups; ++round) {
    inputs = Inputs();
    const int64_t start = NowNs();
    inputs = MakeInputs(config.seed);
    const int64_t end = NowNs();
    setup->Add(start, end, end, end);
  }
  std::printf("  inputs: %zu collections of %zu molecules, %zu networks of "
              "|V|=%zu |E|=%zu\n",
              inputs.collections.size(), inputs.collections[0].size(),
              inputs.networks.size(), inputs.networks[0].NumVertices(),
              inputs.networks[0].NumEdges());

  std::vector<Pass> untraced;
  std::vector<Pass> passes;
  Selections selections;
  if (config.trace &&
      !RunPasses(inputs, config.seconds, &untraced, &selections, report)) {
    return false;
  }
  Tracer::Get().set_enabled(config.trace);
  const bool ran =
      RunPasses(inputs, config.seconds, &passes, &selections, report);
  Tracer::Get().set_enabled(false);
  if (!ran) return false;

  if (!config.trace) {
    std::vector<double> catapult_coverage;
    std::vector<double> tattoo_coverage;
    for (size_t i = 0; i < kCollections; ++i) {
      catapult_coverage.push_back(vqi::DbSetCoverage(
          inputs.collections[i], selections.catapult[i]));
    }
    for (size_t i = 0; i < kNetworks; ++i) {
      tattoo_coverage.push_back(vqi::NetworkSetCoverage(
          inputs.networks[i], selections.tattoo[i],
          TattooConfigFor().coverage));
    }
    report.Add("catapult_s", CatapultMedian(passes, CatapultSeconds), "s",
               PerCall(passes.size(), kCollections));
    report.Add("tattoo_s", TattooMedian(passes, TattooSeconds), "s",
               PerCall(passes.size(), kNetworks));
    std::printf("  wall clock: catapult %.6f s, tattoo %.6f s per call\n",
                CatapultMedian(passes, CatapultWall),
                TattooMedian(passes, TattooWall));
    report.Add("catapult_coverage", Mean(catapult_coverage), "fraction",
               "(graphs covered by the selected set, mean over " +
                   std::to_string(kCollections) + " collections)");
    report.Add("tattoo_coverage", Mean(tattoo_coverage), "fraction",
               "(edges covered under the enumeration budget, mean over " +
                   std::to_string(kNetworks) + " networks)");
  } else {
    ReportStages(passes, report);
    const double traced = CatapultMedian(passes, CatapultWall);
    const double plain = CatapultMedian(untraced, CatapultWall);
    char detail[96];
    std::snprintf(detail, sizeof(detail), "(traced %.4f - untraced %.4f s)",
                  traced, plain);
    report.Add("trace.overhead_catapult_s", traced - plain, "s", detail);
    passes.insert(passes.end(), std::make_move_iterator(untraced.begin()),
                  std::make_move_iterator(untraced.end()));
  }
  report.Attempted((kCollections + kNetworks) * passes.size());
  report.Failed(CheckPasses(inputs, passes, selections, report));
  return true;
}

}  // namespace perfbench
