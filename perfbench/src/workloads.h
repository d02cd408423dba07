#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "inputs.h"
#include "report.h"

namespace perfbench {

/// One workload: the inputs it generates from the seed, the layers it
/// stresses, and why it is in the benchmark. Each prints its metrics and
/// returns the process exit code (0 when every output check passed).
struct Workload {
  const char* name;
  const char* why;
  int (*run)(const RunConfig& config);
};

/// Set-up phase times of every set-up round of one session phase.
struct SetupTimes {
  std::vector<double> generate, build, warm, total;
  double rss_after_build_mb = 0;

  void Add(int64_t t0, int64_t t1, int64_t t2, int64_t t3) {
    generate.push_back(static_cast<double>(t1 - t0) / 1e9);
    build.push_back(static_cast<double>(t2 - t1) / 1e9);
    warm.push_back(static_cast<double>(t3 - t2) / 1e9);
    total.push_back(static_cast<double>(t3 - t0) / 1e9);
  }
};

// The phases of a session. Each sets up kSetups times (recorded in
// `setup`), measures for `config.seconds`, checks its outputs, and adds its
// metrics to `report`. False when the phase could not run to the end (the
// failure is already in `report`).

/// CATAPULT on molecule collections, then TATTOO on networks.
bool RunConstructPhase(const RunConfig& config, Report& report,
                       SetupTimes* setup);
/// Closed-loop HTTP clients against a 2 x 2 sharded fleet: Zipf re-draws of
/// panel patterns (`hot`) or distinct drawn patterns.
bool RunFleetPhase(const RunConfig& config, bool hot, Report& report,
                   SetupTimes* setup);
/// Reads of the current panel on one service while MIDAS batches rewrite
/// the collection.
bool RunChurnPhase(const RunConfig& config, Report& report, SetupTimes* setup);

int RunSessionHot(const RunConfig& config);
int RunSessionCold(const RunConfig& config);

inline constexpr Workload kWorkloads[] = {
    {"session_hot",
     "construct, then Zipf re-draws of 200 panel patterns on a 2x2 fleet "
     "(cache hits: wire, JSON, scatter-gather dominate), then MIDAS churn",
     RunSessionHot},
    {"session_cold",
     "construct, then distinct 4-10 edge patterns on the same fleet (cache "
     "misses: the matcher dominates), then MIDAS churn",
     RunSessionCold},
};

/// Runs the statistics and metric-name self-tests; 0 when all pass.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
