// The workloads. Each is one VQI session in the paper's order: build the
// canned-pattern panels offline (CATAPULT, TATTOO), serve users' queries
// through the sharded fleet, then keep the panel fresh while the collection
// changes (MIDAS). The two workloads differ only in what the users draw, so
// every workload reports every metric.

#include <algorithm>
#include <cstdio>
#include <string>

#include "report.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Shares of --seconds each phase measures. Construction gets the most:
/// its timings rest on a few calls per instance. The churn phase's batch
/// sequence is fixed; its share only sets how long the reads between
/// batches run.
constexpr double kConstructShare = 0.55;
constexpr double kFleetShare = 0.35;
constexpr double kChurnShare = 0.1;

double SumOfMedians(const std::vector<SetupTimes>& phases,
                    std::vector<double> SetupTimes::*times) {
  double sum = 0;
  for (const SetupTimes& phase : phases) sum += Median(phase.*times);
  return sum;
}

/// setup_s is the sum over phases of each phase's median set-up round.
void ReportSetup(const std::vector<SetupTimes>& phases, bool traced,
                 Report& report) {
  const std::string rounds = "(sum over " + std::to_string(phases.size()) +
                             " phases of each one's median set-up)";
  if (!traced) {
    report.Add("setup_s", SumOfMedians(phases, &SetupTimes::total), "s", rounds);
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }
  double rss_mb = 0;
  for (const SetupTimes& phase : phases) {
    rss_mb = std::max(rss_mb, phase.rss_after_build_mb);
  }
  report.Add("setup.generate_s", SumOfMedians(phases, &SetupTimes::generate),
             "s", rounds);
  report.Add("setup.fleet_s", SumOfMedians(phases, &SetupTimes::build), "s",
             "(fleet, service and MIDAS initialization; " + rounds.substr(1));
  report.Add("setup.warm_s", SumOfMedians(phases, &SetupTimes::warm), "s",
             rounds);
  report.Add("setup.rss_after_fleet_mb", rss_mb, "MB",
             "(largest over phases, right after the build)");
}

RunConfig PhaseConfig(const RunConfig& config, double share,
                      const char* phase) {
  RunConfig phase_config = config;
  phase_config.seconds = share * config.seconds;
  std::printf("-- %s phase: %.2f s\n", phase, phase_config.seconds);
  std::fflush(stdout);
  return phase_config;
}

int RunSession(const RunConfig& config, bool hot) {
  Report report;
  std::vector<SetupTimes> setups(3);
  const bool ran =
      RunConstructPhase(PhaseConfig(config, kConstructShare, "construct"),
                        report, &setups[0]) &&
      RunFleetPhase(
          PhaseConfig(config, kFleetShare, hot ? "fleet (hot)" : "fleet (cold)"),
          hot, report, &setups[1]) &&
      RunChurnPhase(PhaseConfig(config, kChurnShare, "churn"), report,
                    &setups[2]);
  if (ran) ReportSetup(setups, config.trace, report);
  if (!config.trace_out.empty()) WriteSpans(config.trace_out, Tracer::Get().Spans());
  return report.Finish();
}

}  // namespace

int RunSessionHot(const RunConfig& config) { return RunSession(config, true); }
int RunSessionCold(const RunConfig& config) { return RunSession(config, false); }

}  // namespace perfbench
