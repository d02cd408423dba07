#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Collects one run's metrics and output-check outcome, prints a readable
/// line per metric as it arrives, and ends the run with the one-line JSON
/// result: {"correct", "attempted", "failed", "metrics": {name: {value,
/// unit}}}.
class Report {
 public:
  /// Adds metric `name` (must match [A-Za-z0-9_.-]+ and be new). `detail`
  /// is printed beside the value: the sample count of a percentile, the
  /// base of a ratio.
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& detail = "");
  /// Adds a percentile metric and prints which quantile and how many
  /// samples it rests on.
  void AddTail(const std::string& name, const TailStat& stat,
               const std::string& unit, double scale = 1.0);
  /// Adds numerator / denominator and prints both.
  void AddRatio(const std::string& name, double numerator, double denominator,
                const std::string& base);

  /// Operations attempted and failed in the measured work (requests,
  /// pipeline calls, batches).
  void Attempted(uint64_t n) { attempted_ += n; }
  void Failed(uint64_t n) { failed_ += n; }

  /// An output check or cross-check failed: the run is not correct.
  void CheckFailed(const std::string& what);
  /// A check passed; printed so the log shows what was verified.
  void CheckPassed(const std::string& what);

  bool correct() const { return check_failures_ == 0 && failed_ == 0; }

  /// Prints the result line and returns the exit code (0 when correct).
  int Finish() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t check_failures_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
