#include "report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {
namespace {

bool IsUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    const bool ok = IsMetricName(std::string(1, c)) || c == '/' || c == '%';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit, const std::string& detail) {
  if (!IsMetricName(name) || name.size() > 64 || !IsUnit(unit)) {
    std::fprintf(stderr, "perfbench: bad metric name or unit '%s' [%s]\n",
                 name.c_str(), unit.c_str());
    std::abort();
  }
  for (const Metric& metric : metrics_) {
    if (metric.name == name) {
      std::fprintf(stderr, "perfbench: metric '%s' reported twice\n",
                   name.c_str());
      std::abort();
    }
  }
  if (!std::isfinite(value)) {
    CheckFailed("metric " + name + " is not a finite number");
    value = 0;
  }
  metrics_.push_back({name, value, unit});
  std::printf("  %-32s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
              detail.c_str());
}

void Report::AddTail(const std::string& name, const TailStat& stat,
                     const std::string& unit, double scale) {
  Add(name, stat.value * scale, unit,
      "(" + QuantileLabel(stat.quantile) + " of " +
          std::to_string(stat.samples) + " samples)");
}

void Report::AddRatio(const std::string& name, double numerator,
                      double denominator, const std::string& base) {
  char detail[160];
  std::snprintf(detail, sizeof(detail), "(%.0f / %.0f %s)", numerator,
                denominator, base.c_str());
  Add(name, denominator > 0 ? numerator / denominator : 0.0, "ratio", detail);
}

void Report::CheckFailed(const std::string& what) {
  ++check_failures_;
  std::printf("  CHECK FAILED: %s\n", what.c_str());
}

void Report::CheckPassed(const std::string& what) {
  std::printf("  check ok: %s\n", what.c_str());
}

int Report::Finish() const {
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

}  // namespace perfbench
