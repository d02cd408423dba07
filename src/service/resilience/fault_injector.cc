#include "service/resilience/fault_injector.h"

#include <vector>

#include "common/strings.h"

namespace vqi {
namespace resilience {
namespace {

constexpr const char* kPointNames[kNumFaultPoints] = {
    "cache_probe", "admission", "executor", "vf2_slice", "http_read"};

Status MakeInjected(StatusCode code, FaultPoint point) {
  std::string msg = "injected fault at ";
  msg += FaultPointName(point);
  return Status(code, std::move(msg));
}

}  // namespace

const char* FaultPointName(FaultPoint point) {
  return kPointNames[static_cast<size_t>(point)];
}

bool FaultPointFromName(std::string_view name, FaultPoint* out) {
  for (size_t i = 0; i < kNumFaultPoints; ++i) {
    if (name == kPointNames[i]) {
      *out = static_cast<FaultPoint>(i);
      return true;
    }
  }
  return false;
}

bool FaultPlan::AnyActive() const {
  for (const FaultPointSpec& spec : points) {
    if (spec.Active()) return true;
  }
  return false;
}

FaultInjector::FaultInjector(FaultPlan plan) : seed_(plan.seed) {
  // Fork one independent stream per point from the plan seed so decisions at
  // one point never perturb another point's sequence.
  Rng root(plan.seed);
  for (size_t i = 0; i < kNumFaultPoints; ++i) {
    states_[i].rng = root.Fork();
    states_[i].spec = plan.points[i];
  }
}

FaultDecision FaultInjector::Decide(FaultPoint point) {
  PointState& state = states_[static_cast<size_t>(point)];
  FaultDecision decision;
  FaultPointSpec spec;
  // Metric handles are snapshotted under the lock: RegisterMetrics may install
  // them concurrently, and reading them unlocked after the critical section
  // would race that write.
  obs::Counter* latencies_metric = nullptr;
  obs::Counter* drops_metric = nullptr;
  obs::Counter* errors_metric = nullptr;
  {
    MutexLock lock(&state.mutex);
    spec = state.spec;
    if (!spec.Active()) return decision;
    latencies_metric = state.latencies_metric;
    drops_metric = state.drops_metric;
    errors_metric = state.errors_metric;
    // Always burn the same three draws per decision so toggling one
    // probability does not shift the sequence seen by the others.
    double latency_roll = state.rng.UniformDouble();
    double drop_roll = state.rng.UniformDouble();
    double error_roll = state.rng.UniformDouble();
    if (spec.latency_p > 0 && latency_roll < spec.latency_p) {
      decision.latency_ms = spec.latency_ms;
    }
    if (spec.drop_p > 0 && drop_roll < spec.drop_p) {
      decision.dropped = true;
      decision.status = MakeInjected(StatusCode::kUnavailable, point);
    } else if (spec.error_p > 0 && error_roll < spec.error_p) {
      decision.status = MakeInjected(spec.error_code, point);
    }
  }
  if (decision.latency_ms > 0) {
    state.latencies.fetch_add(1, std::memory_order_relaxed);
    if (latencies_metric != nullptr) latencies_metric->Increment();
  }
  if (decision.dropped) {
    state.drops.fetch_add(1, std::memory_order_relaxed);
    if (drops_metric != nullptr) drops_metric->Increment();
  } else if (!decision.status.ok()) {
    state.errors.fetch_add(1, std::memory_order_relaxed);
    if (errors_metric != nullptr) errors_metric->Increment();
  }
  return decision;
}

void FaultInjector::SetSpec(FaultPoint point, FaultPointSpec spec) {
  PointState& state = states_[static_cast<size_t>(point)];
  MutexLock lock(&state.mutex);
  state.spec = spec;
}

uint64_t FaultInjector::InjectedErrors(FaultPoint point) const {
  return states_[static_cast<size_t>(point)].errors.load(
      std::memory_order_relaxed);
}

uint64_t FaultInjector::InjectedLatencies(FaultPoint point) const {
  return states_[static_cast<size_t>(point)].latencies.load(
      std::memory_order_relaxed);
}

uint64_t FaultInjector::InjectedDrops(FaultPoint point) const {
  return states_[static_cast<size_t>(point)].drops.load(
      std::memory_order_relaxed);
}

uint64_t FaultInjector::InjectedTotal() const {
  uint64_t total = 0;
  for (const PointState& state : states_) {
    total += state.errors.load(std::memory_order_relaxed);
    total += state.latencies.load(std::memory_order_relaxed);
    total += state.drops.load(std::memory_order_relaxed);
  }
  return total;
}

void FaultInjector::RegisterMetrics(obs::MetricsRegistry& registry) {
  {
    // A repeat call for the same registry would double-carry the accumulated
    // counts below; shards sharing one injector register through here, so
    // only the first call per registry does the work.
    MutexLock lock(&register_mutex_);
    if (registered_registry_ == &registry) return;
    registered_registry_ = &registry;
  }
  for (size_t i = 0; i < kNumFaultPoints; ++i) {
    PointState& state = states_[i];
    const std::string point = kPointNames[i];
    obs::Counter& errors = registry.GetCounter(
        "vqi_faults_injected_total", "Faults injected by the chaos layer.",
        {{"point", point}, {"kind", "error"}});
    obs::Counter& latencies = registry.GetCounter(
        "vqi_faults_injected_total", "Faults injected by the chaos layer.",
        {{"point", point}, {"kind", "latency"}});
    obs::Counter& drops = registry.GetCounter(
        "vqi_faults_injected_total", "Faults injected by the chaos layer.",
        {{"point", point}, {"kind", "drop"}});
    MutexLock lock(&state.mutex);
    uint64_t e = state.errors.load(std::memory_order_relaxed);
    uint64_t l = state.latencies.load(std::memory_order_relaxed);
    uint64_t d = state.drops.load(std::memory_order_relaxed);
    if (e > 0) errors.Increment(e);
    if (l > 0) latencies.Increment(l);
    if (d > 0) drops.Increment(d);
    state.errors_metric = &errors;
    state.latencies_metric = &latencies;
    state.drops_metric = &drops;
  }
}

StatusOr<FaultPlan> FaultInjector::ParseChaosSpec(const std::string& spec) {
  FaultPlan plan;
  auto parse_prob = [](std::string_view text, double* out) {
    double value = 0;
    if (!ParseDouble(text, &value) || value < 0 || value > 1) return false;
    *out = value;
    return true;
  };
  for (std::string_view clause_view : Split(spec, ';')) {
    std::string clause(StripWhitespace(clause_view));
    if (clause.empty()) continue;
    if (clause.rfind("seed=", 0) == 0) {
      int64_t seed = 0;
      if (!ParseInt64(clause.substr(5), &seed) || seed < 0) {
        return Status::InvalidArgument("chaos spec: bad seed in '" + clause +
                                       "'");
      }
      plan.seed = static_cast<uint64_t>(seed);
      continue;
    }
    size_t colon = clause.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument(
          "chaos spec: expected 'point:key=value,...' in '" + clause + "'");
    }
    FaultPoint point;
    std::string point_name(StripWhitespace(clause.substr(0, colon)));
    if (!FaultPointFromName(point_name, &point)) {
      std::string valid;
      for (size_t p = 0; p < kNumFaultPoints; ++p) {
        if (!valid.empty()) valid += ", ";
        valid += FaultPointName(static_cast<FaultPoint>(p));
      }
      return Status::InvalidArgument("chaos spec: unknown fault point '" +
                                     point_name + "' (valid points: " + valid +
                                     ")");
    }
    FaultPointSpec& ps = plan.At(point);
    for (std::string_view setting_view :
         Split(clause.substr(colon + 1), ',')) {
      std::string setting(StripWhitespace(setting_view));
      if (setting.empty()) continue;
      size_t eq = setting.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("chaos spec: expected key=value in '" +
                                       setting + "'");
      }
      std::string key = setting.substr(0, eq);
      std::string value = setting.substr(eq + 1);
      bool ok = true;
      if (key == "error") {
        ok = parse_prob(value, &ps.error_p);
      } else if (key == "code") {
        if (value == "unavailable") {
          ps.error_code = StatusCode::kUnavailable;
        } else if (value == "internal") {
          ps.error_code = StatusCode::kInternal;
        } else {
          ok = false;
        }
      } else if (key == "latency_ms") {
        ok = ParseDouble(value, &ps.latency_ms) && ps.latency_ms >= 0;
        // "latency_ms=5" alone means "always 5ms": an unset probability
        // defaults to certain, the intuitive reading of the spec.
        if (ok && ps.latency_p == 0) ps.latency_p = 1.0;
      } else if (key == "latency_p") {
        ok = parse_prob(value, &ps.latency_p);
      } else if (key == "drop") {
        ok = parse_prob(value, &ps.drop_p);
      } else {
        return Status::InvalidArgument("chaos spec: unknown key '" + key +
                                       "'");
      }
      if (!ok) {
        return Status::InvalidArgument("chaos spec: bad value in '" + setting +
                                       "'");
      }
    }
  }
  return plan;
}

}  // namespace resilience
}  // namespace vqi
