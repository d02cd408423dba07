// Self-tests of the benchmark's statistics helpers, span self time and the
// metric-name grammar. Run with `perfbench --self-test`.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void ExpectNear(double actual, double expected, const std::string& what) {
  Expect(std::fabs(actual - expected) < 1e-9,
         what + ": got " + std::to_string(actual) + ", want " +
             std::to_string(expected));
}

void TestPercentiles() {
  ExpectNear(Median({}), 0, "median of nothing");
  ExpectNear(Median({3, 1, 2}), 2, "odd median");
  ExpectNear(Median({4, 1, 3, 2}), 2.5, "even median");
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  ExpectNear(Percentile(hundred, 0.99), 100, "p99 of 1..101");
  ExpectNear(Percentile(hundred, 0), 1, "p0");
  ExpectNear(Percentile(hundred, 1), 101, "p100");
  ExpectNear(Percentile({0, 10}, 0.25), 2.5, "interpolated");
}

void TestSupportedQuantile() {
  ExpectNear(SupportedQuantile(1000, 0.99), 0.99, "p99 needs 1000 samples");
  ExpectNear(SupportedQuantile(999, 0.99), 1 - 10.0 / 999, "p99 lowered");
  ExpectNear(SupportedQuantile(100, 0.99), 0.9, "100 samples support p90");
  ExpectNear(SupportedQuantile(12, 0.99), 0.5, "floored at the median");
  ExpectNear(SupportedQuantile(0, 0.99), 0.5, "no samples");
  ExpectNear(SupportedQuantile(5000, 0.5), 0.5, "median untouched");
  Expect(QuantileLabel(0.99) == "p99", "label p99");
  Expect(QuantileLabel(0.5) == "p50", "label p50");
  Expect(QuantileLabel(0.975) == "p97.5", "label p97.5");
  std::vector<double> values(200);
  for (size_t i = 0; i < values.size(); ++i) values[i] = static_cast<double>(i);
  const TailStat tail = Tail(values, 0.99);
  Expect(tail.samples == 200, "tail sample count");
  ExpectNear(tail.quantile, 0.95, "tail quantile with 200 samples");
  ExpectNear(tail.value, 0.95 * 199, "tail value");
}

void TestLatencyHistogram() {
  LatencyHistogram histogram;
  ExpectNear(histogram.Quantile(0.5), 0, "empty histogram");
  std::vector<double> samples;
  for (int i = 1; i <= 2000; ++i) samples.push_back(0.01 * i);  // 0.01..20 ms
  LatencyHistogram a;
  LatencyHistogram b;
  for (size_t i = 0; i < samples.size(); ++i) (i % 2 ? a : b).Add(samples[i]);
  a.Merge(b);
  Expect(a.count() == 2000, "merged count");
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const double exact = Percentile(samples, q);
    Expect(std::fabs(a.Quantile(q) - exact) <= 0.006 * exact,
           "histogram quantile within 0.6% at q=" + std::to_string(q));
  }
  const TailStat tail = Tail(a, 0.99);
  Expect(tail.samples == 2000 && std::fabs(tail.quantile - 0.99) < 1e-12,
         "histogram tail");
}

void TestMetricNames() {
  for (const char* good : {"setup_s", "net.handle_p50_ms", "a-b.C_9", "x"}) {
    Expect(IsMetricName(good), std::string("accepts ") + good);
  }
  for (const char* bad : {"", "a b", "ms/s", "p99%", "caf\xc3\xa9", "a,b"}) {
    Expect(!IsMetricName(bad), std::string("rejects '") + bad + "'");
  }
}

void TestHistograms() {
  vqi::obs::MetricsRegistry registry;
  auto& a = registry.GetHistogram("h", "", {1, 10}, {{"shard", "0"}});
  auto& b = registry.GetHistogram("h", "", {1, 10}, {{"pool", "router"}});
  a.Observe(0.5);
  b.Observe(5);
  const auto before = MergedHistogram(registry, "h", {{"pool", "router"}});
  Expect(before.count == 1, "excluded series left out");
  a.Observe(5);
  a.Observe(50);
  const auto delta =
      HistogramDelta(before, MergedHistogram(registry, "h", {{"pool", "router"}}));
  Expect(delta.count == 2, "delta count");
  Expect(delta.counts.size() == 3 && delta.counts[0] == 0 &&
             delta.counts[1] == 1 && delta.counts[2] == 1,
         "delta buckets");
  ExpectNear(delta.sum, 55, "delta sum");
  Expect(MergedHistogram(registry, "absent").count == 0, "absent family");
  Expect(HistogramTail(delta, 0.99).samples == 2, "histogram tail samples");
}

void TestSelfTime() {
  // parent [0, 100] with children [10, 30] and [20, 50] (overlapping) and
  // [90, 120] (clipped): covered = 40 + 10 = 50.
  std::vector<Span> spans = {
      {"parent", 1, 0, 7, 0, 100'000'000},
      {"child", 2, 1, 7, 10'000'000, 30'000'000},
      {"child", 3, 1, 7, 20'000'000, 50'000'000},
      {"child", 4, 1, 7, 90'000'000, 120'000'000},
  };
  const auto self = SelfTimesMs(spans);
  ExpectNear(self.at(1), 50, "parent self time");
  ExpectNear(self.at(2), 20, "leaf self time");
  Expect(DurationsMs(spans, "child").size() == 3, "durations by name");
}

void TestWorkloadTable() {
  for (const Workload& w : kWorkloads) {
    Expect(IsMetricName(w.name), std::string("workload name ") + w.name);
    Expect(std::string(w.why).size() <= 200, std::string("why of ") + w.name);
  }
}

}  // namespace

int RunSelfTest() {
  TestPercentiles();
  TestSupportedQuantile();
  TestLatencyHistogram();
  TestMetricNames();
  TestHistograms();
  TestSelfTime();
  TestWorkloadTable();
  std::printf("perfbench self-test: %s (%d failures)\n",
              g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
