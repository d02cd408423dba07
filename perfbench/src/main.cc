// perfbench: the repository benchmark. One run measures one workload and
// ends with a one-line JSON result; see README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//   perfbench --self-test

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n"
               "       perfbench --self-test\nworkloads:\n");
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, "  %-12s %s\n", w.name, w.why);
  }
  return 2;
}

bool ParseNumber(const char* text, double lo, double hi, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(value >= lo && value <= hi)) return false;
  *out = value;
  return true;
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return RunSelfTest();
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseNumber(value, 0, 1e15, &number)) {
      config.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds" && ParseNumber(value, 0.1, 600, &number)) {
      config.seconds = number;
    } else if (flag == "--trace" &&
               (std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0)) {
      config.trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: bad argument %s %s\n", flag.c_str(), value);
      return Usage();
    }
  }
  if (!have_workload) return Usage();
  for (const Workload& w : kWorkloads) {
    if (config.workload == w.name) {
      std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n  why: %s\n",
                  w.name, static_cast<unsigned long long>(config.seed),
                  config.seconds, config.trace ? 1 : 0, w.why);
      std::fflush(stdout);
      return w.run(config);
    }
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               config.workload.c_str());
  return Usage();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
