// perfbench_harness: runs one benchmark workload in this process and
// prints its metrics, ending with one JSON line. perfbench/run.py builds
// this binary and turns that line into the benchmark's result.
//
//   perfbench_harness --workload grid_detect|scale_aodv|replay_allpairs
//                     --seed N --seconds S [--trace 0|1] [--tiny]
//                     [--spans spans.json]
//   perfbench_harness --selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Checks of the harness's own statistics; exits non-zero on failure.
int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(samples_needed(0.9) == 100, "p90 needs 100 samples");
  expect(samples_needed(0.5) == 20, "p50 as a percentile needs 20 samples");
  expect(percentile(hundred, 0.9) == 90.0, "p90 of 1..100 is 90 (ten beyond)");
  expect(median(hundred) == 50.5, "median of 1..100");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of odd count");
  bool threw = false;
  try {
    percentile(std::vector<double>(hundred.begin(), hundred.begin() + 99), 0.9);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  expect(threw, "p90 of 99 samples is refused (only nine beyond)");
  std::printf("selftest %s\n", failures ? "FAILED" : "ok");
  return failures ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--selftest") return selftest();
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = value() != "0";
      } else if (arg == "--tiny") {
        opt.tiny = true;
      } else if (arg == "--spans") {
        opt.spans_path = value();
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
      return 2;
    }
  }
  if (!(opt.seconds > 0.0) || !std::isfinite(opt.seconds)) {
    std::fprintf(stderr, "perfbench_harness: --seconds must be positive\n");
    return 2;
  }

  // The benchmark never shares calibrations or artifacts with other runs:
  // every run calibrates cold, and a cache from another commit cannot leak
  // into its numbers.
  unsetenv("MANET_RATE_CACHE");
  unsetenv("MANET_ARTIFACTS");

  Tracer tracer;
  tracer.set_enabled(opt.trace);
  Report report;
  try {
    if (opt.workload == "grid_detect") {
      run_grid_detect(opt, tracer, report);
    } else if (opt.workload == "scale_aodv") {
      run_scale_aodv(opt, tracer, report);
    } else if (opt.workload == "replay_allpairs") {
      run_replay_allpairs(opt, tracer, report);
    } else {
      std::fprintf(stderr, "perfbench_harness: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
    if (opt.trace && !opt.spans_path.empty()) tracer.write(opt.spans_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  report.print(opt, tracer);
  return 0;
}
