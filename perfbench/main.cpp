//===- perfbench/main.cpp - Benchmark driver -----------------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// sf_perfbench --workload NAME --seed N --seconds S --trace 0|1
//              [--spans FILE] [--dump FILE]
//
// Runs one workload (perfbench/Workloads.h) for S seconds, checks every
// output, runs the checks' self-test, and prints one JSON object as its
// last line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// --seconds 0 makes the set-up alone, checked, and no timed request.
// --spans writes the traced run's spans as JSON lines; --dump writes the
// per-request times of the untraced requests. perfbench/run.py builds
// this driver from the checkout's sources and runs it.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "sf_perfbench: %s\nusage: sf_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--spans FILE] "
               "[--dump FILE]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Config;
  Config.ProcessStart = Clock::now();
  bool HaveWorkload = false, HaveSeconds = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    const char *Value = Argv[++I];
    if (Flag == "--workload") {
      Config.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      Config.Seed = std::strtoull(Value, nullptr, 10);
    } else if (Flag == "--seconds") {
      char *End = nullptr;
      Config.Seconds = std::strtod(Value, &End);
      HaveSeconds = End != Value && *End == '\0' && Config.Seconds >= 0.0;
    } else if (Flag == "--trace") {
      Config.Trace = std::strcmp(Value, "0") != 0;
    } else if (Flag == "--spans") {
      Config.SpanPath = Value;
    } else if (Flag == "--dump") {
      Config.DumpPath = Value;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeconds)
    return usage("--workload and a non-negative --seconds are required");

  RunResult Result;
  if (!runWorkload(Config, Result))
    return usage(("unknown workload " + Config.Workload).c_str());

  // The checks prove themselves on every run, after the timed phase.
  if (std::string Why = selfTest(); !Why.empty())
    Result.fail("self-test: " + Why);
  if (!Result.Correct)
    std::fprintf(stderr, "sf_perfbench: check failed: %s\n",
                 Result.Why.c_str());

  std::string Metrics;
  for (const Metric &M : Result.Metrics) {
    if (!Metrics.empty())
      Metrics += ", ";
    // A value that is not finite comes only from a failed run, which
    // already reads correct = false.
    char Value[64];
    std::snprintf(Value, sizeof Value, "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    Metrics += "\"" + M.Name + "\": {\"value\": " + Value +
               ", \"unit\": \"" + M.Unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}",
              Result.Correct ? "true" : "false",
              static_cast<long long>(Result.Attempted),
              static_cast<long long>(Result.Failed), Metrics.c_str());
  std::printf("}\n");
  return 0;
}
