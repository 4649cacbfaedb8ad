//===- perfbench/Workloads.h - The benchmark's workloads ----------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads, each a closed loop of requests through the
/// library's public API for a fixed wall time:
///
///  - stream-2d: one-shot Session::run requests on a diffusion2d chain;
///  - map-3d: tune a jacobi3d chain, then simulate the chosen mapping;
///  - serve-mixed: protocol lines through an in-process serve::Server.
///
/// Untraced runs report the end-to-end metrics; traced runs interleave
/// untraced requests with requests made of the same library calls one by
/// one, each inside a span, and report the per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_PERFBENCH_WORKLOADS_H
#define STENCILFLOW_PERFBENCH_WORKLOADS_H

#include "Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Where the traced run writes its spans (empty: nowhere).
  std::string SpanPath;
  /// Where to write per-request times (empty: nowhere).
  std::string DumpPath;
  Clock::time_point ProcessStart;
};

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

struct RunResult {
  bool Correct = true;
  std::string Why; ///< First check that failed.
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::vector<Metric> Metrics;

  /// Records a failed check (the first one is kept for the report).
  void fail(const std::string &Reason) {
    if (Correct)
      Why = Reason;
    Correct = false;
  }
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string> &workloadNames();

/// Runs \p Config.Workload; false when the name is unknown.
bool runWorkload(const RunConfig &Config, RunResult &Result);

} // namespace perfbench

#endif // STENCILFLOW_PERFBENCH_WORKLOADS_H
