//===- perfbench/Checks.h - Independent output checks -------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stencil chains the benchmark sends, and the checks it holds their
/// outputs to. The checks never call the library's executors: each chain
/// is evaluated again here, naively, from its formulas, and every output
/// cell is also held to the L-infinity bound that zero boundaries impose
/// (for convex chains, the maximum principle |out| <= max |in|). Only the
/// inputs come from the library, through materializeInputs, which makes
/// data and computes nothing under test.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_PERFBENCH_CHECKS_H
#define STENCILFLOW_PERFBENCH_CHECKS_H

#include "ir/StencilProgram.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using FieldMap = std::map<std::string, std::vector<double>>;

/// The chain families the workloads draw from (workloads/Workloads.h).
enum class Family { Diffusion2d, Jacobi3d, Hotspot2d, Wave2d };

const char *familyName(Family F);

/// One stencil chain: family, length, grid and vector width, plus the
/// seed every input field is drawn from.
struct ChainSpec {
  Family Kind = Family::Diffusion2d;
  int Length = 1;
  std::vector<int64_t> Extents; ///< Outermost first; 2 or 3 entries.
  int VectorWidth = 1;
  uint64_t InputSeed = 1;
};

/// Builds \p Spec's program with the library's workload builders and
/// re-seeds its inputs from Spec.InputSeed.
stencilflow::StencilProgram buildChain(const ChainSpec &Spec);

/// The chain evaluated naively from its formulas, output by output, plus
/// the L-infinity bound every output cell must respect.
struct NaiveResult {
  FieldMap Outputs;
  double Bound = 0.0;
  double Scale = 1.0; ///< Magnitude the tolerance is relative to.
};

NaiveResult evaluateNaive(const ChainSpec &Spec, const FieldMap &Inputs);

/// Compares \p Actual with \p Naive: every cell within the bound, and
/// every cell at least \p Margin cells from each face within a float32
/// tolerance of the naive value. Returns an empty string when the outputs
/// pass, else what failed.
std::string checkOutputs(const ChainSpec &Spec, const NaiveResult &Naive,
                         const FieldMap &Actual, int64_t Margin = 0);

/// FNV-1a over output names and value bit patterns in \p Order: the
/// token a served response carries as outputs_crc.
uint64_t fnv1a(const std::vector<std::string> &Order, const FieldMap &Outputs);

/// Feeds the checks corrupted outputs (one cell off, the chain one step
/// short, one CRC bit flipped) and returns what was wrongly accepted;
/// empty when every corruption is rejected and the true outputs pass.
std::string selfTest();

} // namespace perfbench

#endif // STENCILFLOW_PERFBENCH_CHECKS_H
