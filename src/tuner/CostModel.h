//===- tuner/CostModel.h - Analytic candidate ranking -------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analytic cost model of the mapping autotuner. For each candidate it
/// replays the static half of the pipeline — fuse, compile, dataflow
/// analysis, partitioning — and combines
///
///  - the expected-runtime model C = L + N (Sec. VIII-A, Eq. 1),
///  - the utilization-derived frequency model (core/ResourceModel), using
///    the worst (most utilized) device of the partition, and
///  - bandwidth ceilings: per-device off-chip memory demand against
///    SimConfig's DRAM model, and per-hop remote-stream demand against the
///    link capacity (Sec. VI-B),
///
/// into a predicted cycle count and wall-clock seconds. Candidates that
/// fail any stage — illegal width, fusion failure, deadlocked/unsizable
/// buffers, or a partition exceeding capacity — are *pruned* (returned
/// infeasible with the stage's diagnostic), never errors: an infeasible
/// point is a normal part of the space.
///
/// With unconstrained memory and one device the prediction equals the
/// simulator's cycle count exactly (the simulator asserts this invariant
/// in tests/pipeline_test.cpp); bandwidth-constrained and multi-device
/// predictions are approximate, with the error bound pinned down by
/// tests/tuner_test.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_TUNER_COSTMODEL_H
#define STENCILFLOW_TUNER_COSTMODEL_H

#include "runtime/Pipeline.h"
#include "tuner/DesignSpace.h"

#include <cstdint>
#include <string>

namespace stencilflow {
namespace tuner {

/// The analytic verdict on one candidate mapping.
struct CandidateCost {
  /// False when the candidate was pruned; \c PruneReason says why.
  bool Feasible = false;
  std::string PruneReason;

  /// Eq. 1 cycles C = L + N, before bandwidth/network corrections.
  int64_t ModelCycles = 0;

  /// Predicted cycles including network latency and the dominant
  /// bandwidth slowdown of the streaming phase.
  int64_t PredictedCycles = 0;

  /// Clock frequency of the worst (most utilized) device.
  double FrequencyMHz = 0.0;

  /// PredictedCycles at FrequencyMHz, divided by the temporal degree —
  /// the ranking objective. A degree-T candidate's circuit advances T
  /// timesteps per pass, so candidates compete on seconds *per timestep*;
  /// PredictedCycles stays the raw per-pass count (it must match the
  /// simulator bit-for-bit in the single-device exactness invariant).
  double PredictedSeconds = 0.0;

  /// Timesteps unrolled on-chip by this candidate (the normalizer above).
  int TemporalDegree = 1;

  /// Streaming-phase slowdown factors (>= 1; 1 = not a bottleneck).
  double MemorySlowdown = 1.0;
  double NetworkSlowdown = 1.0;

  /// Devices the partitioner actually used (<= the mapping's budget).
  int Devices = 0;

  /// Highest utilization fraction across devices and resource classes.
  double PeakUtilization = 0.0;

  /// Fused pairs actually applied.
  int FusedPairs = 0;
};

/// Costs candidate mappings of one program under one base configuration.
/// Stateless apart from the (borrowed) program and options; \c cost may be
/// called from multiple threads.
class CostModel {
public:
  /// \p Program and \p Base must outlive the model.
  CostModel(const StencilProgram &Program, const PipelineOptions &Base)
      : Program(Program), Base(Base) {}

  /// Prices \p Mapping. Infeasible candidates come back with
  /// Feasible = false and a prune reason, not an error.
  CandidateCost cost(const CandidateMapping &Mapping) const;

private:
  const StencilProgram &Program;
  const PipelineOptions &Base;
};

} // namespace tuner
} // namespace stencilflow

#endif // STENCILFLOW_TUNER_COSTMODEL_H
