//===- tuner/TuningReport.cpp - Machine-readable tuning results ---------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tuner/TuningReport.h"

#include "support/JsonWriter.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>

using namespace stencilflow;
using namespace stencilflow::tuner;

std::vector<size_t>
stencilflow::tuner::paretoFront(const std::vector<CandidateRecord> &Records) {
  auto Dominates = [](const CandidateCost &A, const CandidateCost &B) {
    bool NoWorse = A.PredictedSeconds <= B.PredictedSeconds &&
                   A.Devices <= B.Devices &&
                   A.PeakUtilization <= B.PeakUtilization;
    bool Better = A.PredictedSeconds < B.PredictedSeconds ||
                  A.Devices < B.Devices ||
                  A.PeakUtilization < B.PeakUtilization;
    return NoWorse && Better;
  };
  std::vector<size_t> Front;
  for (size_t I = 0; I != Records.size(); ++I) {
    if (!Records[I].Cost.Feasible)
      continue;
    bool Dominated = false;
    for (size_t J = 0; J != Records.size() && !Dominated; ++J)
      Dominated = J != I && Records[J].Cost.Feasible &&
                  Dominates(Records[J].Cost, Records[I].Cost);
    if (!Dominated)
      Front.push_back(I);
  }
  return Front;
}

void stencilflow::tuner::calibrateSlowdowns(TuningReport &Report) {
  // Calibration samples: simulated, feasible, non-failed candidates. A
  // sample is memory-class when the memory slowdown dominates (ties go to
  // memory — both at 1 means no correction and the sample is inert).
  struct Accumulator {
    double SumExtraSq = 0.0, SumExtraResidual = 0.0;
    int Samples = 0;
  } Memory, Network;
  auto IsSample = [](const CandidateRecord &R) {
    return R.Simulated && R.SimulationError.empty() &&
           R.SimulatedCycles > 0 && R.Cost.Feasible;
  };
  auto IsMemoryBound = [](const CandidateRecord &R) {
    return R.Cost.MemorySlowdown >= R.Cost.NetworkSlowdown;
  };
  for (const CandidateRecord &R : Report.Candidates) {
    if (!IsSample(R))
      continue;
    double Extra = static_cast<double>(R.Cost.PredictedCycles) -
                   static_cast<double>(R.Cost.ModelCycles);
    double Residual = static_cast<double>(R.SimulatedCycles) -
                      static_cast<double>(R.Cost.ModelCycles);
    Accumulator &Acc = IsMemoryBound(R) ? Memory : Network;
    ++Acc.Samples;
    if (Extra <= 0.0)
      continue; // No correction to scale; contributes nothing to the fit.
    Acc.SumExtraSq += Extra * Extra;
    Acc.SumExtraResidual += Extra * Residual;
  }

  SlowdownCalibration &C = Report.Calibration;
  C.MemorySamples = Memory.Samples;
  C.NetworkSamples = Network.Samples;
  // Closed-form least squares; a negative fit (simulator faster than the
  // uncorrected model) clamps to 0 rather than predicting a speedup from
  // congestion.
  if (Memory.SumExtraSq > 0.0) {
    C.MemoryFactor = std::max(0.0, Memory.SumExtraResidual / Memory.SumExtraSq);
    C.Fitted = true;
  }
  if (Network.SumExtraSq > 0.0) {
    C.NetworkFactor =
        std::max(0.0, Network.SumExtraResidual / Network.SumExtraSq);
    C.Fitted = true;
  }

  double ErrBefore = 0.0, ErrAfter = 0.0;
  int Samples = 0;
  for (CandidateRecord &R : Report.Candidates) {
    if (!IsSample(R))
      continue;
    double Factor = IsMemoryBound(R) ? C.MemoryFactor : C.NetworkFactor;
    double Extra = static_cast<double>(R.Cost.PredictedCycles) -
                   static_cast<double>(R.Cost.ModelCycles);
    R.CalibratedPredictedCycles =
        static_cast<double>(R.Cost.ModelCycles) + Factor * std::max(0.0, Extra);
    R.CalibratedErrorPct =
        100.0 * std::abs(R.CalibratedPredictedCycles -
                         static_cast<double>(R.SimulatedCycles)) /
        static_cast<double>(R.SimulatedCycles);
    ErrBefore += R.ModelErrorPct;
    ErrAfter += R.CalibratedErrorPct;
    ++Samples;
  }
  if (Samples > 0) {
    C.MeanErrorPctBefore = ErrBefore / Samples;
    C.MeanErrorPctAfter = ErrAfter / Samples;
  }
}

namespace {

void writeCandidate(json::JsonWriter &W, const CandidateRecord &R) {
  W.beginObject();
  W.attribute("id", R.Mapping.id());
  W.attribute("vector_width", R.Mapping.VectorWidth);
  W.attribute("fusion_pairs", R.Mapping.FusionPairs);
  W.attribute("max_devices", R.Mapping.MaxDevices);
  W.attribute("target_utilization", R.Mapping.TargetUtilization);
  W.attribute("temporal_degree", R.Mapping.TemporalDegree);
  W.attribute("round", R.Round);
  W.attribute("feasible", R.Cost.Feasible);
  if (!R.Cost.Feasible) {
    W.attribute("prune_reason", R.Cost.PruneReason);
  } else {
    W.attribute("model_cycles", R.Cost.ModelCycles);
    W.attribute("predicted_cycles", R.Cost.PredictedCycles);
    W.attribute("predicted_seconds", R.Cost.PredictedSeconds);
    W.attribute("frequency_mhz", R.Cost.FrequencyMHz);
    W.attribute("memory_slowdown", R.Cost.MemorySlowdown);
    W.attribute("network_slowdown", R.Cost.NetworkSlowdown);
    W.attribute("devices", R.Cost.Devices);
    W.attribute("peak_utilization", R.Cost.PeakUtilization);
  }
  W.attribute("simulated", R.Simulated);
  if (R.Simulated) {
    if (!R.SimulationError.empty()) {
      W.attribute("simulation_error", R.SimulationError);
    } else {
      W.attribute("validation_passed", R.ValidationPassed);
      W.attribute("simulated_cycles", R.SimulatedCycles);
      W.attribute("simulated_seconds", R.SimulatedSeconds);
      W.attribute("model_error_pct", R.ModelErrorPct);
      if (R.CalibratedPredictedCycles > 0.0) {
        W.attribute("calibrated_predicted_cycles",
                    R.CalibratedPredictedCycles);
        W.attribute("calibrated_error_pct", R.CalibratedErrorPct);
      }
    }
  }
  W.endObject();
}

} // namespace

std::string TuningReport::toJson() const {
  std::string Out;
  json::JsonWriter W(Out);
  W.beginObject();
  W.attribute("program", ProgramName);
  W.attribute("search", SearchKind);
  W.attribute("seed", static_cast<int64_t>(Seed));
  W.attribute("space_size", SpaceSize);
  W.attribute("explored", Explored);
  W.attribute("pruned", Pruned);
  W.attribute("simulated", SimulatedCount);
  W.key("candidates");
  W.beginArray();
  for (const CandidateRecord &R : Candidates)
    writeCandidate(W, R);
  W.endArray();
  W.key("pareto_front");
  W.beginArray();
  for (size_t Index : ParetoFront)
    W.value(Index);
  W.endArray();
  W.key("calibration");
  W.beginObject();
  W.attribute("fitted", Calibration.Fitted);
  W.attribute("memory_factor", Calibration.MemoryFactor);
  W.attribute("network_factor", Calibration.NetworkFactor);
  W.attribute("memory_samples",
              static_cast<int64_t>(Calibration.MemorySamples));
  W.attribute("network_samples",
              static_cast<int64_t>(Calibration.NetworkSamples));
  W.attribute("mean_error_pct_before", Calibration.MeanErrorPctBefore);
  W.attribute("mean_error_pct_after", Calibration.MeanErrorPctAfter);
  W.endObject();
  W.attribute("best_index", static_cast<int64_t>(BestIndex));
  W.attribute("default_index", static_cast<int64_t>(DefaultIndex));
  if (const CandidateRecord *B = best())
    W.attribute("best", B->Mapping.id());
  if (const CandidateRecord *D = defaultCandidate())
    W.attribute("default", D->Mapping.id());
  W.endObject();
  return Out;
}

std::string TuningReport::summary() const {
  std::string Out = formatString(
      "tuned '%s': %s search over %zu-point space, %zu explored "
      "(%zu pruned), %zu simulated, %zu on the Pareto front\n",
      ProgramName.c_str(), SearchKind.c_str(), SpaceSize, Explored, Pruned,
      SimulatedCount, ParetoFront.size());
  const CandidateRecord *B = best();
  const CandidateRecord *D = defaultCandidate();
  if (B)
    Out += formatString(
        "best: %s — %lld simulated cycles at %.0f MHz on %d device(s), "
        "peak utilization %.0f%%, model error %.2f%%\n",
        B->Mapping.id().c_str(),
        static_cast<long long>(B->SimulatedCycles), B->Cost.FrequencyMHz,
        B->Cost.Devices, B->Cost.PeakUtilization * 100.0, B->ModelErrorPct);
  if (B && D && D->SimulatedCycles > 0 && B->SimulatedCycles > 0 && B != D)
    Out += formatString(
        "default %s: %lld simulated cycles — speedup %.2fx\n",
        D->Mapping.id().c_str(),
        static_cast<long long>(D->SimulatedCycles),
        static_cast<double>(D->SimulatedCycles) /
            static_cast<double>(B->SimulatedCycles));
  if (Calibration.Fitted)
    Out += formatString(
        "calibration: memory x%.3f (%d sample(s)), network x%.3f "
        "(%d sample(s)), mean model error %.2f%% -> %.2f%%\n",
        Calibration.MemoryFactor, Calibration.MemorySamples,
        Calibration.NetworkFactor, Calibration.NetworkSamples,
        Calibration.MeanErrorPctBefore, Calibration.MeanErrorPctAfter);
  return Out;
}
