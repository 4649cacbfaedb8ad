//===- tests/tuner_test.cpp - Mapping autotuner tests --------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The mapping autotuner (src/tuner/): design-space enumeration, the
// fusion-level knob, seeded-search determinism, Pareto-front invariants,
// feasibility of every emitted plan against the resource and deadlock
// analyses, the predicted-vs-simulated error bound, and tuned-vs-default
// speedups on the paper workloads.
//
//===----------------------------------------------------------------------===//

#include "tuner/Tuner.h"

#include "runtime/Session.h"
#include "sdfg/StencilFusion.h"
#include "support/Json.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace stencilflow;
using namespace stencilflow::tuner;

namespace {

/// Model error bound asserted on the paper workloads (documented in
/// docs/autotuner.md): with unconstrained memory the analytic model and
/// the simulator agree to within this percentage on every simulated
/// candidate, and exactly on single-device plans.
constexpr double ModelErrorBoundPct = 10.0;

/// Small paper workloads, sized so a full tuning run (search + top-K
/// simulation) stays in unit-test territory.
StencilProgram smallJacobi() {
  return workloads::jacobi3dChain(3, 4, 8, 16);
}
StencilProgram smallDiffusion() {
  return workloads::diffusion2dChain(3, 16, 32);
}

PipelineOptions baseOptions() {
  PipelineOptions Base;
  Base.Simulator.UnconstrainedMemory = true;
  return Base;
}

TuningOutcome tuneOrDie(StencilProgram Program, const TuneOptions &Options,
                        const PipelineOptions &Base = baseOptions()) {
  Expected<TuningOutcome> Out = tuneProgram(Program, Base, Options);
  EXPECT_TRUE(Out) << (Out ? "" : Out.message());
  return Out.takeValue();
}

/// Flattens the observable search trajectory for determinism comparisons.
std::string trajectoryOf(const TuningReport &Report) {
  std::string Out = Report.SearchKind + ";";
  for (const CandidateRecord &R : Report.Candidates)
    Out += R.Mapping.id() + ":" + std::to_string(R.Round) +
           (R.Cost.Feasible ? "" : "!") + (R.Simulated ? "*" : "") + ";";
  if (const CandidateRecord *Best = Report.best())
    Out += "best=" + Best->Mapping.id();
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Fusion-level knob (sdfg::fuseStencilsUpTo)
//===----------------------------------------------------------------------===//

TEST(TunerTest, FusionLevelsArePrefixesOfAggressive) {
  // Level k must reproduce the first k steps of the aggressive pass;
  // level >= max degenerates to fuseAllStencils; level 0 is a no-op.
  StencilProgram Probe = smallDiffusion();
  Expected<FusionReport> All = fuseAllStencils(Probe);
  ASSERT_TRUE(All) << All.message();
  ASSERT_GT(All->FusedPairs, 1);

  StencilProgram None = smallDiffusion();
  Expected<FusionReport> Zero = fuseStencilsUpTo(None, 0);
  ASSERT_TRUE(Zero) << Zero.message();
  EXPECT_EQ(Zero->FusedPairs, 0);
  EXPECT_EQ(None.Nodes.size(), smallDiffusion().Nodes.size());

  for (int Level = 1; Level <= All->FusedPairs; ++Level) {
    StencilProgram Partial = smallDiffusion();
    Expected<FusionReport> Report = fuseStencilsUpTo(Partial, Level);
    ASSERT_TRUE(Report) << Report.message();
    EXPECT_EQ(Report->FusedPairs, Level);
    // The log must be a prefix of the aggressive trajectory.
    ASSERT_LE(Report->Log.size(), All->Log.size());
    for (size_t I = 0; I != Report->Log.size(); ++I)
      EXPECT_EQ(Report->Log[I], All->Log[I]) << "step " << I;
    EXPECT_EQ(Partial.Nodes.size(),
              smallDiffusion().Nodes.size() - static_cast<size_t>(Level));
  }
}

//===----------------------------------------------------------------------===//
// Design space
//===----------------------------------------------------------------------===//

TEST(TunerTest, DesignSpaceRespectsDivisibilityAndCaps) {
  StencilProgram P = workloads::diffusion2dChain(2, 16, 12); // I = 12.
  Expected<DesignSpace> Space =
      DesignSpace::enumerate(P, DesignSpaceOptions(), /*MaxDevicesCap=*/4);
  ASSERT_TRUE(Space) << Space.message();
  // Of {1,2,4,8} only the divisors of 12 survive.
  EXPECT_EQ(Space->vectorWidths(), (std::vector<int>{1, 2, 4}));
  for (int D : Space->deviceCounts())
    EXPECT_LE(D, 4);
  // Without an explicit temporal axis the space keeps degree 1, so its
  // size (and every candidate id) is unchanged from the 4-axis days.
  EXPECT_EQ(Space->temporalDegrees(), (std::vector<int>{1}));
  EXPECT_EQ(Space->size(), Space->vectorWidths().size() *
                               Space->fusionLevels().size() *
                               Space->deviceCounts().size() *
                               Space->targetUtilizations().size() *
                               Space->temporalDegrees().size());
  // Enumeration order is deterministic lexicographic.
  std::vector<std::string> Ids;
  for (const CandidateMapping &M : Space->candidates())
    Ids.push_back(M.id());
  EXPECT_TRUE(std::adjacent_find(Ids.begin(), Ids.end()) == Ids.end());
}

TEST(TunerTest, TemporalDegreeAxisExpandsTheSpace) {
  StencilProgram P = workloads::diffusion2dChain(2, 16, 12);
  DesignSpaceOptions Options;
  Options.TemporalDegrees = {1, 2, 4};
  Expected<DesignSpace> Space =
      DesignSpace::enumerate(P, Options, /*MaxDevicesCap=*/4);
  ASSERT_TRUE(Space) << Space.message();
  EXPECT_EQ(Space->temporalDegrees(), (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(Space->size(), Space->vectorWidths().size() *
                               Space->fusionLevels().size() *
                               Space->deviceCounts().size() *
                               Space->targetUtilizations().size() * 3u);
  // Ids stay unique, and only degrees above 1 carry the -T suffix — the
  // degree-1 candidates keep their golden ids from the smaller spaces.
  std::vector<std::string> Ids;
  size_t Suffixed = 0;
  for (const CandidateMapping &M : Space->candidates()) {
    Ids.push_back(M.id());
    bool HasSuffix = M.id().find("-T") != std::string::npos;
    EXPECT_EQ(HasSuffix, M.TemporalDegree > 1) << M.id();
    Suffixed += HasSuffix ? 1 : 0;
  }
  EXPECT_EQ(Suffixed, Space->size() / 3 * 2);
  std::sort(Ids.begin(), Ids.end());
  EXPECT_TRUE(std::adjacent_find(Ids.begin(), Ids.end()) == Ids.end());

  // closestIndices snaps the degree axis to the nearest value.
  size_t Index[5];
  Space->closestIndices(CandidateMapping{1, 0, 1, 0.85, 4}, Index);
  EXPECT_EQ(
      Space->at(Index[0], Index[1], Index[2], Index[3], Index[4])
          .TemporalDegree,
      4);

  // applyMapping unrolls: a degree-4 mapping quadruples the node count
  // (diffusion2dChain(2) has no dead copies — both steps feed the chain).
  CandidateMapping Unrolled;
  Unrolled.TemporalDegree = 4;
  Expected<StencilProgram> Applied = applyMapping(P, Unrolled);
  ASSERT_TRUE(Applied) << Applied.message();
  EXPECT_EQ(Applied->Nodes.size(), P.Nodes.size() * 4);
  EXPECT_EQ(Applied->TimeLoop.size(), P.TimeLoop.size());
}

TEST(TunerTest, TemporalAxisRequiresTimeLoopBindings) {
  StencilProgram P = workloads::diffusion2dChain(2, 16, 12);
  P.TimeLoop.clear();
  DesignSpaceOptions Options;
  Options.TemporalDegrees = {1, 2};
  Expected<DesignSpace> Space =
      DesignSpace::enumerate(P, Options, /*MaxDevicesCap=*/4);
  ASSERT_FALSE(Space);
  EXPECT_EQ(Space.code(), ErrorCode::InvalidInput);
  // Degree 1 alone stays legal on a loop-free program.
  Options.TemporalDegrees = {1};
  EXPECT_TRUE(DesignSpace::enumerate(P, Options, 4));
}

TEST(TunerTest, ExplicitAxisVectorsRejectMalformedEntries) {
  // Satellite contract: explicitly provided axis vectors are validated —
  // non-positive entries and duplicates are typed InvalidInput errors,
  // not silently enumerated (or silently dropped like derived defaults).
  StencilProgram P = workloads::diffusion2dChain(2, 16, 12);
  auto Enumerate = [&](const DesignSpaceOptions &O) {
    return DesignSpace::enumerate(P, O, /*MaxDevicesCap=*/4);
  };

  struct BadCase {
    const char *Label;
    DesignSpaceOptions Options;
  };
  std::vector<BadCase> Bad;
  Bad.push_back({"zero width", {}});
  Bad.back().Options.VectorWidths = {0, 1};
  Bad.push_back({"duplicate width", {}});
  Bad.back().Options.VectorWidths = {2, 2};
  Bad.push_back({"negative fusion level", {}});
  Bad.back().Options.FusionLevels = {-1};
  Bad.push_back({"duplicate fusion level", {}});
  Bad.back().Options.FusionLevels = {0, 0};
  Bad.push_back({"zero device count", {}});
  Bad.back().Options.DeviceCounts = {0};
  Bad.push_back({"duplicate device count", {}});
  Bad.back().Options.DeviceCounts = {2, 2};
  Bad.push_back({"zero utilization", {}});
  Bad.back().Options.TargetUtilizations = {0.0};
  Bad.push_back({"utilization above one", {}});
  Bad.back().Options.TargetUtilizations = {1.5};
  Bad.push_back({"duplicate utilization", {}});
  Bad.back().Options.TargetUtilizations = {0.85, 0.85};
  Bad.push_back({"zero temporal degree", {}});
  Bad.back().Options.TemporalDegrees = {0};
  Bad.push_back({"negative temporal degree", {}});
  Bad.back().Options.TemporalDegrees = {-2};
  Bad.push_back({"duplicate temporal degree", {}});
  Bad.back().Options.TemporalDegrees = {2, 2};
  for (const BadCase &C : Bad) {
    Expected<DesignSpace> Space = Enumerate(C.Options);
    EXPECT_FALSE(Space) << C.Label;
    if (!Space)
      EXPECT_EQ(Space.code(), ErrorCode::InvalidInput) << C.Label;
  }

  // Out-of-range-but-positive entries in explicit vectors keep the silent
  // per-program filtering (a width of 5 does not divide 12; a device
  // count above the cap is dropped) — those are program facts, not
  // malformed configuration.
  DesignSpaceOptions Filtered;
  Filtered.VectorWidths = {1, 5};
  Filtered.DeviceCounts = {1, 8};
  Expected<DesignSpace> Space = Enumerate(Filtered);
  ASSERT_TRUE(Space) << Space.message();
  EXPECT_EQ(Space->vectorWidths(), (std::vector<int>{1}));
  EXPECT_EQ(Space->deviceCounts(), (std::vector<int>{1}));
}

TEST(TunerTest, CandidatesRunUnderTheBaseKernelTier) {
  // The kernel tier is not a mapping axis: a scalar-tier base must give
  // the same trajectory, ids and winner as the default tier, with every
  // candidate carrying the base tier and the report no per-candidate
  // tier attribute.
  TuneOptions Opts;
  Opts.Search.CandidateBudget = 12;
  Opts.TopK = 2;
  TuningOutcome Default = tuneOrDie(smallDiffusion(), Opts);
  PipelineOptions Base = baseOptions();
  Base.Simulator.KernelExec = compute::KernelEngine::Scalar;
  TuningOutcome Scalar = tuneOrDie(smallDiffusion(), Opts, Base);
  EXPECT_TRUE(Scalar.BestRun.ValidationPassed);
  EXPECT_EQ(Scalar.Best.KernelExec, compute::KernelEngine::Scalar);
  EXPECT_EQ(trajectoryOf(Scalar.Report), trajectoryOf(Default.Report));
  for (const CandidateRecord &R : Scalar.Report.Candidates) {
    EXPECT_EQ(R.Mapping.id().find("-K"), std::string::npos) << R.Mapping.id();
    EXPECT_EQ(R.Mapping.KernelExec, compute::KernelEngine::Scalar);
  }

  Expected<json::Value> Doc = json::parse(Scalar.Report.toJson());
  ASSERT_TRUE(Doc) << Doc.message();
  for (const json::Value &V :
       Doc->getObject().get("candidates")->getArray())
    EXPECT_FALSE(V.getObject().contains("kernel_engine"));
}

TEST(TunerTest, TunesAcrossTemporalDegreeAxis) {
  // End-to-end with the temporal axis opted in under the constrained
  // memory model (where blocking actually pays): the search explores
  // degrees above 1, the winning plan validates bit-exactly, the report
  // serializes temporal_degree per candidate, and reruns with the same
  // seed are bit-identical.
  TuneOptions Opts;
  Opts.Search.CandidateBudget = 16;
  Opts.TopK = 3;
  Opts.Space.TemporalDegrees = {1, 2, 4};
  PipelineOptions Base = baseOptions();
  Base.Simulator.UnconstrainedMemory = false;
  TuningOutcome Out = tuneOrDie(smallDiffusion(), Opts, Base);
  EXPECT_TRUE(Out.BestRun.ValidationPassed);
  bool SawDegree = false;
  for (const CandidateRecord &R : Out.Report.Candidates) {
    SawDegree |= R.Mapping.TemporalDegree > 1;
    // The ranking objective is per-timestep: feasible degree-T
    // candidates report PredictedCycles amortized over T in seconds.
    if (R.Cost.Feasible)
      EXPECT_NEAR(R.Cost.PredictedSeconds,
                  static_cast<double>(R.Cost.PredictedCycles) /
                      (R.Cost.FrequencyMHz * 1e6 *
                       R.Mapping.TemporalDegree),
                  1e-12)
          << R.Mapping.id();
  }
  EXPECT_TRUE(SawDegree);

  Expected<json::Value> Doc = json::parse(Out.Report.toJson());
  ASSERT_TRUE(Doc) << Doc.message();
  for (const json::Value &V :
       Doc->getObject().get("candidates")->getArray()) {
    const json::Object &Obj = V.getObject();
    ASSERT_TRUE(Obj.contains("temporal_degree"));
    int Degree = static_cast<int>(Obj.get("temporal_degree")->getInteger());
    std::string Id = Obj.get("id")->getString();
    EXPECT_EQ(Degree > 1, Id.find("-T") != std::string::npos) << Id;
  }

  TuningOutcome Again = tuneOrDie(smallDiffusion(), Opts, Base);
  EXPECT_EQ(Out.Best.id(), Again.Best.id());
  EXPECT_EQ(trajectoryOf(Out.Report), trajectoryOf(Again.Report));
  EXPECT_EQ(Out.Report.toJson(), Again.Report.toJson());
}

TEST(TunerTest, ApplyMappingRejectsIllegalWidth) {
  StencilProgram P = workloads::diffusion2dChain(2, 16, 12);
  Expected<StencilProgram> Applied =
      applyMapping(P, CandidateMapping{/*W=*/5, 0, 1, 0.85});
  EXPECT_FALSE(Applied);
}

//===----------------------------------------------------------------------===//
// Seeded-search determinism
//===----------------------------------------------------------------------===//

TEST(TunerTest, SameSeedSameSpaceSamePlanAndReport) {
  TuneOptions Opts;
  Opts.Search.CandidateBudget = 24; // Below the space size: beam search.
  Opts.Search.Seed = 1234;
  TuningOutcome A = tuneOrDie(smallDiffusion(), Opts);
  EXPECT_EQ(A.Report.SearchKind, "beam");

  // Re-run with the same seed but a different worker count: the plan, the
  // trajectory, and the serialized report must be bit-identical.
  Opts.Workers = 3;
  TuningOutcome B = tuneOrDie(smallDiffusion(), Opts);
  EXPECT_EQ(A.Best.id(), B.Best.id());
  EXPECT_EQ(trajectoryOf(A.Report), trajectoryOf(B.Report));
  EXPECT_EQ(A.Report.toJson(), B.Report.toJson());

  // The seed reaches the report (the CLI plumbs --seed/--tune-seed into
  // Search.Seed; a hardcoded seed would make those flags silent no-ops).
  EXPECT_EQ(A.Report.Seed, 1234u);
  Opts.Workers = 0;
  Opts.Search.Seed = 4321;
  TuningOutcome C = tuneOrDie(smallDiffusion(), Opts);
  EXPECT_EQ(C.Report.Seed, 4321u);
  // And identical (seed, space) stays deterministic for the new seed too.
  TuningOutcome D = tuneOrDie(smallDiffusion(), Opts);
  EXPECT_EQ(trajectoryOf(C.Report), trajectoryOf(D.Report));
  EXPECT_EQ(C.Report.toJson(), D.Report.toJson());
}

TEST(TunerTest, ExhaustiveSweepCoversTheWholeSpace) {
  TuneOptions Opts;
  Opts.Search.CandidateBudget = 4096;
  TuningOutcome Out = tuneOrDie(smallDiffusion(), Opts);
  EXPECT_EQ(Out.Report.SearchKind, "exhaustive");
  EXPECT_EQ(Out.Report.Explored, Out.Report.SpaceSize);
  // Exhaustive runs are trivially seed-independent (the report still
  // records the seed, so compare the trajectory, not the raw JSON).
  Opts.Search.Seed = 999;
  TuningOutcome Again = tuneOrDie(smallDiffusion(), Opts);
  EXPECT_EQ(Out.Best.id(), Again.Best.id());
  EXPECT_EQ(trajectoryOf(Out.Report), trajectoryOf(Again.Report));
}

//===----------------------------------------------------------------------===//
// Pareto-front invariants
//===----------------------------------------------------------------------===//

TEST(TunerTest, ParetoFrontHasNoDominatedCandidate) {
  TuneOptions Opts;
  Opts.Search.CandidateBudget = 4096;
  TuningOutcome Out = tuneOrDie(smallJacobi(), Opts);
  const std::vector<CandidateRecord> &C = Out.Report.Candidates;
  const std::vector<size_t> &Front = Out.Report.ParetoFront;
  ASSERT_FALSE(Front.empty());

  auto Dominates = [](const CandidateCost &A, const CandidateCost &B) {
    return A.PredictedSeconds <= B.PredictedSeconds &&
           A.Devices <= B.Devices &&
           A.PeakUtilization <= B.PeakUtilization &&
           (A.PredictedSeconds < B.PredictedSeconds ||
            A.Devices < B.Devices || A.PeakUtilization < B.PeakUtilization);
  };
  for (size_t I : Front) {
    ASSERT_LT(I, C.size());
    EXPECT_TRUE(C[I].Cost.Feasible);
    for (const CandidateRecord &Other : C)
      if (Other.Cost.Feasible) {
        EXPECT_FALSE(Dominates(Other.Cost, C[I].Cost))
            << Other.Mapping.id() << " dominates front member "
            << C[I].Mapping.id();
      }
  }
  // Conversely, every feasible non-member is dominated by someone.
  for (size_t I = 0; I != C.size(); ++I) {
    if (!C[I].Cost.Feasible ||
        std::find(Front.begin(), Front.end(), I) != Front.end())
      continue;
    bool Dominated = false;
    for (const CandidateRecord &Other : C)
      Dominated |= Other.Cost.Feasible && Dominates(Other.Cost, C[I].Cost);
    EXPECT_TRUE(Dominated) << C[I].Mapping.id();
  }
}

//===----------------------------------------------------------------------===//
// Every emitted plan is feasible
//===----------------------------------------------------------------------===//

TEST(TunerTest, FeasibleCandidatesPassResourceAndDeadlockChecks) {
  TuneOptions Opts;
  Opts.Search.CandidateBudget = 4096;
  PipelineOptions Base = baseOptions();
  StencilProgram Program = smallJacobi();
  TuningOutcome Out = tuneOrDie(Program.clone(), Opts, Base);

  for (const CandidateRecord &R : Out.Report.Candidates) {
    if (!R.Cost.Feasible)
      continue;
    // Re-derive the plan from scratch: the mapping must re-apply, the
    // buffer analysis must prove deadlock freedom, and the partition must
    // respect the ResourceModel capacity on every device.
    Expected<StencilProgram> Applied = applyMapping(Program, R.Mapping);
    ASSERT_TRUE(Applied) << R.Mapping.id() << ": " << Applied.message();
    Expected<CompiledProgram> Compiled =
        CompiledProgram::compile(Applied.takeValue(), Base.Kernel);
    ASSERT_TRUE(Compiled) << R.Mapping.id() << ": " << Compiled.message();
    Expected<DataflowAnalysis> Dataflow =
        analyzeDataflow(*Compiled, Base.Latencies);
    ASSERT_TRUE(Dataflow) << R.Mapping.id() << ": " << Dataflow.message();

    PartitionOptions PartOpts = Base.Partitioning;
    PartOpts.MaxDevices = R.Mapping.MaxDevices;
    PartOpts.TargetUtilization = R.Mapping.TargetUtilization;
    Expected<Partition> Placement =
        partitionProgram(*Compiled, *Dataflow, PartOpts);
    ASSERT_TRUE(Placement) << R.Mapping.id() << ": " << Placement.message();
    EXPECT_EQ(static_cast<int>(Placement->numDevices()), R.Cost.Devices)
        << R.Mapping.id();
    EXPECT_LE(R.Cost.Devices, R.Mapping.MaxDevices) << R.Mapping.id();
    for (const DevicePlacement &Device : Placement->Devices)
      EXPECT_TRUE(Device.Resources.fitsWithin(PartOpts.Device))
          << R.Mapping.id();
    EXPECT_LE(R.Cost.PeakUtilization, 1.0) << R.Mapping.id();
  }
}

//===----------------------------------------------------------------------===//
// Predicted vs simulated, tuned vs default
//===----------------------------------------------------------------------===//

TEST(TunerTest, ModelErrorWithinBoundAndTunedBeatsDefault) {
  // Acceptance criteria on two paper workloads: the tuned plan's
  // simulated cycles beat the default (W=1, unfused) mapping, the winning
  // plan validates bit-exactly (Tolerance = 0) against the reference
  // executor, and the model error stays within the documented bound.
  struct Case {
    const char *Name;
    StencilProgram Program;
  } Cases[] = {{"jacobi3d", smallJacobi()},
               {"diffusion2d", smallDiffusion()}};
  for (Case &C : Cases) {
    TuneOptions Opts;
    Opts.TopK = 3;
    TuningOutcome Out = tuneOrDie(std::move(C.Program), Opts);
    const CandidateRecord *Best = Out.Report.best();
    const CandidateRecord *Default = Out.Report.defaultCandidate();
    ASSERT_NE(Best, nullptr) << C.Name;
    ASSERT_NE(Default, nullptr) << C.Name;
    ASSERT_TRUE(Default->Simulated) << C.Name;

    EXPECT_TRUE(Best->ValidationPassed) << C.Name;
    EXPECT_TRUE(Out.BestRun.ValidationPassed) << C.Name;
    EXPECT_LT(Best->SimulatedCycles, Default->SimulatedCycles) << C.Name;

    for (const CandidateRecord &R : Out.Report.Candidates) {
      if (!R.Simulated || !R.SimulationError.empty())
        continue;
      EXPECT_LE(R.ModelErrorPct, ModelErrorBoundPct)
          << C.Name << " " << R.Mapping.id();
      // Single-device plans under unconstrained memory are predicted
      // exactly (the Eq. 1 invariant the simulator asserts).
      if (R.Cost.Devices == 1) {
        EXPECT_EQ(R.Cost.PredictedCycles, R.SimulatedCycles)
            << C.Name << " " << R.Mapping.id();
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Slowdown calibration
//===----------------------------------------------------------------------===//

namespace {

/// A synthetic simulated candidate for calibration fitting.
CandidateRecord calibrationSample(double MemorySlowdown,
                                  double NetworkSlowdown,
                                  int64_t ModelCycles,
                                  int64_t PredictedCycles,
                                  int64_t SimulatedCycles) {
  CandidateRecord R;
  R.Cost.Feasible = true;
  R.Cost.ModelCycles = ModelCycles;
  R.Cost.PredictedCycles = PredictedCycles;
  R.Cost.MemorySlowdown = MemorySlowdown;
  R.Cost.NetworkSlowdown = NetworkSlowdown;
  R.Simulated = true;
  R.SimulatedCycles = SimulatedCycles;
  R.ModelErrorPct = 100.0 *
                    std::abs(static_cast<double>(PredictedCycles) -
                             static_cast<double>(SimulatedCycles)) /
                    static_cast<double>(SimulatedCycles);
  return R;
}

} // namespace

TEST(TunerTest, CalibrationFitsSyntheticResiduals) {
  // Two memory-bound samples whose simulator needs exactly half the
  // model's correction, and one network-bound sample needing a quarter:
  // the closed-form fit must recover 0.5 / 0.25 and drive the calibrated
  // error to zero.
  TuningReport Report;
  Report.Candidates.push_back(calibrationSample(2.0, 1.0, 1000, 2000, 1500));
  Report.Candidates.push_back(calibrationSample(2.0, 1.0, 2000, 3000, 2500));
  Report.Candidates.push_back(calibrationSample(1.0, 3.0, 1000, 1400, 1100));
  calibrateSlowdowns(Report);

  const SlowdownCalibration &C = Report.Calibration;
  EXPECT_TRUE(C.Fitted);
  EXPECT_EQ(C.MemorySamples, 2);
  EXPECT_EQ(C.NetworkSamples, 1);
  EXPECT_NEAR(C.MemoryFactor, 0.5, 1e-9);
  EXPECT_NEAR(C.NetworkFactor, 0.25, 1e-9);
  EXPECT_GT(C.MeanErrorPctBefore, 10.0);
  EXPECT_NEAR(C.MeanErrorPctAfter, 0.0, 1e-9);
  EXPECT_NEAR(Report.Candidates[0].CalibratedPredictedCycles, 1500.0, 1e-9);
  EXPECT_NEAR(Report.Candidates[2].CalibratedPredictedCycles, 1100.0, 1e-9);
}

TEST(TunerTest, CalibrationClampsNegativeFits) {
  // A simulator *faster* than the uncorrected model would fit a negative
  // factor; the calibration clamps to 0 (drop the correction entirely).
  TuningReport Report;
  Report.Candidates.push_back(calibrationSample(2.0, 1.0, 1000, 2000, 800));
  calibrateSlowdowns(Report);
  EXPECT_TRUE(Report.Calibration.Fitted);
  EXPECT_EQ(Report.Calibration.MemoryFactor, 0.0);
  EXPECT_NEAR(Report.Candidates[0].CalibratedPredictedCycles, 1000.0, 1e-9);
}

TEST(TunerTest, CalibrationSkipsReportsWithoutSimulations) {
  TuningReport Report;
  CandidateRecord R;
  R.Cost.Feasible = true;
  R.Cost.ModelCycles = 100;
  R.Cost.PredictedCycles = 150;
  Report.Candidates.push_back(std::move(R)); // Never simulated.
  calibrateSlowdowns(Report);
  EXPECT_FALSE(Report.Calibration.Fitted);
  EXPECT_EQ(Report.Calibration.MemorySamples, 0);
  EXPECT_EQ(Report.Candidates[0].CalibratedPredictedCycles, 0.0);
}

TEST(TunerTest, CalibrationPopulatesHighOrderTuningReport) {
  // End to end on a high-order workload: tuneProgram calibrates
  // automatically, fills per-candidate calibrated predictions, and
  // serializes the calibration block.
  TuneOptions Opts;
  Opts.TopK = 3;
  TuningOutcome Out =
      tuneOrDie(workloads::wave2dChain(2, 1, 16, 32), Opts);
  for (const CandidateRecord &R : Out.Report.Candidates) {
    if (!R.Simulated || !R.SimulationError.empty())
      continue;
    EXPECT_GT(R.CalibratedPredictedCycles, 0.0) << R.Mapping.id();
  }
  Expected<json::Value> Doc = json::parse(Out.Report.toJson());
  ASSERT_TRUE(Doc) << Doc.message();
  const json::Object &Root = Doc->getObject();
  ASSERT_TRUE(Root.contains("calibration"));
  const json::Object &Cal = Root.get("calibration")->getObject();
  EXPECT_TRUE(Cal.contains("fitted"));
  EXPECT_TRUE(Cal.contains("memory_factor"));
  EXPECT_TRUE(Cal.contains("network_factor"));
  EXPECT_TRUE(Cal.contains("mean_error_pct_before"));
  EXPECT_TRUE(Cal.contains("mean_error_pct_after"));
}

//===----------------------------------------------------------------------===//
// Report serialization and facade
//===----------------------------------------------------------------------===//

TEST(TunerTest, JsonReportParsesAndMatchesTheReport) {
  TuneOptions Opts;
  Opts.Search.CandidateBudget = 24;
  TuningOutcome Out = tuneOrDie(smallDiffusion(), Opts);

  Expected<json::Value> Doc = json::parse(Out.Report.toJson());
  ASSERT_TRUE(Doc) << Doc.message();
  ASSERT_TRUE(Doc->isObject());
  const json::Object &Root = Doc->getObject();
  EXPECT_EQ(Root.get("program")->getString(), Out.Report.ProgramName);
  EXPECT_EQ(Root.get("search")->getString(), Out.Report.SearchKind);
  ASSERT_TRUE(Root.get("candidates")->isArray());
  EXPECT_EQ(Root.get("candidates")->getArray().size(),
            Out.Report.Explored);
  EXPECT_EQ(Root.get("best")->getString(), Out.Best.id());
  EXPECT_EQ(static_cast<int>(Root.get("best_index")->getInteger()),
            Out.Report.BestIndex);
  // Prune reasons are serialized for infeasible candidates.
  for (const json::Value &V : Root.get("candidates")->getArray()) {
    const json::Object &Obj = V.getObject();
    if (!Obj.get("feasible")->getBoolean())
      EXPECT_TRUE(Obj.contains("prune_reason"));
    else
      EXPECT_TRUE(Obj.contains("predicted_cycles"));
  }
}

TEST(TunerTest, SessionFacadeTunes) {
  Session S = Session::fromProgram(smallDiffusion());
  S.unconstrainedMemory(true);
  TuneOptions Opts;
  Opts.TopK = 2;
  Expected<TuningOutcome> Out = S.tune(Opts);
  ASSERT_TRUE(Out) << Out.message();
  EXPECT_TRUE(Out->BestRun.ValidationPassed);
  EXPECT_GT(Out->Report.SimulatedCount, 0u);
  // The no-simulate path ranks analytically and leaves BestRun empty.
  Opts.Simulate = false;
  Expected<TuningOutcome> Analytic = S.tune(Opts);
  ASSERT_TRUE(Analytic) << Analytic.message();
  EXPECT_EQ(Analytic->Report.SimulatedCount, 0u);
  EXPECT_GE(Analytic->Report.BestIndex, 0);
}
