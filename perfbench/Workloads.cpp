//===- perfbench/Workloads.cpp - The benchmark's workloads --------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Checks.h"

#include "core/CompiledProgram.h"
#include "core/DataflowAnalysis.h"
#include "core/Partitioner.h"
#include "core/ResourceModel.h"
#include "core/RuntimeModel.h"
#include "frontend/ProgramLoader.h"
#include "runtime/InputData.h"
#include "runtime/Pipeline.h"
#include "runtime/ReferenceExecutor.h"
#include "runtime/Session.h"
#include "runtime/Validation.h"
#include "serve/Server.h"
#include "sim/Machine.h"
#include "support/StringUtils.h"
#include "tuner/Tuner.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <thread>
#include <tuple>

using namespace perfbench;
using namespace stencilflow;

namespace {

//===----------------------------------------------------------------------===//
// Seeds, samples and statistics
//===----------------------------------------------------------------------===//

uint64_t splitmix(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// The input seed of request \p Index of client \p Stream in a run.
uint64_t requestSeed(uint64_t RunSeed, uint64_t Stream, uint64_t Index) {
  return splitmix(splitmix(RunSeed) ^ splitmix(Stream * 1000003ull + Index));
}

/// One timed request: when it ended (seconds into the measured phase)
/// and how long it took.
struct Sample {
  double EndS = 0.0;
  double Ms = 0.0;
  std::string Tag; ///< What was requested, for --dump.
};

/// Fraction of a run's requests the request_ms statistic sits at: a low
/// quantile, so that it reads the host's fast speed, which a run of 30 s
/// has so far always contained for a few seconds at least (see README.md,
/// "Steadiness"). Every workload makes over a hundred requests a run, so
/// it rests on several requests, not one lucky one.
constexpr double RequestQuantile = 0.05;

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

std::vector<double> msOf(const std::vector<Sample> &Samples) {
  std::vector<double> Out;
  Out.reserve(Samples.size());
  for (const Sample &S : Samples)
    Out.push_back(S.Ms);
  return Out;
}

void dumpSamples(const RunConfig &Config, const std::vector<Sample> &Samples) {
  if (Config.DumpPath.empty())
    return;
  if (std::FILE *F = std::fopen(Config.DumpPath.c_str(), "w")) {
    for (const Sample &S : Samples)
      std::fprintf(F, "%.6f %.6f %s\n", S.EndS, S.Ms, S.Tag.c_str());
    std::fclose(F);
  }
}

double secondsSince(Clock::time_point Start) {
  return msBetween(Start, Clock::now()) / 1000.0;
}

//===----------------------------------------------------------------------===//
// One request's outcome, from either path
//===----------------------------------------------------------------------===//

struct Outcome {
  std::string Error; ///< Empty on success.
  FieldMap Outputs;
  bool ValidationPassed = false;
  int64_t Cycles = 0;
  int64_t StallCycles = 0;
  double OffchipBytes = 0.0;
  double NetworkBytes = 0.0;
  int64_t Flops = 0;
  double FrequencyMHz = 0.0;
  int Devices = 0;

  double simulatedSeconds() const {
    return static_cast<double>(Cycles) / (FrequencyMHz * 1e6);
  }
};

void takeSimulation(Outcome &Out, sim::SimResult &Sim) {
  Out.Cycles = Sim.Stats.Cycles;
  for (const auto &[Unit, Stalls] : Sim.Stats.UnitStallCycles)
    Out.StallCycles += Stalls;
  for (double Bytes : Sim.Stats.MemoryBytesMoved)
    Out.OffchipBytes += Bytes;
  Out.NetworkBytes = Sim.Stats.NetworkBytesMoved;
  Out.Outputs = std::move(Sim.Outputs);
}

Outcome fromPipeline(Expected<PipelineResult> R) {
  Outcome Out;
  if (!R) {
    Out.Error = R.message();
    return Out;
  }
  Out.ValidationPassed = R->ValidationPassed;
  Out.Flops = R->Runtime.TotalFlops;
  Out.FrequencyMHz = R->FrequencyMHz;
  Out.Devices = static_cast<int>(R->Placement.numDevices());
  takeSimulation(Out, R->Simulation);
  return Out;
}

/// compilePipeline and executePlan, call by call, each call in a span:
/// the same library functions runPipeline makes for a program that is
/// neither fused nor unrolled by the options (fusion and unrolling, when
/// a request has them, are applied before and traced by the caller).
Outcome tracedPipeline(SpanLog &Log, StencilProgram P,
                       const PipelineOptions &O) {
  Outcome Out;
  CompiledPlan Plan;
  Log.time("runtime.compile_plan", [&] {
    Expected<CompiledProgram> C = Log.time("core.compile", [&] {
      return CompiledProgram::compile(std::move(P), O.Kernel);
    });
    if (!C) {
      Out.Error = C.message();
      return;
    }
    Plan.Compiled = C.takeValue();
    Expected<DataflowAnalysis> D = Log.time("core.dataflow", [&] {
      return analyzeDataflow(Plan.Compiled, O.Latencies);
    });
    if (!D) {
      Out.Error = D.message();
      return;
    }
    Plan.Dataflow = D.takeValue();
    Log.time("core.estimate", [&] {
      Plan.Runtime = computeRuntimeEstimate(Plan.Compiled, Plan.Dataflow);
      Plan.Resources = estimateProgramResources(
          Plan.Compiled, Plan.Dataflow, O.Partitioning.ResourceConfig);
      Plan.FrequencyMHz = estimateFrequencyMHz(
          Plan.Resources, O.Partitioning.Device, O.Partitioning.ResourceConfig);
    });
    PartitionOptions PO = O.Partitioning;
    if (!O.AllowMultiDevice)
      PO.MaxDevices = 1;
    Expected<Partition> Placement = Log.time("core.partition", [&] {
      return partitionProgram(Plan.Compiled, Plan.Dataflow, PO);
    });
    if (!Placement) {
      Out.Error = Placement.message();
      return;
    }
    Plan.Placement = Placement.takeValue();
  });
  if (!Out.Error.empty())
    return Out;

  FieldMap Inputs = Log.time("runtime.inputs", [&] {
    return materializeInputs(Plan.Compiled.program());
  });
  Expected<sim::Machine> M = Log.time("sim.build", [&] {
    return sim::Machine::build(
        Plan.Compiled, Plan.Dataflow,
        Plan.Placement.numDevices() > 1 ? &Plan.Placement : nullptr,
        O.Simulator);
  });
  if (!M) {
    Out.Error = M.message();
    return Out;
  }
  Expected<sim::SimResult, sim::SimFailure> Sim =
      Log.time("sim.run", [&] { return M->run(Inputs); });
  if (!Sim) {
    Out.Error = Sim.message();
    return Out;
  }
  sim::SimResult Result = Sim.takeValue();
  Expected<ExecutionResult> Reference = Log.time(
      "runtime.reference", [&] { return runReference(Plan.Compiled, Inputs); });
  if (!Reference) {
    Out.Error = Reference.message();
    return Out;
  }
  Out.ValidationPassed = Log.time("runtime.validate", [&] {
    bool Passed = true;
    for (const std::string &Name : Plan.Compiled.program().Outputs)
      Passed &= validateField(Name, Result.Outputs.at(Name),
                              Reference->field(Name), O.Tolerance)
                    .Passed;
    return Passed;
  });
  Out.Flops = Plan.Runtime.TotalFlops;
  Out.FrequencyMHz = Plan.FrequencyMHz;
  Out.Devices = static_cast<int>(Plan.Placement.numDevices());
  takeSimulation(Out, Result);
  return Out;
}

/// Checks one request's outcome against the naive evaluation of \p Spec;
/// returns what failed, or an empty string.
std::string checkOutcome(const ChainSpec &Spec, const Outcome &Out,
                         int64_t Margin = 0) {
  if (!Out.Error.empty())
    return "request failed: " + Out.Error;
  if (!Out.ValidationPassed)
    return "the library's own validation failed";
  NaiveResult Naive = evaluateNaive(Spec, materializeInputs(buildChain(Spec)));
  std::string Why = checkOutputs(Spec, Naive, Out.Outputs, Margin);
  return Why.empty() ? Why : std::string(familyName(Spec.Kind)) + ": " + Why;
}

//===----------------------------------------------------------------------===//
// Metrics shared by the workloads
//===----------------------------------------------------------------------===//

/// Model figures of the mapped design: deterministic per program.
struct ModelFigures {
  double Flops = 0.0;
  double SimSeconds = 0.0;
  double OffchipBytes = 0.0;
  int Programs = 0;

  void add(const Outcome &O) {
    Flops += static_cast<double>(O.Flops);
    SimSeconds += O.simulatedSeconds();
    OffchipBytes += O.OffchipBytes;
    ++Programs;
  }
};

/// \p BusyS is the measured phase's wall time times its client count.
void endToEndMetrics(RunResult &R, const std::vector<Sample> &Samples,
                     double RequestsPerS, const ModelFigures &Model,
                     double SetupS, double BusyS) {
  std::vector<double> Ms = msOf(Samples);
  R.Metrics.push_back({"request_ms", quantile(Ms, RequestQuantile), "ms"});
  R.Metrics.push_back({"requests_per_s", RequestsPerS, "1/s"});
  R.Metrics.push_back(
      {"sim_gops", Model.Flops / Model.SimSeconds / 1e9, "GOp/s"});
  R.Metrics.push_back(
      {"offchip_mb", Model.OffchipBytes / Model.Programs / 1e6, "MB"});
  R.Metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
  R.Metrics.push_back({"setup_s", SetupS, "s"});
  double InRequests = 0.0;
  for (double V : Ms)
    InRequests += V / 1000.0;
  std::fprintf(stderr,
               "perfbench: %zu requests; request_ms p05 %.3f p50 %.3f p90 "
               "%.3f max %.3f; %.1f%% of the clients' time in requests\n",
               Ms.size(), quantile(Ms, 0.05), quantile(Ms, 0.5),
               quantile(Ms, 0.9), quantile(Ms, 1.0),
               100.0 * InRequests / BusyS);
}

/// Throughput at the host's fast speed: the highest, over every window of
/// \p Window consecutive completions, of Window / the window's wall time.
/// On the one-shot workloads that wall time includes the checks the client
/// makes between requests.
double windowRate(std::vector<Sample> Samples, size_t Window) {
  std::sort(Samples.begin(), Samples.end(),
            [](const Sample &A, const Sample &B) { return A.EndS < B.EndS; });
  double Best = 0.0;
  for (size_t I = 0; I + Window < Samples.size(); ++I) {
    double Seconds = Samples[I + Window].EndS - Samples[I].EndS;
    if (Seconds > 0.0)
      Best = std::max(Best, static_cast<double>(Window) / Seconds);
  }
  return Best;
}

/// The per-layer metric names, in the order BENCHMARK.json lists them.
/// Layers a workload does not reach read 0.
const char *const LayerMetrics[][2] = {
    {"frontend.load_us", "us"},       {"core.dataflow_us", "us"},
    {"core.partition_us", "us"},      {"runtime.compile_plan_ms", "ms"},
    {"sdfg.fuse_ms", "ms"},           {"core.compile_ms", "ms"},
    {"tuner.tune_ms", "ms"},          {"tuner.candidates", "count"},
    {"tuner.distinct_programs", "count"},
    {"runtime.inputs_ms", "ms"},      {"sim.build_us", "us"},
    {"sim.run_ms", "ms"},             {"sim.ns_per_cycle", "ns"},
    {"runtime.reference_ms", "ms"},   {"runtime.validate_us", "us"},
    {"sim.cycles", "count"},          {"sim.stall_cycles", "count"},
    {"sim.network_mb", "MB"},         {"serve.protocol_us", "us"},
    {"serve.queue_us", "us"},         {"serve.compile_us", "us"},
    {"serve.execute_us", "us"},       {"serve.hit_ratio", "ratio"},
    {"serve.evictions", "count"},     {"request_p90_ms", "ms"},
    {"unattributed_ms", "ms"},
    {"unattributed_traced_ms", "ms"}, {"trace_overhead_pct", "%"},
};

/// Neighbouring requests of a traced run, one untraced and then one
/// traced: comparing neighbours keeps the host's speed changes out of the
/// differences.
struct RequestPairs {
  std::vector<double> UntracedMs, TracedMs;
  std::vector<int64_t> TracedIds;

  void untraced(double Ms) {
    if (TracedMs.size() == UntracedMs.size())
      UntracedMs.push_back(Ms);
  }
  void traced(double Ms, int64_t Id) {
    if (TracedMs.size() < UntracedMs.size()) {
      TracedMs.push_back(Ms);
      TracedIds.push_back(Id);
    }
  }
  /// Drops an untraced request left without its traced neighbour.
  void close() { UntracedMs.resize(TracedMs.size()); }
  void append(const RequestPairs &O) {
    UntracedMs.insert(UntracedMs.end(), O.UntracedMs.begin(),
                      O.UntracedMs.end());
    TracedMs.insert(TracedMs.end(), O.TracedMs.begin(), O.TracedMs.end());
    TracedIds.insert(TracedIds.end(), O.TracedIds.begin(), O.TracedIds.end());
  }
};

/// Collects per-layer values by name, then emits them in the fixed order.
class LayerTable {
public:
  void set(const std::string &Name, double Value) { Values[Name] = Value; }

  /// Median per-request time of the spans named \p Span, scaled from ms.
  void setSpan(const std::string &Name, const SpanLog &Log,
               const std::string &Span, double Scale) {
    set(Name, median(Log.perRequestMs(Span)) * Scale);
  }

  /// The library call spans every traced pipeline records.
  void setPipelineSpans(const SpanLog &Log) {
    setSpan("frontend.load_us", Log, "frontend.load", 1e3);
    setSpan("core.dataflow_us", Log, "core.dataflow", 1e3);
    setSpan("core.partition_us", Log, "core.partition", 1e3);
    setSpan("runtime.compile_plan_ms", Log, "runtime.compile_plan", 1.0);
    setSpan("core.compile_ms", Log, "core.compile", 1.0);
    setSpan("runtime.inputs_ms", Log, "runtime.inputs", 1.0);
    setSpan("sim.build_us", Log, "sim.build", 1e3);
    setSpan("sim.run_ms", Log, "sim.run", 1.0);
    setSpan("runtime.reference_ms", Log, "runtime.reference", 1.0);
    setSpan("runtime.validate_us", Log, "runtime.validate", 1e3);
  }

  /// Model counts of one representative request.
  void setModel(const Outcome &O, double SimRunMs) {
    set("sim.cycles", static_cast<double>(O.Cycles));
    set("sim.stall_cycles", static_cast<double>(O.StallCycles));
    set("sim.network_mb", O.NetworkBytes / 1e6);
    if (O.Cycles > 0)
      set("sim.ns_per_cycle", SimRunMs * 1e6 / static_cast<double>(O.Cycles));
  }

  /// unattributed_ms and trace_overhead_pct from \p P's pairs.
  void setOverheads(const RequestPairs &P, const SpanLog &Log) {
    std::map<int64_t, double> SpanMs = Log.topLevelMsByRequest();
    std::vector<double> Unattributed, UnattributedTraced, Ratio;
    for (size_t I = 0; I != P.TracedMs.size(); ++I) {
      double Spans = SpanMs[P.TracedIds[I]];
      Unattributed.push_back(P.UntracedMs[I] - Spans);
      UnattributedTraced.push_back(P.TracedMs[I] - Spans);
      Ratio.push_back(P.TracedMs[I] / P.UntracedMs[I]);
    }
    set("unattributed_ms", median(Unattributed));
    set("unattributed_traced_ms", median(UnattributedTraced));
    set("trace_overhead_pct", 100.0 * (median(Ratio) - 1.0));
  }

  void emit(RunResult &R) const {
    for (const auto &Row : LayerMetrics) {
      auto It = Values.find(Row[0]);
      R.Metrics.push_back(
          {Row[0], It == Values.end() ? 0.0 : It->second, Row[1]});
    }
  }

private:
  std::map<std::string, double> Values;
};

void writeSpans(const RunConfig &Config, const SpanLog &Log) {
  if (!Config.SpanPath.empty() &&
      !Log.writeJsonLines(Config.SpanPath, Config.ProcessStart))
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 Config.SpanPath.c_str());
}

//===----------------------------------------------------------------------===//
// stream-2d: one-shot Session::run requests
//===----------------------------------------------------------------------===//

ChainSpec streamSpec(uint64_t Seed) {
  return ChainSpec{Family::Diffusion2d, 8, {256, 256}, 1, Seed};
}

Outcome streamUntraced(const std::string &Text) {
  Expected<Session> S = Session::fromJsonText(Text);
  if (!S) {
    Outcome Out;
    Out.Error = S.message();
    return Out;
  }
  return fromPipeline(S->run());
}

Outcome streamTraced(SpanLog &Log, const std::string &Text) {
  Expected<StencilProgram> P =
      Log.time("frontend.load", [&] { return programFromJsonText(Text); });
  if (!P) {
    Outcome Out;
    Out.Error = P.message();
    return Out;
  }
  return tracedPipeline(Log, P.takeValue(), PipelineOptions());
}

//===----------------------------------------------------------------------===//
// map-3d: tune, then simulate the chosen mapping
//===----------------------------------------------------------------------===//

ChainSpec mapSpec(uint64_t Seed) {
  return ChainSpec{Family::Jacobi3d, 64, {8, 16, 16}, 8, Seed};
}

tuner::TuneOptions mapTuneOptions() {
  tuner::TuneOptions T;
  T.Search.CandidateBudget = 28;
  T.Search.Seed = 0x5F3759DF;
  T.Workers = 1;
  T.Simulate = false; // The chosen mapping is simulated below.
  return T;
}

/// The options a tuned candidate runs under (what the tuner itself uses
/// to simulate a candidate: fusion and width already applied).
PipelineOptions candidateOptions(const tuner::CandidateMapping &M) {
  PipelineOptions O;
  O.Partitioning.MaxDevices = M.MaxDevices;
  O.Partitioning.TargetUtilization = M.TargetUtilization;
  O.Simulator.KernelExec = M.KernelExec;
  return O;
}

struct MapOutcome {
  Outcome Run;
  tuner::CandidateMapping Best;
  size_t Candidates = 0;
  size_t DistinctPrograms = 0;
};

void takeReport(MapOutcome &Out, const tuner::TuningOutcome &T) {
  Out.Best = T.Best;
  std::set<std::tuple<int, int, int>> Programs;
  for (const tuner::CandidateRecord &R : T.Report.Candidates)
    Programs.insert({R.Mapping.VectorWidth, R.Mapping.FusionPairs,
                     R.Mapping.TemporalDegree});
  Out.Candidates = T.Report.Candidates.size();
  Out.DistinctPrograms = Programs.size();
}

MapOutcome mapUntraced(const std::string &Text) {
  MapOutcome Out;
  Expected<Session> S = Session::fromJsonText(Text);
  if (!S) {
    Out.Run.Error = S.message();
    return Out;
  }
  Expected<tuner::TuningOutcome> T = S->tune(mapTuneOptions());
  if (!T) {
    Out.Run.Error = T.message();
    return Out;
  }
  takeReport(Out, *T);
  Expected<StencilProgram> Applied =
      tuner::applyMapping(S->program(), T->Best);
  if (!Applied) {
    Out.Run.Error = Applied.message();
    return Out;
  }
  Out.Run = fromPipeline(
      runPipeline(Applied.takeValue(), candidateOptions(T->Best)));
  return Out;
}

MapOutcome mapTraced(SpanLog &Log, const std::string &Text) {
  MapOutcome Out;
  Expected<StencilProgram> P =
      Log.time("frontend.load", [&] { return programFromJsonText(Text); });
  if (!P) {
    Out.Run.Error = P.message();
    return Out;
  }
  Expected<tuner::TuningOutcome> T = Log.time("tuner.tune", [&] {
    return tuner::tuneProgram(*P, PipelineOptions(), mapTuneOptions());
  });
  if (!T) {
    Out.Run.Error = T.message();
    return Out;
  }
  takeReport(Out, *T);
  Expected<StencilProgram> Applied = Log.time(
      "sdfg.fuse", [&] { return tuner::applyMapping(*P, T->Best); });
  if (!Applied) {
    Out.Run.Error = Applied.message();
    return Out;
  }
  Out.Run =
      tracedPipeline(Log, Applied.takeValue(), candidateOptions(T->Best));
  return Out;
}

//===----------------------------------------------------------------------===//
// The closed loop of the one-shot workloads
//===----------------------------------------------------------------------===//

/// Runs \p Spec's requests in a closed loop. \p Request(Text, Traced,
/// Log, Margin) makes one request, returns its outcome and sets the
/// fusion margin its check needs. Rates are taken over windows of
/// \p RateWindow requests.
template <typename SpecFn, typename RequestFn>
void runOneShot(const RunConfig &Config, RunResult &R, SpecFn MakeSpec,
                RequestFn Request, size_t RateWindow, LayerTable &Layers,
                SpanLog &Log, Outcome &Last) {
  std::vector<Sample> Untraced;
  RequestPairs Pairs;
  ModelFigures Model;
  double SetupS = 0.0;
  Clock::time_point Start;
  for (uint64_t I = 0;; ++I) {
    // The first request is the cold set-up; the timed loop follows.
    bool Warm = I == 0;
    if (!Warm && secondsSince(Start) >= Config.Seconds)
      break;
    ChainSpec Spec = MakeSpec(requestSeed(Config.Seed, 0, I));
    std::string Text = programToJson(buildChain(Spec)).toString();
    bool Traced = Config.Trace && !Warm && I % 2 == 0;
    if (Traced)
      Log.beginRequest(static_cast<int64_t>(I));
    Clock::time_point T0 = Clock::now();
    int64_t Margin = 0;
    Outcome Out = Request(Text, Traced, Log, Margin);
    Clock::time_point T1 = Clock::now();
    if (Warm) {
      SetupS = msBetween(Config.ProcessStart, T1) / 1000.0;
      Start = Clock::now();
    } else {
      ++R.Attempted;
      double Ms = msBetween(T0, T1);
      if (Traced) {
        Pairs.traced(Ms, static_cast<int64_t>(I));
      } else {
        Untraced.push_back({msBetween(Start, T1) / 1000.0, Ms, ""});
        Pairs.untraced(Ms);
      }
    }
    if (std::string Why = checkOutcome(Spec, Out, Margin); !Why.empty()) {
      if (!Warm)
        ++R.Failed;
      R.fail(Why);
    }
    if (Warm)
      Model.add(Out);
    Last = std::move(Out);
  }
  Pairs.close();
  dumpSamples(Config, Untraced);
  if (!Config.Trace) {
    endToEndMetrics(R, Untraced, windowRate(Untraced, RateWindow),
                    Model, SetupS, secondsSince(Start));
    return;
  }
  Layers.setPipelineSpans(Log);
  Layers.set("request_p90_ms", quantile(msOf(Untraced), 0.9));
  Layers.setModel(Last, median(Log.perRequestMs("sim.run")));
  Layers.setOverheads(Pairs, Log);
}

void runStream2d(const RunConfig &Config, RunResult &R) {
  LayerTable Layers;
  SpanLog Log;
  Outcome Last;
  runOneShot(
      Config, R, streamSpec,
      [](const std::string &Text, bool Traced, SpanLog &Log, int64_t &) {
        return Traced ? streamTraced(Log, Text) : streamUntraced(Text);
      },
      /*RateWindow=*/10, Layers, Log, Last);
  if (Config.Trace) {
    Layers.emit(R);
    writeSpans(Config, Log);
  }
}

void runMap3d(const RunConfig &Config, RunResult &R) {
  LayerTable Layers;
  SpanLog Log;
  Outcome Last;
  MapOutcome Map;
  runOneShot(
      Config, R, mapSpec,
      [&Map](const std::string &Text, bool Traced, SpanLog &Log,
             int64_t &Margin) {
        Map = Traced ? mapTraced(Log, Text) : mapUntraced(Text);
        // Fused stencils compute through the halo, which changes the
        // cells next to the boundary; every later stencil carries that
        // change one cell further in. A fused winner is held to the
        // bound alone.
        Margin = Map.Best.FusionPairs > 0 ? mapSpec(0).Length : 0;
        return Map.Run;
      },
      /*RateWindow=*/5, Layers, Log, Last);
  if (Config.Trace) {
    Layers.setSpan("sdfg.fuse_ms", Log, "sdfg.fuse", 1.0);
    Layers.setSpan("tuner.tune_ms", Log, "tuner.tune", 1.0);
    Layers.set("tuner.candidates", static_cast<double>(Map.Candidates));
    Layers.set("tuner.distinct_programs",
               static_cast<double>(Map.DistinctPrograms));
    Layers.emit(R);
    writeSpans(Config, Log);
  }
  std::fprintf(stderr, "perfbench: map-3d chose %s on %d device(s)\n",
               Map.Best.id().c_str(), Last.Devices);
}

//===----------------------------------------------------------------------===//
// serve-mixed: protocol lines through an in-process server
//===----------------------------------------------------------------------===//

constexpr int ServeClients = 2;
constexpr int ServeWorkers = 2;
/// One request in this many carries a never-seen program.
constexpr uint64_t FreshEvery = 10;

/// The popular programs: four families of similar cost, two input seeds
/// each, ranked by popularity.
std::vector<ChainSpec> popularSpecs(uint64_t RunSeed) {
  std::vector<ChainSpec> Specs;
  for (uint64_t Copy = 0; Copy != 2; ++Copy) {
    uint64_t S = requestSeed(RunSeed, 900 + Copy, 0);
    Specs.push_back({Family::Diffusion2d, 5, {64, 64}, 1, S + 1});
    Specs.push_back({Family::Jacobi3d, 4, {16, 16, 16}, 1, S + 2});
    Specs.push_back({Family::Hotspot2d, 3, {64, 64}, 1, S + 3});
    Specs.push_back({Family::Wave2d, 3, {64, 64}, 1, S + 4});
  }
  return Specs;
}

ChainSpec freshSpec(uint64_t RunSeed, int Client, uint64_t Index) {
  std::vector<ChainSpec> Shapes = popularSpecs(0);
  ChainSpec Spec = Shapes[(Index / FreshEvery + Client) % 4];
  Spec.InputSeed = requestSeed(RunSeed, 1000 + Client, Index);
  return Spec;
}

/// What a served program's response must carry, from a direct run.
struct Expectation {
  std::string Error; ///< The direct run or its check failed.
  uint64_t Crc = 0;
  int64_t Cycles = 0;
  Outcome Direct;
};

Expectation expect(const ChainSpec &Spec, SpanLog *Log) {
  Expectation E;
  StencilProgram P = buildChain(Spec);
  std::vector<std::string> Order = P.Outputs;
  if (Log) {
    Log->beginRequest(-1 - static_cast<int64_t>(Log->spans().size()));
    E.Direct = tracedPipeline(*Log, std::move(P), PipelineOptions());
  } else {
    E.Direct = fromPipeline(Session::fromProgram(std::move(P)).run());
  }
  E.Error = checkOutcome(Spec, E.Direct);
  E.Crc = fnv1a(Order, E.Direct.Outputs);
  E.Cycles = E.Direct.Cycles;
  return E;
}

/// One client's view of a served request.
struct Served {
  std::string Error;
  serve::Response Response;
};

Served serveOne(serve::Server &Server, const json::Value &Program,
                const std::string &Id, bool Traced, SpanLog &Log) {
  Served Out;
  serve::Request Req;
  Req.Id = Id;
  Req.Op = serve::RequestOp::Run;
  Req.Program = Program;
  auto Step = [&](const char *Name, auto &&Fn) -> decltype(auto) {
    if (Traced)
      return Log.time(Name, Fn);
    return Fn();
  };
  std::string Line =
      Step("serve.encode_request", [&] { return Req.toJsonText(); });
  Expected<serve::Request> Decoded = Step("serve.decode_request", [&] {
    return serve::Request::fromJsonText(Line);
  });
  if (!Decoded) {
    Out.Error = "request line rejected: " + Decoded.message();
    return Out;
  }
  serve::Response Resp = Step("serve.submit", [&] {
    serve::Response R = Server.submit(Decoded.takeValue()).get();
    if (Traced) {
      Log.addReported("serve.queue", static_cast<double>(R.QueueMicros));
      Log.addReported("serve.compile", static_cast<double>(R.CompileMicros));
      Log.addReported("serve.execute", static_cast<double>(R.ExecuteMicros));
    }
    return R;
  });
  std::string RespLine =
      Step("serve.encode_response", [&] { return Resp.toJsonText(); });
  Expected<serve::Response> Back = Step("serve.decode_response", [&] {
    return serve::Response::fromJsonText(RespLine);
  });
  if (!Back) {
    Out.Error = "response line rejected: " + Back.message();
    return Out;
  }
  Out.Response = Back.takeValue();
  return Out;
}

std::string checkServed(const Served &S, const Expectation &E) {
  if (!S.Error.empty())
    return S.Error;
  if (!S.Response.Ok)
    return "served request failed: " + S.Response.ErrorMessage;
  if (!S.Response.ValidationPassed)
    return "served request failed the library's validation";
  if (!E.Error.empty())
    return "direct run: " + E.Error;
  if (S.Response.OutputsCrc != E.Crc)
    return formatString("outputs_crc %016llx, direct run %016llx",
                        static_cast<unsigned long long>(S.Response.OutputsCrc),
                        static_cast<unsigned long long>(E.Crc));
  if (S.Response.Cycles != E.Cycles)
    return "served cycles differ from the direct run";
  return "";
}

/// One client thread's closed loop and what it saw.
struct ClientLog {
  std::vector<Sample> Untraced;
  RequestPairs Pairs;
  SpanLog Spans;
  /// Fresh programs and their responses, checked after the run.
  std::vector<std::pair<ChainSpec, Served>> FreshServed;
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::string Why;

  void check(const std::string &Failure) {
    if (Failure.empty())
      return;
    ++Failed;
    if (Why.empty())
      Why = Failure;
  }
};

void runServeMixed(const RunConfig &Config, RunResult &R) {
  std::vector<ChainSpec> Popular = popularSpecs(Config.Seed);
  std::vector<json::Value> PopularJson;
  for (const ChainSpec &Spec : Popular)
    PopularJson.push_back(programToJson(buildChain(Spec)));
  // Zipf popularity over the popular set.
  std::vector<double> Cumulative;
  double Sum = 0.0;
  for (size_t Rank = 0; Rank != Popular.size(); ++Rank)
    Cumulative.push_back(Sum += 1.0 / static_cast<double>(Rank + 1));

  serve::ServerOptions SO;
  SO.Workers = ServeWorkers;
  SO.CacheCapacity = Popular.size();
  SO.QueueDepth = 16;
  serve::Server Server(SO);
  Server.start();

  // Set-up: start the server and warm the popular set.
  SpanLog WarmLog;
  std::vector<Served> Warm;
  for (size_t I = 0; I != Popular.size(); ++I)
    Warm.push_back(serveOne(Server, PopularJson[I],
                            formatString("warm-%zu", I), false, WarmLog));
  double SetupS = secondsSince(Config.ProcessStart);
  serve::ServeStats WarmStats = Server.stats();

  // Expected outputs of the popular set, from direct runs (untimed).
  SpanLog DirectSpans;
  std::vector<Expectation> Expects;
  ModelFigures Model;
  for (size_t I = 0; I != Popular.size(); ++I) {
    Expects.push_back(expect(Popular[I], Config.Trace ? &DirectSpans : nullptr));
    Model.add(Expects.back().Direct);
    if (std::string Why = checkServed(Warm[I], Expects.back()); !Why.empty())
      R.fail(Why);
  }

  std::vector<ClientLog> Clients(ServeClients);
  Clock::time_point Start = Clock::now();
  auto Client = [&](int C) {
    ClientLog &L = Clients[C];
    uint64_t Rng = splitmix(Config.Seed * 31 + static_cast<uint64_t>(C));
    for (uint64_t I = 0; secondsSince(Start) < Config.Seconds; ++I) {
      bool Fresh = I % FreshEvery == FreshEvery - 1;
      ChainSpec FreshSpec;
      json::Value FreshJson;
      size_t Pick = 0;
      if (Fresh) {
        FreshSpec = freshSpec(Config.Seed, C, I);
        FreshJson = programToJson(buildChain(FreshSpec));
      } else {
        Rng = splitmix(Rng);
        double U = static_cast<double>(Rng >> 11) / 9007199254740992.0 * Sum;
        Pick = static_cast<size_t>(
            std::upper_bound(Cumulative.begin(), Cumulative.end(), U) -
            Cumulative.begin());
        Pick = std::min(Pick, Popular.size() - 1);
      }
      bool Traced = Config.Trace && I % 2 == 1;
      // Unique across clients: the clients' spans are merged.
      int64_t Id = static_cast<int64_t>(I) * ServeClients + C;
      if (Traced)
        L.Spans.beginRequest(Id);
      Clock::time_point T0 = Clock::now();
      Served S = serveOne(Server, Fresh ? FreshJson : PopularJson[Pick],
                          formatString("c%d-%llu", C,
                                       static_cast<unsigned long long>(I)),
                          Traced, L.Spans);
      Clock::time_point T1 = Clock::now();
      double Ms = msBetween(T0, T1);
      ++L.Attempted;
      if (Traced) {
        L.Pairs.traced(Ms, Id);
      } else {
        L.Untraced.push_back(
            {msBetween(Start, T1) / 1000.0, Ms,
             formatString("%s-%s-%s", Fresh ? "fresh" : "popular",
                          familyName(Fresh ? FreshSpec.Kind
                                           : Popular[Pick].Kind),
                          S.Response.CacheHit.value_or(false) ? "hit"
                                                              : "miss")});
        L.Pairs.untraced(Ms);
      }
      // A fresh program's direct run waits until the clients stop, so
      // that the clients do nothing but send requests.
      if (Fresh)
        L.FreshServed.emplace_back(FreshSpec, std::move(S));
      else
        L.check(checkServed(S, Expects[Pick]));
    }
  };
  std::vector<std::thread> Threads;
  for (int C = 0; C != ServeClients; ++C)
    Threads.emplace_back(Client, C);
  for (std::thread &T : Threads)
    T.join();
  double Elapsed = secondsSince(Start);
  serve::ServeStats Stats = Server.stats();
  Server.stop();

  std::vector<Sample> Untraced;
  RequestPairs Pairs;
  SpanLog Spans;
  for (ClientLog &L : Clients) {
    for (const auto &[Spec, S] : L.FreshServed)
      L.check(
          checkServed(S, expect(Spec, Config.Trace ? &DirectSpans : nullptr)));
    R.Attempted += L.Attempted;
    R.Failed += L.Failed;
    if (!L.Why.empty())
      R.fail(L.Why);
    Untraced.insert(Untraced.end(), L.Untraced.begin(), L.Untraced.end());
    L.Pairs.close();
    Pairs.append(L.Pairs);
    Spans.merge(L.Spans);
  }
  dumpSamples(Config, Untraced);
  std::fprintf(stderr,
               "perfbench: serve-mixed %.1f req/s over the run, hits %lld "
               "misses %lld evictions %lld\n",
               static_cast<double>(R.Attempted) / Elapsed,
               static_cast<long long>(Stats.CacheHits - WarmStats.CacheHits),
               static_cast<long long>(Stats.CacheMisses -
                                      WarmStats.CacheMisses),
               static_cast<long long>(Stats.CacheEvictions -
                                      WarmStats.CacheEvictions));
  if (!Config.Trace) {
    endToEndMetrics(R, Untraced, windowRate(Untraced, 20), Model,
                    SetupS, Elapsed * ServeClients);
    return;
  }

  LayerTable Layers;
  // Below the server, the layers are timed on the direct runs of the same
  // programs: the server's internals cannot be timed from outside.
  Layers.setPipelineSpans(DirectSpans);
  Layers.setModel(Expects.front().Direct,
                  median(DirectSpans.perRequestMs("sim.run")));
  std::vector<double> Protocol;
  {
    std::map<int64_t, double> PerRequest;
    for (const SpanLog::Span &S : Spans.spans())
      if (S.Name.rfind("serve.encode", 0) == 0 ||
          S.Name.rfind("serve.decode", 0) == 0)
        PerRequest[S.Request] += msBetween(S.Start, S.End);
    for (const auto &[Id, Ms] : PerRequest)
      Protocol.push_back(Ms * 1e3);
  }
  Layers.set("serve.protocol_us", median(Protocol));
  Layers.set("request_p90_ms", quantile(msOf(Untraced), 0.9));
  Layers.setSpan("serve.queue_us", Spans, "serve.queue", 1e3);
  Layers.setSpan("serve.execute_us", Spans, "serve.execute", 1e3);
  // Compile time is spent on misses only: report its mean per request.
  {
    std::vector<double> Compile = Spans.perRequestMs("serve.compile");
    double Total = 0.0;
    for (double Ms : Compile)
      Total += Ms;
    Layers.set("serve.compile_us",
               Compile.empty() ? 0.0 : Total * 1e3 / Compile.size());
  }
  int64_t Hits = Stats.CacheHits - WarmStats.CacheHits;
  int64_t Misses = Stats.CacheMisses - WarmStats.CacheMisses;
  Layers.set("serve.hit_ratio", Hits + Misses > 0
                                    ? static_cast<double>(Hits) /
                                          static_cast<double>(Hits + Misses)
                                    : 0.0);
  Layers.set("serve.evictions",
             static_cast<double>(Stats.CacheEvictions -
                                 WarmStats.CacheEvictions));
  Layers.setOverheads(Pairs, Spans);
  Layers.emit(R);
  DirectSpans.merge(Spans);
  writeSpans(Config, DirectSpans);
}

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"stream-2d", "map-3d",
                                                 "serve-mixed"};
  return Names;
}

bool perfbench::runWorkload(const RunConfig &Config, RunResult &Result) {
  if (Config.Workload == "stream-2d")
    runStream2d(Config, Result);
  else if (Config.Workload == "map-3d")
    runMap3d(Config, Result);
  else if (Config.Workload == "serve-mixed")
    runServeMixed(Config, Result);
  else
    return false;
  return true;
}
