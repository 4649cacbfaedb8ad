//===- sim/Config.cpp - Simulator configuration validation --------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Config.h"

#include "support/StringUtils.h"

namespace stencilflow {
namespace sim {

const char *simEngineName(SimEngine Engine) {
  switch (Engine) {
  case SimEngine::Serial:
    return "serial";
  case SimEngine::Parallel:
    return "parallel";
  }
  return "unknown";
}

Error SimConfig::validate() const {
  auto Invalid = [](std::string Message) {
    return makeError(ErrorCode::InvalidInput,
                     "sim config: " + std::move(Message));
  };

  if (PeakMemoryBytesPerCycle <= 0.0)
    return Invalid("PeakMemoryBytesPerCycle must be positive");
  if (TransactionOverheadBytes < 0.0)
    return Invalid("TransactionOverheadBytes must be non-negative");
  if (ArbitrationPenaltyBytesPerEndpoint < 0.0)
    return Invalid("ArbitrationPenaltyBytesPerEndpoint must be non-negative");
  if (LinkBytesPerCycle <= 0.0)
    return Invalid("LinkBytesPerCycle must be positive");
  if (LinksPerHop < 1)
    return Invalid("LinksPerHop must be at least 1");
  if (NetworkLatencyCyclesPerHop < 0)
    return Invalid("NetworkLatencyCyclesPerHop must be non-negative");
  if (NetworkExtraChannelDepth < 0)
    return Invalid("NetworkExtraChannelDepth must be non-negative");
  if (KernelExec == compute::KernelEngine::Batched)
    return Invalid("KernelExec must be scalar, specialized or jit (batched "
                   "is the effective tier of a specialized fallback)");
  if (MinChannelDepth < 1)
    return Invalid("MinChannelDepth must be at least 1 (a zero-capacity "
                   "channel can never transfer a vector)");
  if (StallTimeoutCycles < 0)
    return Invalid("StallTimeoutCycles must be non-negative (0 disables "
                   "the watchdog)");
  if (MaxRetransmitAttempts < 1)
    return Invalid("MaxRetransmitAttempts must be at least 1");
  if (RetransmitBackoffCycles < 0)
    return Invalid("RetransmitBackoffCycles must be non-negative");
  if (SendWindowVectors < 1)
    return Invalid("SendWindowVectors must be at least 1");
  if (CheckpointEveryCycles < 0)
    return Invalid("CheckpointEveryCycles must be non-negative (0 disables "
                   "the cycle cadence)");
  if (CheckpointEverySeconds < 0.0)
    return Invalid("CheckpointEverySeconds must be non-negative (0 disables "
                   "the wall-clock cadence)");
  if ((CheckpointEveryCycles > 0 || CheckpointEverySeconds > 0.0) &&
      CheckpointDir.empty())
    return Invalid("a checkpoint cadence requires CheckpointDir");
  if (CheckpointKeep < 1)
    return Invalid("CheckpointKeep must be at least 1");
  if (CheckpointCrashAfter < 0)
    return Invalid("CheckpointCrashAfter must be non-negative (0 disables "
                   "the crash hook)");
  if (MaxCycleFactor < 1)
    return Invalid("MaxCycleFactor must be at least 1");
  if (MaxCycleSlack < 0)
    return Invalid("MaxCycleSlack must be non-negative");
  if (Threads < 0)
    return Invalid("Threads must be non-negative (0 means one per core)");

  if (Engine == SimEngine::Parallel) {
    // The parallel engine slices time into epochs no longer than the
    // cross-device lookahead; both bounds below would otherwise force a
    // degenerate one-cycle epoch on every barrier, i.e. serial stepping
    // with extra synchronization cost. Reject at construction.
    if (Trace != nullptr)
      return Invalid(
          "tracing requires the serial engine (the tracer records one "
          "global timeline and is not thread-safe); detach the trace or "
          "select SimEngine::Serial");
    if (NetworkLatencyCyclesPerHop < 1)
      return Invalid("the parallel engine needs NetworkLatencyCyclesPerHop "
                     ">= 1: the hop latency is the lookahead that makes "
                     "cross-device epochs exact");
    int64_t RemoteDepth = MinChannelDepth + NetworkExtraChannelDepth;
    if (ClampChannelsToMinimum && RemoteDepth < NetworkLatencyCyclesPerHop)
      return Invalid(formatString(
          "the parallel engine needs remote channel capacity (clamped "
          "MinChannelDepth %lld + NetworkExtraChannelDepth %lld = %lld) of "
          "at least one hop latency (%lld cycles): epochs are bounded by "
          "channel slack and would degenerate",
          static_cast<long long>(MinChannelDepth),
          static_cast<long long>(NetworkExtraChannelDepth),
          static_cast<long long>(RemoteDepth),
          static_cast<long long>(NetworkLatencyCyclesPerHop)));
    if (SendWindowVectors < NetworkLatencyCyclesPerHop)
      return Invalid(formatString(
          "the parallel engine needs SendWindowVectors (%lld) of at least "
          "one hop latency (%lld cycles): the reliable-stream send window "
          "bounds the epoch length",
          static_cast<long long>(SendWindowVectors),
          static_cast<long long>(NetworkLatencyCyclesPerHop)));
  }

  return Error::success();
}

SimConfig::Builder &SimConfig::Builder::unconstrainedMemory(bool Value) {
  C.UnconstrainedMemory = Value;
  return *this;
}
SimConfig::Builder &SimConfig::Builder::peakMemoryBytesPerCycle(double Value) {
  C.PeakMemoryBytesPerCycle = Value;
  return *this;
}
SimConfig::Builder &SimConfig::Builder::transactionOverheadBytes(double Value) {
  C.TransactionOverheadBytes = Value;
  return *this;
}
SimConfig::Builder &
SimConfig::Builder::arbitrationPenaltyBytesPerEndpoint(double Value) {
  C.ArbitrationPenaltyBytesPerEndpoint = Value;
  return *this;
}
SimConfig::Builder &SimConfig::Builder::linkBytesPerCycle(double Value) {
  C.LinkBytesPerCycle = Value;
  return *this;
}
SimConfig::Builder &SimConfig::Builder::linksPerHop(int Value) {
  C.LinksPerHop = Value;
  return *this;
}
SimConfig::Builder &
SimConfig::Builder::networkLatencyCyclesPerHop(int64_t Value) {
  C.NetworkLatencyCyclesPerHop = Value;
  return *this;
}
SimConfig::Builder &
SimConfig::Builder::networkExtraChannelDepth(int64_t Value) {
  C.NetworkExtraChannelDepth = Value;
  return *this;
}
SimConfig::Builder &SimConfig::Builder::minChannelDepth(int64_t Value) {
  C.MinChannelDepth = Value;
  return *this;
}
SimConfig::Builder &SimConfig::Builder::clampChannelsToMinimum(bool Value) {
  C.ClampChannelsToMinimum = Value;
  return *this;
}
SimConfig::Builder &SimConfig::Builder::trace(Tracer *Value) {
  C.Trace = Value;
  return *this;
}
SimConfig::Builder &SimConfig::Builder::faults(const FaultPlan *Value) {
  C.Faults = Value;
  return *this;
}
SimConfig::Builder &SimConfig::Builder::reliableStreams(bool Value) {
  C.ReliableStreams = Value;
  return *this;
}
SimConfig::Builder &SimConfig::Builder::stallTimeoutCycles(int64_t Value) {
  C.StallTimeoutCycles = Value;
  return *this;
}
SimConfig::Builder &SimConfig::Builder::maxRetransmitAttempts(int Value) {
  C.MaxRetransmitAttempts = Value;
  return *this;
}
SimConfig::Builder &SimConfig::Builder::retransmitBackoffCycles(int64_t Value) {
  C.RetransmitBackoffCycles = Value;
  return *this;
}
SimConfig::Builder &SimConfig::Builder::sendWindowVectors(int64_t Value) {
  C.SendWindowVectors = Value;
  return *this;
}
SimConfig::Builder &SimConfig::Builder::checkpointDir(std::string Value) {
  C.CheckpointDir = std::move(Value);
  return *this;
}
SimConfig::Builder &SimConfig::Builder::checkpointEveryCycles(int64_t Value) {
  C.CheckpointEveryCycles = Value;
  return *this;
}
SimConfig::Builder &
SimConfig::Builder::checkpointEverySeconds(double Value) {
  C.CheckpointEverySeconds = Value;
  return *this;
}
SimConfig::Builder &SimConfig::Builder::checkpointKeep(int Value) {
  C.CheckpointKeep = Value;
  return *this;
}
SimConfig::Builder &SimConfig::Builder::checkpointCrashAfter(int Value) {
  C.CheckpointCrashAfter = Value;
  return *this;
}
SimConfig::Builder &SimConfig::Builder::maxCycleFactor(int64_t Value) {
  C.MaxCycleFactor = Value;
  return *this;
}
SimConfig::Builder &SimConfig::Builder::maxCycleSlack(int64_t Value) {
  C.MaxCycleSlack = Value;
  return *this;
}
SimConfig::Builder &SimConfig::Builder::engine(SimEngine Value) {
  C.Engine = Value;
  return *this;
}
SimConfig::Builder &SimConfig::Builder::threads(int Value) {
  C.Threads = Value;
  return *this;
}
SimConfig::Builder &
SimConfig::Builder::kernelEngine(compute::KernelEngine Value) {
  C.KernelExec = Value;
  return *this;
}

Expected<SimConfig> SimConfig::Builder::build() const {
  if (Error Err = C.validate())
    return Err;
  return C;
}

} // namespace sim
} // namespace stencilflow
