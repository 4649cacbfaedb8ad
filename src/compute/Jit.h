//===- compute/Jit.h - Runtime C++ codegen for kernel tapes -------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Jit kernel tier: emits one straight-line, vectorizable C++ function
/// for a unit's compiled tape (post folding / madd fusion / dead-register
/// elimination), builds it into a shared object with the host toolchain,
/// and dlopens it. This is the "one straight-line pipeline per node"
/// discipline of the paper applied to the simulator itself: no per-
/// instruction dispatch remains at all — the tape IS the machine code.
///
/// Bit-exactness: the emitted source performs the exact operation sequence
/// of the tape with an explicit \c roundToType cast after every op
/// (constants are embedded as pre-rounded bit patterns, never decimal
/// literals), and the runtime compile uses the same \c -ffp-contract=off
/// flag as the sf_compute library, so no FMA contraction can collapse the
/// fused ops' two roundings. The emitted function links against the same
/// process libm for the intrinsics.
///
/// Compiled objects are cached process-wide per (tape hash, vector width)
/// — two units with identical tapes at the same width share one shared
/// object, and repeated Machine::build calls (the tuner!) compile each
/// distinct tape once. Handles are reference-counted: the cache and every
/// evaluator hold a shared handle, and the object is dlclosed when the
/// last reference drops. Temporary source/object files are removed as soon
/// as the object is mapped.
///
/// Failure is never fatal: when no host compiler is found (or the compile,
/// dlopen, or dlsym step fails) \c compileTape returns an empty result and
/// KernelEvaluator::compile falls back to the Specialized tier. The
/// \c STENCILFLOW_JIT_CXX environment variable overrides compiler
/// discovery (useful to force the fallback path in tests: point it at a
/// nonexistent binary).
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_COMPUTE_JIT_H
#define STENCILFLOW_COMPUTE_JIT_H

#include "compute/Engine.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace stencilflow {
namespace compute {
namespace jit {

/// Signature of an emitted kernel: gathered SoA inputs in, one result per
/// lane out (lane count and rounding are baked into the code).
using JitFunction = void (*)(const double *SoAInputs, double *Out);

/// A successfully jitted tape: the entry point plus the shared handle
/// keeping the dlopened object mapped. Empty (Fn == nullptr) on failure.
struct JitKernel {
  JitFunction Fn = nullptr;
  std::shared_ptr<void> Handle;
  explicit operator bool() const { return Fn != nullptr; }
};

/// Path of the host C++ compiler the JIT would invoke: the
/// STENCILFLOW_JIT_CXX environment variable when set, otherwise the first
/// of c++/g++/clang++ found executable on PATH. Empty when none resolves.
std::string compilerPath();

/// True when \c compilerPath() resolves — the cheap availability probe
/// callers use to decide between the Jit tier and the fallback.
bool compilerAvailable();

/// Stable 64-bit hash of a compiled tape (ops, output register, element
/// type). Together with the vector width this keys the shared-object
/// cache; identical tapes hash identically across Machine::build calls.
uint64_t hashTape(const std::vector<TapeOp> &Ops, int32_t OutReg,
                  DataType Type);

/// Emits the C++ translation unit for \p Ops at vector width \p Lanes.
/// Exposed separately from \c compileTape so tests can golden-check the
/// rounding discipline without invoking a compiler.
std::string emitTapeSource(const std::vector<TapeOp> &Ops, int32_t OutReg,
                           DataType Type, int Lanes);

/// Compiles \p Ops to native code (or returns the cached object for this
/// (tape hash, width)). Returns an empty JitKernel when no compiler is
/// available or any build step fails; never throws, never leaks the
/// temporary files or the dlopen handle. Thread-safe.
JitKernel compileTape(const std::vector<TapeOp> &Ops, int32_t OutReg,
                      DataType Type, int Lanes);

/// Observability for tests and stats: cache hits/misses/failures since
/// process start, and the number of live cached objects. Timeouts counts
/// compiler invocations killed by the wall-clock bound (the
/// STENCILFLOW_JIT_TIMEOUT_S environment variable, default 60 seconds;
/// 0 disables); each timeout is also a failure.
struct CacheStats {
  size_t Entries = 0;
  size_t Hits = 0;
  size_t Misses = 0;
  size_t Failures = 0;
  size_t Timeouts = 0;
};
CacheStats cacheStats();

} // namespace jit
} // namespace compute
} // namespace stencilflow

#endif // STENCILFLOW_COMPUTE_JIT_H
