//===- compute/Jit.cpp - Runtime C++ codegen for kernel tapes -----------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
// The emitted translation unit is self-contained (libm prototypes are
// declared inline, constants travel as bit patterns) so the runtime
// compile needs no include path, and it is built with -ffp-contract=off —
// the same rounding discipline as this library — so the JIT'd code is
// bit-exact with the interpreter tiers.
//
//===----------------------------------------------------------------------===//

#include "compute/Jit.h"

#include "support/StringUtils.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>

#include <dlfcn.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

using namespace stencilflow;
using namespace stencilflow::compute;
using namespace stencilflow::compute::jit;

namespace {

bool isExecutable(const std::string &Path) {
  return !Path.empty() && ::access(Path.c_str(), X_OK) == 0;
}

/// Resolves \p Name against PATH (or directly when it contains a slash).
std::string findExecutable(const std::string &Name) {
  if (Name.empty())
    return "";
  if (Name.find('/') != std::string::npos)
    return isExecutable(Name) ? Name : "";
  const char *PathEnv = std::getenv("PATH");
  if (!PathEnv)
    return "";
  std::string Dirs(PathEnv);
  size_t Pos = 0;
  while (Pos <= Dirs.size()) {
    size_t End = Dirs.find(':', Pos);
    if (End == std::string::npos)
      End = Dirs.size();
    std::string Candidate = Dirs.substr(Pos, End - Pos);
    if (!Candidate.empty()) {
      Candidate += "/" + Name;
      if (isExecutable(Candidate))
        return Candidate;
    }
    Pos = End + 1;
  }
  return "";
}

/// The bit pattern of a double (for emitting constants exactly).
uint64_t bitsOf(double Value) {
  uint64_t Pattern;
  std::memcpy(&Pattern, &Value, sizeof(Pattern));
  return Pattern;
}

/// FNV-1a over a byte span.
void hashBytes(uint64_t &H, const void *Data, size_t Size) {
  const unsigned char *Bytes = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Size; ++I) {
    H ^= Bytes[I];
    H *= 0x100000001B3ULL;
  }
}

void hashInt(uint64_t &H, int64_t Value) { hashBytes(H, &Value, sizeof(Value)); }

/// The process-wide shared-object cache, keyed by (tape hash, lanes). The
/// element type is folded into the hash. Guarded by one mutex — compiles
/// serialize, which also keeps temp-dir traffic tame when tuner workers
/// build machines concurrently.
struct Cache {
  std::mutex Mutex;
  std::map<std::pair<uint64_t, int>, JitKernel> Entries;
  CacheStats Stats;
};

Cache &cache() {
  static Cache C;
  return C;
}

/// Writes \p Text to \p Path; false on any short write.
bool writeFile(const std::string &Path, const std::string &Text) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return false;
  size_t Written = std::fwrite(Text.data(), 1, Text.size(), File);
  bool Closed = std::fclose(File) == 0;
  return Written == Text.size() && Closed;
}

/// Wall-clock bound on one compiler invocation, from the
/// STENCILFLOW_JIT_TIMEOUT_S environment variable (seconds; 0 or a
/// non-numeric value disables the bound). A hung or thrashing host
/// compiler must degrade the run to the Specialized tier, not wedge it.
double jitTimeoutSeconds() {
  const char *Env = std::getenv("STENCILFLOW_JIT_TIMEOUT_S");
  if (!Env || !*Env)
    return 60.0;
  char *End = nullptr;
  double Seconds = std::strtod(Env, &End);
  if (End == Env || Seconds < 0.0)
    return 0.0;
  return Seconds;
}

/// Runs `Compiler -O2 -fPIC -shared -ffp-contract=off
/// -fno-tree-vectorize -o So Cpp` directly (no shell) in its own process
/// group, killing the whole group if it outlives the wall-clock budget.
/// Returns true on a zero exit; sets \p TimedOut when the bound fired.
///
/// -fno-tree-vectorize is load-bearing for bit-exactness, not a tuning
/// choice: GCC 12's vectorizer folds the (double)(float)x narrowing
/// round-trip that implements float32 rounding (SF_R) into a plain copy
/// when it vectorizes the lane loop (observed as cvtpd2ps/cvtps2pd
/// collapsing to movupd at Lanes >= 2), so jitted float32 kernels
/// reading float64 operands silently skipped the narrowing and diverged
/// from every other tier. Found by the differential fuzzer (sf_fuzz).
bool runCompiler(const std::string &Compiler, const std::string &So,
                 const std::string &Cpp, bool &TimedOut) {
  TimedOut = false;
  double TimeoutS = jitTimeoutSeconds();
  pid_t Pid = ::fork();
  if (Pid < 0)
    return false;
  if (Pid == 0) {
    // Child: own process group, so a timeout kill reaps cc1plus/ld too.
    ::setpgid(0, 0);
    int Null = ::open("/dev/null", O_WRONLY);
    if (Null >= 0) {
      ::dup2(Null, STDOUT_FILENO);
      ::dup2(Null, STDERR_FILENO);
      ::close(Null);
    }
    ::execl(Compiler.c_str(), Compiler.c_str(), "-O2", "-fPIC", "-shared",
            "-ffp-contract=off", "-fno-tree-vectorize", "-o", So.c_str(),
            Cpp.c_str(), static_cast<char *>(nullptr));
    ::_exit(127);
  }
  ::setpgid(Pid, Pid); // Also from the parent: close the fork/exec race.

  const long PollNs = 10 * 1000 * 1000; // 10 ms.
  double WaitedS = 0.0;
  for (;;) {
    int Status = 0;
    pid_t Done = ::waitpid(Pid, &Status, WNOHANG);
    if (Done == Pid)
      return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
    if (Done < 0 && errno != EINTR)
      return false;
    if (TimeoutS > 0.0 && WaitedS >= TimeoutS) {
      TimedOut = true;
      ::kill(-Pid, SIGKILL);
      ::waitpid(Pid, &Status, 0);
      return false;
    }
    struct timespec Ts = {0, PollNs};
    ::nanosleep(&Ts, nullptr);
    WaitedS += static_cast<double>(PollNs) * 1e-9;
  }
}

/// Builds \p Source into a shared object and returns the dlopened,
/// dlsym'd entry point; empty on any failure. All temporary files are
/// removed before returning (the mapping survives the unlink).
JitKernel buildSharedObject(const std::string &Compiler,
                            const std::string &Source, bool &TimedOut) {
  TimedOut = false;
  const char *TmpEnv = std::getenv("TMPDIR");
  std::string Template =
      std::string(TmpEnv && *TmpEnv ? TmpEnv : "/tmp") + "/sf-jit-XXXXXX";
  std::vector<char> Dir(Template.begin(), Template.end());
  Dir.push_back('\0');
  if (!::mkdtemp(Dir.data()))
    return {};
  std::string Base(Dir.data());
  std::string Cpp = Base + "/kernel.cpp";
  std::string So = Base + "/kernel.so";
  auto Cleanup = [&]() {
    ::unlink(Cpp.c_str());
    ::unlink(So.c_str());
    ::rmdir(Base.c_str());
  };

  JitKernel Result;
  if (!writeFile(Cpp, Source)) {
    Cleanup();
    return Result;
  }
  // Same contraction discipline as sf_compute: two explicit roundings in
  // the fused ops must stay two roundings.
  if (!runCompiler(Compiler, So, Cpp, TimedOut)) {
    Cleanup();
    return Result;
  }
  void *Handle = ::dlopen(So.c_str(), RTLD_NOW | RTLD_LOCAL);
  Cleanup(); // The mapping stays valid after the unlink.
  if (!Handle)
    return Result;
  void *Sym = ::dlsym(Handle, "sf_jit_eval");
  if (!Sym) {
    ::dlclose(Handle);
    return Result;
  }
  Result.Fn = reinterpret_cast<JitFunction>(Sym);
  Result.Handle =
      std::shared_ptr<void>(Handle, [](void *H) { ::dlclose(H); });
  return Result;
}

} // namespace

std::string jit::compilerPath() {
  // The override wins outright: pointing it at a nonexistent binary is the
  // supported way to force the no-compiler fallback (tests use this).
  if (const char *Override = std::getenv("STENCILFLOW_JIT_CXX"))
    return findExecutable(Override);
  for (const char *Candidate : {"c++", "g++", "clang++"}) {
    std::string Found = findExecutable(Candidate);
    if (!Found.empty())
      return Found;
  }
  return "";
}

bool jit::compilerAvailable() { return !compilerPath().empty(); }

uint64_t jit::hashTape(const std::vector<TapeOp> &Ops, int32_t OutReg,
                       DataType Type) {
  uint64_t H = 0xCBF29CE484222325ULL;
  hashInt(H, static_cast<int64_t>(Type));
  hashInt(H, OutReg);
  hashInt(H, static_cast<int64_t>(Ops.size()));
  for (const TapeOp &O : Ops) {
    hashInt(H, static_cast<int64_t>(O.Op));
    hashInt(H, O.Dst);
    hashInt(H, O.A);
    hashInt(H, O.B);
    hashInt(H, O.C);
    hashInt(H, O.InputIndex);
    hashInt(H, static_cast<int64_t>(bitsOf(O.Constant)));
  }
  return H;
}

std::string jit::emitTapeSource(const std::vector<TapeOp> &Ops,
                                int32_t OutReg, DataType Type, int Lanes) {
  std::string Out;
  Out += "// StencilFlow JIT'd kernel tape; built with -ffp-contract=off\n"
         "// and -fno-tree-vectorize (the vectorizer folds the SF_R\n"
         "// float32 narrowing round-trip into a copy; see runCompiler).\n";
  Out += formatString("// ops=%zu lanes=%d type=%d\n", Ops.size(), Lanes,
                      static_cast<int>(Type));
  // Self-contained libm prototypes: no include path needed at runtime.
  Out += "extern \"C\" {\n"
         "double sqrt(double); double fabs(double); double exp(double);\n"
         "double log(double); double sin(double); double cos(double);\n"
         "double tanh(double); double floor(double); double ceil(double);\n"
         "double fmin(double, double); double fmax(double, double);\n"
         "double pow(double, double);\n"
         "}\n";
  // The per-type rounding rule, identical to Engine.cpp's Round policies.
  switch (Type) {
  case DataType::Float32:
    Out += "#define SF_R(x) ((double)(float)(x))\n";
    break;
  case DataType::Float64:
    Out += "#define SF_R(x) (x)\n";
    break;
  case DataType::Int32:
    Out += "#define SF_R(x) ((double)(__INT32_TYPE__)(x))\n";
    break;
  case DataType::Int64:
    Out += "#define SF_R(x) ((double)(__INT64_TYPE__)(x))\n";
    break;
  }
  // Constants as exact bit patterns — decimal round-trips could perturb
  // the last ulp.
  Out += "static inline double sf_c(unsigned long long Bits) {\n"
         "  double Value;\n"
         "  __builtin_memcpy(&Value, &Bits, sizeof(Value));\n"
         "  return Value;\n"
         "}\n";
  Out += "extern \"C\" void sf_jit_eval(const double *__restrict__ In,\n"
         "                             double *__restrict__ Out) {\n";
  Out += formatString("  for (int L = 0; L != %d; ++L) {\n", Lanes);

  auto reg = [](int32_t R) { return formatString("r%d", R); };
  for (const TapeOp &O : Ops) {
    std::string A = reg(O.A), B = reg(O.B), C = reg(O.C);
    std::string Expr;
    switch (O.Op) {
    case TapeOp::Kind::Const:
      Expr = formatString("sf_c(0x%016llxULL)",
                          static_cast<unsigned long long>(bitsOf(O.Constant)));
      break;
    case TapeOp::Kind::Input:
      Expr = formatString("SF_R(In[%d + L])", O.InputIndex * Lanes);
      break;
    case TapeOp::Kind::Neg:
      Expr = "SF_R(-" + A + ")";
      break;
    case TapeOp::Kind::Not:
      Expr = "SF_R(" + A + " == 0.0 ? 1.0 : 0.0)";
      break;
    case TapeOp::Kind::Add:
      Expr = "SF_R(" + A + " + " + B + ")";
      break;
    case TapeOp::Kind::Sub:
      Expr = "SF_R(" + A + " - " + B + ")";
      break;
    case TapeOp::Kind::Mul:
      Expr = "SF_R(" + A + " * " + B + ")";
      break;
    case TapeOp::Kind::Div:
      Expr = "SF_R(" + A + " / " + B + ")";
      break;
    case TapeOp::Kind::Lt:
      Expr = "SF_R(" + A + " < " + B + " ? 1.0 : 0.0)";
      break;
    case TapeOp::Kind::Le:
      Expr = "SF_R(" + A + " <= " + B + " ? 1.0 : 0.0)";
      break;
    case TapeOp::Kind::Gt:
      Expr = "SF_R(" + A + " > " + B + " ? 1.0 : 0.0)";
      break;
    case TapeOp::Kind::Ge:
      Expr = "SF_R(" + A + " >= " + B + " ? 1.0 : 0.0)";
      break;
    case TapeOp::Kind::Eq:
      Expr = "SF_R(" + A + " == " + B + " ? 1.0 : 0.0)";
      break;
    case TapeOp::Kind::Ne:
      Expr = "SF_R(" + A + " != " + B + " ? 1.0 : 0.0)";
      break;
    case TapeOp::Kind::And:
      Expr = "SF_R((" + A + " != 0.0 && " + B + " != 0.0) ? 1.0 : 0.0)";
      break;
    case TapeOp::Kind::Or:
      Expr = "SF_R((" + A + " != 0.0 || " + B + " != 0.0) ? 1.0 : 0.0)";
      break;
    case TapeOp::Kind::Sqrt:
      Expr = "SF_R(sqrt(" + A + "))";
      break;
    case TapeOp::Kind::Abs:
      Expr = "SF_R(fabs(" + A + "))";
      break;
    case TapeOp::Kind::Exp:
      Expr = "SF_R(exp(" + A + "))";
      break;
    case TapeOp::Kind::Log:
      Expr = "SF_R(log(" + A + "))";
      break;
    case TapeOp::Kind::Sin:
      Expr = "SF_R(sin(" + A + "))";
      break;
    case TapeOp::Kind::Cos:
      Expr = "SF_R(cos(" + A + "))";
      break;
    case TapeOp::Kind::Tanh:
      Expr = "SF_R(tanh(" + A + "))";
      break;
    case TapeOp::Kind::Floor:
      Expr = "SF_R(floor(" + A + "))";
      break;
    case TapeOp::Kind::Ceil:
      Expr = "SF_R(ceil(" + A + "))";
      break;
    case TapeOp::Kind::Min:
      Expr = "SF_R(fmin(" + A + ", " + B + "))";
      break;
    case TapeOp::Kind::Max:
      Expr = "SF_R(fmax(" + A + ", " + B + "))";
      break;
    case TapeOp::Kind::Pow:
      Expr = "SF_R(pow(" + A + ", " + B + "))";
      break;
    case TapeOp::Kind::Select:
      Expr = "SF_R(" + A + " != 0.0 ? " + B + " : " + C + ")";
      break;
    case TapeOp::Kind::MulAdd:
      Expr = "SF_R(" + A + " + SF_R(" + B + " * " + C + "))";
      break;
    case TapeOp::Kind::MulSub:
      Expr = "SF_R(" + A + " - SF_R(" + B + " * " + C + "))";
      break;
    case TapeOp::Kind::MulRSub:
      Expr = "SF_R(SF_R(" + B + " * " + C + ") - " + A + ")";
      break;
    }
    Out += "    double " + reg(O.Dst) + " = " + Expr + ";\n";
    // Every register is assigned exactly once per lane; dead ones were
    // already eliminated, so no (void) silencing is needed.
  }
  Out += "    Out[L] = " + reg(OutReg) + ";\n";
  Out += "  }\n}\n";
  return Out;
}

JitKernel jit::compileTape(const std::vector<TapeOp> &Ops, int32_t OutReg,
                           DataType Type, int Lanes) {
  std::pair<uint64_t, int> Key(hashTape(Ops, OutReg, Type), Lanes);
  Cache &C = cache();
  std::lock_guard<std::mutex> Lock(C.Mutex);
  auto It = C.Entries.find(Key);
  if (It != C.Entries.end()) {
    ++C.Stats.Hits;
    return It->second;
  }
  std::string Compiler = compilerPath();
  if (Compiler.empty()) {
    ++C.Stats.Failures;
    return {};
  }
  bool TimedOut = false;
  JitKernel Built = buildSharedObject(
      Compiler, emitTapeSource(Ops, OutReg, Type, Lanes), TimedOut);
  if (!Built) {
    // Not cached: a transient failure (full /tmp, OOM compiler) should not
    // poison later attempts, and the common miss (no compiler) never gets
    // this far.
    ++C.Stats.Failures;
    if (TimedOut)
      ++C.Stats.Timeouts;
    return Built;
  }
  ++C.Stats.Misses;
  C.Entries.emplace(Key, Built);
  return Built;
}

CacheStats jit::cacheStats() {
  Cache &C = cache();
  std::lock_guard<std::mutex> Lock(C.Mutex);
  CacheStats Stats = C.Stats;
  Stats.Entries = C.Entries.size();
  return Stats;
}
