//===- perfbench/Trace.h - Spans around library calls -------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own span recorder. The traced run wraps each call into
/// a library layer in a span (name, start, end, parent span, request id),
/// keeps every span in memory, and writes them out when the run ends.
/// Nothing here is compiled into the library: spans sit around its public
/// functions, never inside them.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_PERFBENCH_TRACE_H
#define STENCILFLOW_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two instants.
inline double msBetween(Clock::time_point Start, Clock::time_point End) {
  return std::chrono::duration<double, std::milli>(End - Start).count();
}

/// Median of \p Values (0 for none). Takes a copy: it reorders.
double median(std::vector<double> Values);

/// The \p Q quantile (0..1) of \p Values by linear interpolation.
double quantile(std::vector<double> Values, double Q);

/// Records spans of one thread's requests. Not thread-safe: each client
/// thread of a traced run owns its own log.
class SpanLog {
public:
  struct Span {
    std::string Name;
    int64_t Request = -1;
    int Parent = -1; ///< Index of the enclosing span, -1 for none.
    Clock::time_point Start;
    Clock::time_point End;
  };

  /// Starts request \p Id: spans opened until the next call belong to it.
  void beginRequest(int64_t Id) { Request = Id; }

  /// Runs \p Fn inside a span named \p Name and returns its result.
  template <typename Fn> decltype(auto) time(const char *Name, Fn &&F) {
    Scope S(*this, Name);
    return F();
  }

  /// Adds a span measured elsewhere (a duration reported by the server).
  void addReported(const char *Name, double Micros);

  const std::vector<Span> &spans() const { return Spans; }

  /// Per-request total milliseconds spent in spans named \p Name, one
  /// entry per request that has at least one such span.
  std::vector<double> perRequestMs(const std::string &Name) const;

  /// Per-request total milliseconds of the top-level spans (the layer
  /// calls a request is made of), keyed by request id.
  std::map<int64_t, double> topLevelMsByRequest() const;

  /// Appends the spans of \p Other (another thread's log).
  void merge(const SpanLog &Other);

  /// Writes every span as JSON lines: name, request, parent, start and
  /// end in microseconds from \p Origin.
  bool writeJsonLines(const std::string &Path, Clock::time_point Origin) const;

private:
  class Scope {
  public:
    Scope(SpanLog &Log, const char *Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &Log;
    int Index;
    int SavedOpen;
  };

  std::vector<Span> Spans;
  int64_t Request = -1;
  int Open = -1; ///< Innermost open span.
};

} // namespace perfbench

#endif // STENCILFLOW_PERFBENCH_TRACE_H
