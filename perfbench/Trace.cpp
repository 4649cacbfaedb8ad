//===- perfbench/Trace.cpp - Spans around library calls -----------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace perfbench;

double perfbench::median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

double perfbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

SpanLog::Scope::Scope(SpanLog &Log, const char *Name)
    : Log(Log), Index(static_cast<int>(Log.Spans.size())),
      SavedOpen(Log.Open) {
  Span S;
  S.Name = Name;
  S.Request = Log.Request;
  S.Parent = Log.Open;
  Log.Spans.push_back(std::move(S));
  Log.Open = Index;
  // Read the clock last, so the bookkeeping above is not inside the span.
  Log.Spans[Index].Start = Clock::now();
}

SpanLog::Scope::~Scope() {
  Log.Spans[Index].End = Clock::now();
  Log.Open = SavedOpen;
}

void SpanLog::addReported(const char *Name, double Micros) {
  Span S;
  S.Name = Name;
  S.Request = Request;
  S.Parent = Open;
  S.End = Clock::now();
  S.Start = S.End - std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::micro>(Micros));
  Spans.push_back(std::move(S));
}

std::vector<double> SpanLog::perRequestMs(const std::string &Name) const {
  std::map<int64_t, double> Totals;
  for (const Span &S : Spans)
    if (S.Name == Name)
      Totals[S.Request] += msBetween(S.Start, S.End);
  std::vector<double> Out;
  Out.reserve(Totals.size());
  for (const auto &[Id, Ms] : Totals)
    Out.push_back(Ms);
  return Out;
}

std::map<int64_t, double> SpanLog::topLevelMsByRequest() const {
  std::map<int64_t, double> Totals;
  for (const Span &S : Spans)
    if (S.Parent < 0)
      Totals[S.Request] += msBetween(S.Start, S.End);
  return Totals;
}

void SpanLog::merge(const SpanLog &Other) {
  int Base = static_cast<int>(Spans.size());
  for (Span S : Other.Spans) {
    if (S.Parent >= 0)
      S.Parent += Base;
    Spans.push_back(std::move(S));
  }
}

bool SpanLog::writeJsonLines(const std::string &Path,
                             Clock::time_point Origin) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  auto Us = [&](Clock::time_point T) {
    return std::chrono::duration<double, std::micro>(T - Origin).count();
  };
  bool Ok = true;
  for (size_t I = 0; I != Spans.size() && Ok; ++I) {
    const Span &S = Spans[I];
    Ok = std::fprintf(F,
                      "{\"id\": %zu, \"name\": \"%s\", \"request\": %lld, "
                      "\"parent\": %d, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                      I, S.Name.c_str(), static_cast<long long>(S.Request),
                      S.Parent, Us(S.Start), Us(S.End)) > 0;
  }
  return std::fclose(F) == 0 && Ok;
}
