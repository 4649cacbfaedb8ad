//===- perfbench/Checks.cpp - Independent output checks -----------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "runtime/InputData.h"
#include "runtime/Session.h"
#include "serve/Protocol.h"
#include "support/StringUtils.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace perfbench;
using namespace stencilflow;

const char *perfbench::familyName(Family F) {
  switch (F) {
  case Family::Diffusion2d: return "diffusion2d";
  case Family::Jacobi3d: return "jacobi3d";
  case Family::Hotspot2d: return "hotspot2d";
  case Family::Wave2d: return "wave2d";
  }
  return "?";
}

StencilProgram perfbench::buildChain(const ChainSpec &Spec) {
  const std::vector<int64_t> &E = Spec.Extents;
  StencilProgram P;
  switch (Spec.Kind) {
  case Family::Diffusion2d:
    P = workloads::diffusion2dChain(Spec.Length, E[0], E[1], Spec.VectorWidth);
    break;
  case Family::Jacobi3d:
    P = workloads::jacobi3dChain(Spec.Length, E[0], E[1], E[2],
                                 Spec.VectorWidth);
    break;
  case Family::Hotspot2d:
    P = workloads::hotspot2dChain(Spec.Length, E[0], E[1], Spec.VectorWidth);
    break;
  case Family::Wave2d:
    P = workloads::wave2dChain(1, Spec.Length, E[0], E[1], Spec.VectorWidth);
    break;
  }
  // Seeds stay below 2^53 so they survive the JSON round trip exactly.
  uint64_t Seed = Spec.InputSeed;
  for (Field &Input : P.Inputs) {
    Seed = Seed * 6364136223846793005ull + 1442695040888963407ull;
    Input.Source = DataSource::random(Seed >> 11);
  }
  return P;
}

namespace {

/// A dense field over the chain's grid, zero outside it (every chain
/// declares constant-zero boundaries). 2D grids are 3D grids with K = 1.
struct Grid {
  int64_t K = 1, J = 1, I = 1;

  explicit Grid(const std::vector<int64_t> &E) {
    if (E.size() == 3) {
      K = E[0];
      J = E[1];
      I = E[2];
    } else {
      J = E[0];
      I = E[1];
    }
  }
  size_t cells() const { return static_cast<size_t>(K * J * I); }
  double at(const std::vector<double> &F, int64_t k, int64_t j,
            int64_t i) const {
    if (k < 0 || k >= K || j < 0 || j >= J || i < 0 || i >= I)
      return 0.0;
    return F[static_cast<size_t>((k * J + j) * I + i)];
  }
  template <typename Fn> std::vector<double> map(Fn &&Cell) const {
    std::vector<double> Out(cells());
    size_t N = 0;
    for (int64_t k = 0; k != K; ++k)
      for (int64_t j = 0; j != J; ++j)
        for (int64_t i = 0; i != I; ++i)
          Out[N++] = static_cast<float>(Cell(k, j, i));
    return Out;
  }
};

double maxAbs(const std::vector<double> &F) {
  double M = 0.0;
  for (double V : F)
    M = std::max(M, std::fabs(V));
  return M;
}

} // namespace

NaiveResult perfbench::evaluateNaive(const ChainSpec &Spec,
                                     const FieldMap &Inputs) {
  Grid G(Spec.Extents);
  NaiveResult R;
  int L = Spec.Length;
  switch (Spec.Kind) {
  case Family::Diffusion2d: {
    std::vector<double> A = Inputs.at("a0");
    double M = maxAbs(A);
    for (int S = 0; S < L; ++S) {
      A = G.map([&](int64_t k, int64_t j, int64_t i) {
        return 0.6 * G.at(A, k, j, i) + 0.1 * G.at(A, k, j, i - 1) +
               0.1 * G.at(A, k, j, i + 1) + 0.1 * G.at(A, k, j - 1, i) +
               0.1 * G.at(A, k, j + 1, i);
      });
    }
    R.Bound = M; // Convex weights: the maximum principle.
    R.Outputs[formatString("a%d", L)] = std::move(A);
    break;
  }
  case Family::Jacobi3d: {
    std::vector<double> A = Inputs.at("a0");
    double M = maxAbs(A);
    for (int S = 0; S < L; ++S) {
      A = G.map([&](int64_t k, int64_t j, int64_t i) {
        return 0.142857 *
               (G.at(A, k, j, i) + G.at(A, k - 1, j, i) +
                G.at(A, k + 1, j, i) + G.at(A, k, j - 1, i) +
                G.at(A, k, j + 1, i) + G.at(A, k, j, i - 1) +
                G.at(A, k, j, i + 1));
      });
      M *= 0.142857 * 7;
    }
    R.Bound = M;
    R.Outputs[formatString("a%d", L)] = std::move(A);
    break;
  }
  case Family::Hotspot2d: {
    std::vector<double> T = Inputs.at("t0");
    const std::vector<double> &P = Inputs.at("p");
    double M = maxAbs(T), MP = maxAbs(P);
    for (int S = 0; S < L; ++S) {
      T = G.map([&](int64_t k, int64_t j, int64_t i) {
        double C = G.at(T, k, j, i);
        double Lat = 0.1 * (G.at(T, k, j, i - 1) + G.at(T, k, j, i + 1) -
                            2.0 * C) +
                     0.1 * (G.at(T, k, j - 1, i) + G.at(T, k, j + 1, i) -
                            2.0 * C);
        double Vert = 0.05 * (80.0 - C);
        return C + 0.01 * (G.at(P, k, j, i) + Lat + Vert);
      });
      // |t'| <= (1 - 0.0045) |t| + 0.004 max|t| + 0.01 |p| + 0.04.
      M = (0.9955 + 0.004) * M + 0.01 * MP + 0.04;
    }
    R.Bound = M;
    R.Outputs[formatString("t%d", L)] = std::move(T);
    break;
  }
  case Family::Wave2d: {
    // Levels: u0 (previous), u1 (current), then w1..wL.
    std::vector<double> Prev = Inputs.at("u0"), Cur = Inputs.at("u1");
    double MPrev = maxAbs(Prev), MCur = maxAbs(Cur);
    for (int S = 1; S <= L; ++S) {
      std::vector<double> Next = G.map([&](int64_t k, int64_t j, int64_t i) {
        double C = G.at(Cur, k, j, i);
        double Lap = -4.0 * C + (G.at(Cur, k, j - 1, i) +
                                 G.at(Cur, k, j + 1, i) +
                                 G.at(Cur, k, j, i - 1) +
                                 G.at(Cur, k, j, i + 1));
        return 2.0 * C - G.at(Prev, k, j, i) + 0.1 * Lap;
      });
      // |w| <= |1.6 c| + 0.4 max|cur| + |prev|.
      double MNext = 2.0 * MCur + MPrev;
      Prev = std::move(Cur);
      Cur = std::move(Next);
      MPrev = MCur;
      MCur = MNext;
    }
    R.Bound = std::max(MCur, MPrev);
    R.Outputs[formatString("w%d", L)] = std::move(Cur);
    R.Outputs["up"] = std::move(Prev);
    break;
  }
  }
  // Every value is a float32 rounding of the exact one.
  R.Bound *= 1.0 + 1e-6 * (L + 1);
  R.Scale = 1.0;
  for (const auto &[Name, Field] : R.Outputs)
    R.Scale = std::max(R.Scale, maxAbs(Field));
  return R;
}

std::string perfbench::checkOutputs(const ChainSpec &Spec,
                                    const NaiveResult &Naive,
                                    const FieldMap &Actual, int64_t Margin) {
  Grid G(Spec.Extents);
  // float32 rounds each of a step's few operations; errors add along the
  // chain without growing (the weights are bounded).
  double Tolerance = 1e-6 * (Spec.Length + 1) * Naive.Scale;
  for (const auto &[Name, Expected] : Naive.Outputs) {
    auto It = Actual.find(Name);
    if (It == Actual.end())
      return "output '" + Name + "' missing";
    const std::vector<double> &Got = It->second;
    if (Got.size() != Expected.size())
      return formatString("output '%s' has %zu cells, expected %zu",
                          Name.c_str(), Got.size(), Expected.size());
    size_t N = 0;
    for (int64_t k = 0; k != G.K; ++k)
      for (int64_t j = 0; j != G.J; ++j)
        for (int64_t i = 0; i != G.I; ++i, ++N) {
          double V = Got[N];
          if (!(std::fabs(V) <= Naive.Bound))
            return formatString("output '%s' cell %zu = %.9g breaks the "
                                "bound %.9g",
                                Name.c_str(), N, V, Naive.Bound);
          bool Interior = (G.K == 1 || (k >= Margin && k < G.K - Margin)) &&
                          j >= Margin && j < G.J - Margin && i >= Margin &&
                          i < G.I - Margin;
          if (Interior && !(std::fabs(V - Expected[N]) <= Tolerance))
            return formatString("output '%s' cell %zu = %.9g, naive %.9g "
                                "(tolerance %.3g)",
                                Name.c_str(), N, V, Expected[N], Tolerance);
        }
  }
  return "";
}

uint64_t perfbench::fnv1a(const std::vector<std::string> &Order,
                          const FieldMap &Outputs) {
  uint64_t Hash = 1469598103934665603ull;
  auto Mix = [&Hash](const void *Bytes, size_t Size) {
    const unsigned char *P = static_cast<const unsigned char *>(Bytes);
    for (size_t I = 0; I != Size; ++I) {
      Hash ^= P[I];
      Hash *= 1099511628211ull;
    }
  };
  for (const std::string &Name : Order) {
    auto It = Outputs.find(Name);
    if (It == Outputs.end())
      continue;
    Mix(Name.data(), Name.size());
    Mix(It->second.data(), It->second.size() * sizeof(double));
  }
  return Hash;
}

namespace {

/// Runs \p Spec through the library and returns its outputs, or an empty
/// map when the run failed.
FieldMap runThroughLibrary(const ChainSpec &Spec) {
  Session S = Session::fromProgram(buildChain(Spec));
  Expected<PipelineResult> R = S.run();
  if (!R || !R->ValidationPassed)
    return {};
  return R->Simulation.Outputs;
}

/// What a served response's outputs_crc is checked against.
bool crcMatches(const std::string &ResponseLine, uint64_t Want) {
  Expected<serve::Response> R = serve::Response::fromJsonText(ResponseLine);
  return R && R->Ok && R->OutputsCrc == Want;
}

} // namespace

std::string perfbench::selfTest() {
  const ChainSpec Specs[] = {
      {Family::Diffusion2d, 3, {32, 32}, 1, 7},
      {Family::Jacobi3d, 3, {8, 8, 8}, 1, 8},
      {Family::Hotspot2d, 3, {32, 32}, 1, 9},
      {Family::Wave2d, 3, {32, 32}, 1, 10},
  };
  for (const ChainSpec &Spec : Specs) {
    std::string Tag = familyName(Spec.Kind);
    StencilProgram P = buildChain(Spec);
    NaiveResult Naive = evaluateNaive(Spec, materializeInputs(P));
    FieldMap Good = runThroughLibrary(Spec);
    if (Good.empty())
      return Tag + ": the library run failed";
    if (std::string Why = checkOutputs(Spec, Naive, Good); !Why.empty())
      return Tag + ": true outputs rejected: " + Why;

    // One cell off by ten tolerances.
    FieldMap OneCell = Good;
    std::vector<double> &F = OneCell.at(P.Outputs.front());
    F[F.size() / 2 + 3] += 1e-5 * (Spec.Length + 1) * Naive.Scale;
    if (checkOutputs(Spec, Naive, OneCell).empty())
      return Tag + ": one cell off was accepted";

    // One cell past the bound, even where no naive value is compared.
    FieldMap OverBound = Good;
    OverBound.at(P.Outputs.front())[0] = Naive.Bound * 1.01;
    if (checkOutputs(Spec, Naive, OverBound, /*Margin=*/1 << 20).empty())
      return Tag + ": a value past the bound was accepted";

    // The chain one step short, its fields named as the full chain's.
    ChainSpec Short = Spec;
    Short.Length = Spec.Length - 1;
    StencilProgram ShortP = buildChain(Short);
    FieldMap ShortOut = runThroughLibrary(Short);
    if (ShortOut.empty())
      return Tag + ": the short library run failed";
    FieldMap Renamed;
    for (size_t I = 0; I != P.Outputs.size(); ++I)
      Renamed[P.Outputs[I]] = ShortOut.at(ShortP.Outputs[I]);
    if (checkOutputs(Spec, Naive, Renamed).empty())
      return Tag + ": the chain one step short was accepted";

    // One CRC bit flipped on the wire, and one output bit flipped.
    uint64_t Crc = fnv1a(P.Outputs, Good);
    serve::Response Resp;
    Resp.Ok = true;
    Resp.CacheHit = true;
    Resp.OutputsCrc = Crc;
    if (!crcMatches(Resp.toJsonText(), Crc))
      return Tag + ": a true outputs_crc was rejected";
    Resp.OutputsCrc = Crc ^ (1ull << 17);
    if (crcMatches(Resp.toJsonText(), Crc))
      return Tag + ": an outputs_crc with one bit flipped was accepted";
    FieldMap Flipped = Good;
    double &Cell = Flipped.at(P.Outputs.front())[5];
    uint64_t Bits;
    std::memcpy(&Bits, &Cell, sizeof Bits);
    Bits ^= 1ull << 40;
    std::memcpy(&Cell, &Bits, sizeof Bits);
    if (fnv1a(P.Outputs, Flipped) == Crc)
      return Tag + ": the CRC missed one output bit flipped";
  }
  return "";
}
