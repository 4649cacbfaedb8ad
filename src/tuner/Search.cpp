//===- tuner/Search.cpp - Deterministic design-space search -------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tuner/Search.h"

#include "support/Random.h"

#include <algorithm>

using namespace stencilflow;
using namespace stencilflow::tuner;

bool stencilflow::tuner::rankByPrediction(const CandidateRecord &A,
                                          const CandidateRecord &B) {
  if (A.Cost.Feasible != B.Cost.Feasible)
    return A.Cost.Feasible;
  if (A.Cost.Feasible) {
    if (A.Cost.PredictedSeconds != B.Cost.PredictedSeconds)
      return A.Cost.PredictedSeconds < B.Cost.PredictedSeconds;
    if (A.Cost.Devices != B.Cost.Devices)
      return A.Cost.Devices < B.Cost.Devices;
    if (A.Cost.PeakUtilization != B.Cost.PeakUtilization)
      return A.Cost.PeakUtilization < B.Cost.PeakUtilization;
  }
  return A.Mapping.id() < B.Mapping.id();
}

namespace {

/// Linearizes/delinearizes axis indices over the 5D space so visited
/// candidates dedup on a flat bitmap instead of string ids.
struct AxisGrid {
  static constexpr int Axes = 5;
  size_t Sizes[Axes];

  explicit AxisGrid(const DesignSpace &Space)
      : Sizes{Space.vectorWidths().size(), Space.fusionLevels().size(),
              Space.deviceCounts().size(),
              Space.targetUtilizations().size(),
              Space.temporalDegrees().size()} {}

  size_t linearize(const size_t Index[Axes]) const {
    size_t Linear = Index[0];
    for (int Axis = 1; Axis != Axes; ++Axis)
      Linear = Linear * Sizes[Axis] + Index[Axis];
    return Linear;
  }

  void delinearize(size_t Linear, size_t Index[Axes]) const {
    for (int Axis = Axes - 1; Axis != 0; --Axis) {
      Index[Axis] = Linear % Sizes[Axis];
      Linear /= Sizes[Axis];
    }
    Index[0] = Linear;
  }
};

/// Tracks costed candidates and appends records in exploration order.
class Explorer {
public:
  Explorer(const DesignSpace &Space, const CostModel &Model,
           SearchResult &Result, int Budget)
      : Space(Space), Model(Model), Result(Result), Grid(Space),
        Visited(Space.size(), false), Budget(Budget) {}

  bool budgetLeft() const {
    return Result.Records.size() < static_cast<size_t>(Budget);
  }

  /// Costs the candidate at \p Linear unless already visited or out of
  /// budget. Returns true when a new record was appended.
  bool explore(size_t Linear, int Round) {
    if (Visited[Linear] || !budgetLeft())
      return false;
    Visited[Linear] = true;
    size_t Index[AxisGrid::Axes];
    Grid.delinearize(Linear, Index);
    CandidateRecord Record;
    Record.Mapping =
        Space.at(Index[0], Index[1], Index[2], Index[3], Index[4]);
    Record.Cost = Model.cost(Record.Mapping);
    Record.Round = Round;
    Result.Records.push_back(std::move(Record));
    return true;
  }

  const AxisGrid &grid() const { return Grid; }

private:
  const DesignSpace &Space;
  const CostModel &Model;
  SearchResult &Result;
  AxisGrid Grid;
  std::vector<bool> Visited;
  int Budget;
};

} // namespace

SearchResult
stencilflow::tuner::searchDesignSpace(const DesignSpace &Space,
                                      const CostModel &Model,
                                      const SearchOptions &Options,
                                      const CandidateMapping &Default) {
  SearchResult Result;
  int Budget = std::max(1, Options.CandidateBudget);
  Explorer Exp(Space, Model, Result, Budget);
  AxisGrid Grid(Space);

  if (Space.size() <= static_cast<size_t>(Budget)) {
    // Small space: sweep every point in enumeration order.
    Result.Kind = "exhaustive";
    for (size_t Linear = 0; Linear != Space.size(); ++Linear)
      Exp.explore(Linear, 0);
    return Result;
  }

  // Seeded beam search. The initial beam is the default mapping plus
  // deterministically random points; each round expands every beam member
  // one step along each axis and keeps the analytically best BeamWidth.
  Result.Kind = "beam";
  int BeamWidth = std::max(1, Options.BeamWidth);
  Random Rng(Options.Seed);

  std::vector<size_t> Beam;
  size_t Index[AxisGrid::Axes];
  Space.closestIndices(Default, Index);
  Beam.push_back(Grid.linearize(Index));
  for (int Attempt = 0;
       static_cast<int>(Beam.size()) < BeamWidth && Attempt < 16 * BeamWidth;
       ++Attempt) {
    size_t Pick = Rng.nextBounded(Space.size());
    if (std::find(Beam.begin(), Beam.end(), Pick) == Beam.end())
      Beam.push_back(Pick);
  }
  for (size_t Linear : Beam)
    Exp.explore(Linear, 0);

  for (int Round = 1; Exp.budgetLeft(); ++Round) {
    bool Expanded = false;
    for (size_t Linear : Beam) {
      Grid.delinearize(Linear, Index);
      for (int Axis = 0; Axis != AxisGrid::Axes; ++Axis) {
        for (int Step : {-1, +1}) {
          if (Step < 0 && Index[Axis] == 0)
            continue;
          if (Step > 0 && Index[Axis] + 1 >= Grid.Sizes[Axis])
            continue;
          size_t Neighbor[AxisGrid::Axes] = {Index[0], Index[1], Index[2],
                                             Index[3], Index[4]};
          Neighbor[Axis] += Step;
          Expanded |= Exp.explore(Grid.linearize(Neighbor), Round);
        }
      }
    }
    if (!Expanded)
      break; // Frontier closed: every neighbor is already costed.

    // Re-rank everything costed so far and keep the best BeamWidth as the
    // next frontier. Ties break on the id string — never container order.
    std::vector<size_t> Order(Result.Records.size());
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      return rankByPrediction(Result.Records[A], Result.Records[B]);
    });
    Beam.clear();
    for (size_t I = 0;
         I != Order.size() && static_cast<int>(Beam.size()) < BeamWidth;
         ++I) {
      const CandidateMapping &M = Result.Records[Order[I]].Mapping;
      Space.closestIndices(M, Index);
      Beam.push_back(Grid.linearize(Index));
    }
  }
  return Result;
}
