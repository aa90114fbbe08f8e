// Geometric splitter for coordinate-bearing instances (meshes, geometric
// graphs) — the practical face of the Miller–Teng–Thurston–Vavasis
// geometric separator theorems the paper cites in Remark 36: well-shaped
// meshes and kNN graphs in R^d admit O(n^{1-1/d}) separators found by
// random sphere/halfspace cuts.
//
// The splitter samples random directions (halfspace sweeps) and random
// sphere centers (radial sweeps), orders the vertices along each, picks a
// prefix by the stamped SweepMode (better-of-two by default; WindowMin
// takes the cheapest prefix inside the hard ||w||_inf/2 window),
// keeps the cheapest cut, and optionally FM-refines it.  Deterministic
// per seed.
#pragma once

#include <cstdint>

#include "separators/splitter.hpp"

namespace mmd {

struct GeometricSplitterOptions {
  int directions = 6;   ///< random halfspace sweeps
  int spheres = 4;      ///< random radial sweeps
  bool refine = true;
  std::uint64_t seed = 41;
};

class GeometricSplitter final : public ISplitter {
 public:
  explicit GeometricSplitter(GeometricSplitterOptions options = {})
      : options_(options) {}

  SplitResult split(const SplitRequest& request) override;
  std::string name() const override { return "geometric"; }

  /// Every sweep (halfspace and radial) evaluates through SweepEval with
  /// the stamped mode — historically this path hardcoded the better-of-two
  /// rule and silently dropped window-rule requests.
  bool supports_sweep_mode(SweepMode) const override { return true; }

  /// Stateless between splits (deterministic per-options seed), so a lane
  /// is simply a fresh instance with the same options — multi_split's
  /// lane tree can hold arbitrarily many.
  std::unique_ptr<ISplitter> make_lane() override {
    return std::make_unique<GeometricSplitter>(options_);
  }

 private:
  GeometricSplitterOptions options_;
};

}  // namespace mmd
