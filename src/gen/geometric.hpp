// Geometric graph families with separator theorems (Remark 36):
//   * random geometric graphs (unit-disk style) — well-shaped 2-D meshes
//   * k-nearest-neighbor graphs — beta_{d/(d-1)} = O_d(k^{1/d})
// Points are laid on an integer lattice jittered inside cells so that the
// graphs carry integer coordinates (scaled by `resolution`) and bounded
// degree, matching the paper's well-behavedness assumptions.
#pragma once

#include <cstdint>

#include "gen/costs.hpp"
#include "graph/graph.hpp"

namespace mmd {

/// Random geometric graph on n points in [0,1]^2; vertices joined when
/// within `radius`.  Degree is capped at `max_degree` (closest first) to
/// preserve bounded degree.  Costs: distance-decaying from `costs.hi`
/// (touching) to `costs.lo` (at radius) unless the model is Unit.
Graph make_random_geometric(int n, double radius, const CostParams& costs = {},
                            std::uint64_t seed = 11, int max_degree = 12);

/// Symmetrized k-nearest-neighbor graph on n random points in [0,1]^2.
Graph make_knn(int n, int k, const CostParams& costs = {},
               std::uint64_t seed = 13);

/// 3-D random geometric graph on n points in [0,1]^3 (unit-ball style),
/// same degree cap and cost models as make_random_geometric.  Carries
/// 3-axis integer coordinates, so it exercises the d >= 3 sweep and
/// splitter paths (per-axis orders, 3-D Morton keys, no grid splitter).
Graph make_random_geometric3(int n, double radius, const CostParams& costs = {},
                             std::uint64_t seed = 17, int max_degree = 14);

/// Anisotropic 2-D geometric graph: n points in a [0,1] x [0,1/aspect]
/// slab (aspect >= 1), joined within `radius`.  The flattened geometry
/// gives strongly direction-dependent cut costs — the workload where a
/// single sweep family misjudges and window prefix picks matter.
Graph make_aniso_geometric(int n, double radius, double aspect,
                           const CostParams& costs = {},
                           std::uint64_t seed = 19, int max_degree = 12);

}  // namespace mmd
