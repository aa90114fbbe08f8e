// Orthogonal recursive coordinate bisection (ORB) baseline.  The
// weight-proportional recursive bisection baseline of Simon & Teng [8] is
// recursive_bisection_coloring in core/bisection.hpp.
#pragma once

#include "graph/coloring.hpp"

namespace mmd {

/// Orthogonal recursive coordinate bisection (the classical ORB mesh
/// partitioner): recursively cut at the weighted prefix along the widest
/// coordinate axis, k1 = k/2 of the parts proportionally on the low side.
/// Pure geometry — no boundary-cost objective at all — which makes it the
/// natural "what a mesh library ships by default" baseline column for the
/// quality suites.  Requires coordinates.
Coloring orthogonal_recursive_bisection(const Graph& g,
                                        std::span<const double> w, int k);

}  // namespace mmd
