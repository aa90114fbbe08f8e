// Weight-proportional recursive bisection (Simon & Teng [8]).
//
// Splits the vertex set recursively with splitting sets at
// weight-proportional targets.  Guarantees: total cut cost
// O(k^{1-1/p} ||c||_p sigma_p) (hence bounded *average* boundary), class
// weights near-proportional — but no bound on the *maximum* boundary cost
// and no strict balance; exactly the baseline the paper improves on.
//
// Lives in core (not baselines/) because the pipeline can use it as a
// warm start (DecomposeOptions::init): bisection + binpack2 + refinement
// is often the practically cheapest strictly balanced coloring, while the
// paper pipeline carries the worst-case guarantee; InitMethod::Best runs
// both and keeps the better.
#pragma once

#include "core/workspace.hpp"
#include "graph/coloring.hpp"
#include "separators/splitter.hpp"

namespace mmd {

/// `ws` (optional) lends the n-sized marker each recursion node needs to
/// split off its right half, so the recursion allocates no marker.
Coloring recursive_bisection_coloring(const Graph& g, std::span<const double> w,
                                      int k, ISplitter& splitter,
                                      DecomposeWorkspace* ws = nullptr);

}  // namespace mmd
