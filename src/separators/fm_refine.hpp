// Fiduccia–Mattheyses-style local refinement of a 2-way split.
//
// Starting from a feasible splitting set U of W, repeatedly move boundary
// vertices across the cut when doing so lowers the boundary cost while
// keeping the weight inside the hard window |w(U) - w*| <= ||w|W||_inf/2.
// Moves are strictly improving (gain > 0; monotone objective, no hill
// climbing), so the weight-window postcondition of the splitter contract is
// preserved by construction and termination is immediate.  At most three
// passes run, each walking W in w_list order and applying every legal
// improving move it meets; a pass that moves nothing ends the refinement.
//
// Frontier passes.  Gains are computed only for vertices on a one-byte
// frontier marker that holds both endpoints of every cut edge of G[W]: it
// is seeded from U's incidences, and each moved vertex adds its
// W-neighbours now across the cut.  A vertex off the marker has no
// W-neighbour across the cut, so its gain is 0 minus its cost toward its
// own side — never positive — and the full scan would not have moved it
// either.  The passes therefore make the same moves in the same order as a
// gain evaluation at every vertex of W, with the same weights and costs,
// while the gain work follows the cut (as in Fiduccia and Mattheyses,
// "A linear-time heuristic for improving network partitions", 1982).
#pragma once

#include "separators/splitter.hpp"
#include "separators/sweep_eval.hpp"

namespace mmd {

/// Refine `result` in place.  `result.inside` must be a subset of w_list.
/// Returns the number of moves applied.
int fm_refine_split(const Graph& g, std::span<const Vertex> w_list,
                    std::span<const double> weights, double target,
                    SplitResult& result);

/// Scratch-reusing variant for the splitters: `in_w` must already
/// represent exactly w_list and `stats` must be subset_weight_stats of
/// w_list (hoisted once per split, sparing the w(W) / ||w|W||_inf pass that
/// seeds the move window); `in_u` and `frontier` are clobbered.  No
/// allocation beyond growing `result.inside`.
int fm_refine_split(const Graph& g, std::span<const Vertex> w_list,
                    std::span<const double> weights, double target,
                    SplitResult& result, const Membership& in_w,
                    Membership& in_u, Membership& frontier,
                    const SubsetWeightStats& stats);

}  // namespace mmd
