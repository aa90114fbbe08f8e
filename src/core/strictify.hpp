// Proposition 11: the shrink-and-conquer recursion.
//
// Transforms any weakly balanced k-coloring into an *almost strictly
// balanced* one (class weights within 2 ||w||_inf of the average) without
// increasing the maximum boundary cost or splitting cost by more than a
// constant factor:
//
//   rec(W, chi):
//     if ||w||_inf is a non-trivial fraction of the average class weight
//        (the paper's base case ||w||_inf > eps^5 ||w|W||_avg), or W is
//        small: one conquer step (binpack1 with an empty W1) suffices;
//     else:
//        (chi0 on W0, chi1 on W1) = shrink_once(chi)      [Section 5]
//        chi1_hat = rec(W1, chi1)                          [costs shrank
//                                                           geometrically]
//        chi0_tilde = binpack1(chi0, class weights of chi1_hat) [Lemma 15]
//        return chi0_tilde + chi1_hat
//
// Costs do not accumulate across levels because shrink_once reduces the
// maximum splitting and boundary costs of chi1 geometrically (Definition
// 13 b) while binpack1 touches every class O(1) times.
#pragma once

#include "core/shrink.hpp"

namespace mmd {

struct StrictifyParams {
  ShrinkParams shrink;
  /// Base case: stop recursing when ||w|W||_inf > base_eps * avg class
  /// weight (the paper's eps^5 threshold, exposed directly).
  double base_eps = 0.05;
  /// Base case: stop recursing when |W| <= min_vertices_factor * k.
  int min_vertices_factor = 8;
};

struct StrictifyStats {
  int levels = 0;
  double cut_cost = 0.0;
};

/// Proposition 11.  `chi` must be a total k-coloring; the result is a
/// total, almost strictly balanced k-coloring.  `preserve` measures are
/// kept light in every moved part (multi-balanced variant).
Coloring strictify_almost(const Graph& g, const Coloring& chi,
                          std::span<const double> w, std::span<const double> pi,
                          ISplitter& splitter, const StrictifyParams& params = {},
                          StrictifyStats* stats = nullptr,
                          std::span<const MeasureRef> preserve = {},
                          DecomposeWorkspace* ws = nullptr);

}  // namespace mmd
