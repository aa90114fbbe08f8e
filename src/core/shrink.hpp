// The epsilon-shrinking procedure (Section 5, Definition 13, Lemma 14).
//
// Input: a weakly balanced k-coloring chi of a vertex set W.  Output: two
// partial colorings chi0 (on W0) and chi1 (on W1) with W0 + W1 = W where
//   a) chi0 is almost strictly balanced with class weights in
//      [eps * Psi*, eps * Psi* + ||w||_inf]  (Psi* = w(W)/k),
//   b) chi1 is weakly balanced and every tracked quantity — the splitting
//      cost measure pi, the residual graph size (deg_W measure), and the
//      boundary costs — shrinks geometrically,
//   c) |G[W1]| <= (1 - Theta(eps)) |G[W]|.
//
// Procedure Shrink = CutDown* ; AddTo* ; ReduceBuffer* ; per-class
// Corollary-18 extraction.  CutDown peels cheap parts (Cor. 16) off
// over-heavy classes into a buffer; AddTo tops up under-light classes from
// the buffer (or from a heavy donor, Cor. 17); ReduceBuffer drains
// leftovers onto below-average classes; finally every class donates a
// "hitting" part (Cor. 18) that becomes its W0 class, guaranteeing the
// geometric decrease on W1.
#pragma once

#include "core/parts.hpp"
#include "graph/coloring.hpp"

namespace mmd {

struct ShrinkParams {
  double eps = 0.35;  ///< part size as a fraction of the average class weight
};

struct ShrinkOutput {
  std::vector<Vertex> w0, w1;
  Coloring chi0;  ///< partial coloring: colored exactly on W0
  Coloring chi1;  ///< partial coloring: colored exactly on W1
  double cut_cost = 0.0;
};

/// One shrinking step.  `w_list` is W; `chi` must color exactly W (all
/// other vertices kUncolored).  `pi` is the splitting cost measure.
/// `preserve` are additional measures the moved parts should stay light in
/// (the Conclusion's multi-balanced variant feeds the user measures here).
ShrinkOutput shrink_once(const Graph& g, std::span<const Vertex> w_list,
                         const Coloring& chi, std::span<const double> w,
                         std::span<const double> pi, ISplitter& splitter,
                         const ShrinkParams& params = {},
                         std::span<const MeasureRef> preserve = {},
                         DecomposeWorkspace* ws = nullptr);

}  // namespace mmd
