// Lemma 9: balance one more measure on top of an existing k-coloring.
//
// Input: an arbitrary k-coloring chi and measures Phi(1), ..., Phi(r)
// (measures[0] = Psi = Phi(1) is the one to balance; the others are
// preserved up to constant factors).  Output: a coloring chi_hat with
//   ||Phi(1) chi_hat^-1||_inf = O(||Phi(1)||_avg + ||Phi(1)||_inf)
//   ||Phi(j) chi_hat^-1||_inf = O(||Phi(j) chi^-1||_inf + ||Phi(j)||_inf)
//   ||d chi_hat^-1||_avg      = O(||d chi^-1||_avg + q k^{-1/p} sigma_p ||c||_p)
//
// Mechanics (procedure Move): colors are Light / Medium / Heavy by the
// Psi-weight of their tentative class; every heavy pending color i is
// resolved by cutting a near-average splitting set U out of tent(i),
// keeping U as the final class of i, and handing the two halves of a
// Lemma-8 multi-balanced 2-coloring of the remainder to two light colors,
// which become pending.  The transfers form a binary forest F whose depth
// is logarithmic (Claim 5), which bounds both the added boundary cost
// (Claims 6-7) and the running time O(t(|G|) log k).
#pragma once

#include "core/multi_split.hpp"
#include "graph/coloring.hpp"

namespace mmd {

struct RebalanceStats {
  int moves = 0;            ///< number of Move(i) executions that split
  int max_forest_depth = 0; ///< deepest chain of transfers (Claim 5)
  double cut_cost = 0.0;    ///< total cost of splitter cuts applied
};

struct RebalanceOptions {
  /// Heavy threshold multipliers: heavy iff Psi(tent) >= heavy_avg_factor *
  /// ||Psi||_avg + heavy_max_factor(r) * ||Psi||_inf.  The paper uses 3 and
  /// 2^r; both are configurable for the ablation bench.
  double heavy_avg_factor = 3.0;
  bool paper_max_factor = true;  ///< use 2^r (else 1.0) for the max term
};

/// Lemma 9.  `chi` must be a total k-coloring of the whole graph; the
/// returned coloring is total as well.  `ws` (optional) lends the Move
/// loop and the Lemma 8 recursion their membership scratch.
Coloring rebalance(const Graph& g, const Coloring& chi,
                   std::span<const MeasureRef> measures, ISplitter& splitter,
                   const RebalanceOptions& options = {},
                   RebalanceStats* stats = nullptr,
                   DecomposeWorkspace* ws = nullptr);

}  // namespace mmd
