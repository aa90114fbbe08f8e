// SweepEval: the incremental prefix-cost engine behind every sweep-order
// candidate in the splitter stack.
//
// Each candidate ordering v_1, ..., v_|W| of a split is judged by the
// boundary cost d_W(P_i) of one of its prefixes P_i = {v_1, ..., v_i}.
// The seed evaluated a candidate with two independent passes — a
// weight-prefix scan (best_prefix) followed by a from-scratch
// boundary_cost_within over the chosen prefix — and re-summed the total
// subset weight per order even though it is invariant across all orders of
// one split.  SweepEval fuses the whole evaluation into a single scan:
//
//   * the running prefix weight is accumulated vertex by vertex (the exact
//     arithmetic sequence of best_prefix, so prefix choice is bit-identical
//     to the seed's better-of-two rule);
//   * the running boundary cost is maintained by per-vertex deltas — edges
//     leaving the growing prefix are added, edges absorbed into it are
//     subtracted — so the cost of *every* prefix is available for the
//     price of one boundary recompute (cost(P_{i+1}) = cost(P_i)
//     + c(v_{i+1}, W \ P_{i+1}) - c(v_{i+1}, P_i));
//   * the final reported cost is an exact from-scratch sum over the chosen
//     prefix (same term order as boundary_cost_within), so the default
//     mode returns bit-identical costs to the recompute path, and the
//     pass doubles as a prune: with a caller-supplied incumbent bound, the
//     monotone non-decreasing partial sums allow abandoning a dominated
//     candidate the moment its partial cost reaches the bound.
//
// Two prefix-choice rules are offered (SweepMode):
//   * BetterOfTwo — the crossing prefix rounded to the nearer side of the
//     target, exactly the seed's rule (Definition 3's hard window follows
//     from ||w||_inf/2-closeness of one of the two crossing prefixes);
//   * WindowMin — the paper-faithful improvement: the cheapest prefix
//     *anywhere* inside the hard weight window |w(P_i) - w*| <= ||w|W||_inf/2,
//     located by the incremental scan and never worse than BetterOfTwo
//     (both candidates are re-costed exactly and the cheaper one wins,
//     ties to BetterOfTwo).
#pragma once

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/subgraph.hpp"

namespace mmd {

/// Aggregates of w|W that are invariant across every candidate ordering of
/// one split: computed once per split() and passed to each evaluation
/// (and to FM refinement) instead of being re-summed per order.
struct SubsetWeightStats {
  double total = 0.0;  ///< w(W), summed in w_list order
  double max = 0.0;    ///< ||w|W||_inf (the hard-window half-width is max/2)
};

/// One pass over w_list; the accumulation order is w_list order, which is
/// also the order the split-contract checker uses.
SubsetWeightStats subset_weight_stats(std::span<const double> weights,
                                      std::span<const Vertex> w_list);

/// The point where SweepEval stops reading an order.  Sum the weights of
/// an order's vertices from 0.0 in order, and let t be the target clamped
/// to [0, w(W)]: once the running sum acc has acc - t > ||w|W||_inf/2,
/// neither that prefix nor any longer one lies inside the hard window
/// (weights are non-negative), and the better-of-two crossing came
/// before it.  An order built for one split (the BFS candidate) may
/// therefore end at the first vertex that takes acc past the horizon.
/// `passed` is the one spelling of the test: `acc > t + window` can round
/// differently.
struct SweepHorizon {
  SweepHorizon(std::span<const double> w, double target,
               const SubsetWeightStats& stats)
      : weights(w),
        t(std::clamp(target, 0.0, stats.total)),
        window(stats.max / 2.0) {}

  bool passed(double acc) const { return acc - t > window; }

  std::span<const double> weights;  ///< the split's vertex measure
  double t;                         ///< target clamped to [0, w(W)]
  double window;                    ///< ||w|W||_inf / 2
};

/// Prefix-choice rule of one evaluation (see file comment).
enum class SweepMode {
  BetterOfTwo,  ///< seed rule: crossing prefix, nearer side of the target
  WindowMin,    ///< cheapest prefix inside the hard weight window
};

/// Outcome of evaluating one candidate ordering.
struct SweepEvalResult {
  std::size_t prefix_len = 0;  ///< chosen prefix length
  double weight = 0.0;         ///< w(prefix), running-sum arithmetic
  double cost = 0.0;           ///< exact d_W(prefix); meaningless if pruned
  bool pruned = false;         ///< cost reached prune_bound; candidate loses
};

/// The engine.  Holds only growable scratch (the per-prefix running-cost
/// record of the last WindowMin scan), so a persistent instance — one per
/// splitter, one per parallel evaluation slot — is allocation-free in
/// steady state.  Not thread-safe; concurrent evaluations need one engine
/// each (they already have one membership marker each for the same reason).
class SweepEval {
 public:
  /// Evaluate `order`: a permutation of the split's W, or a prefix of one
  /// that ends at or after the first vertex whose running weight passes
  /// the split's SweepHorizon.  Both modes stop reading there, so such a
  /// prefix returns exactly what the whole permutation does (prefix_costs()
  /// included).
  ///
  /// \param stats       subset_weight_stats of the split's W (hoisted)
  /// \param in_w        must represent exactly the split's W
  /// \param in_u        scratch marker, clobbered; on return it represents
  ///                    the chosen prefix (callers reuse it, e.g. to seed
  ///                    FM refinement) unless the candidate was pruned
  /// \param prune_bound evaluation may stop early once the exact cost
  ///                    provably reaches this bound (partial sums of
  ///                    non-negative costs are monotone); the returned
  ///                    result then has pruned == true.  A candidate whose
  ///                    true cost is below the bound is never pruned, and
  ///                    its reported cost is unaffected by the bound —
  ///                    so pruning with the incumbent best cost is
  ///                    invisible to a strictly-cheaper-wins reduction.
  SweepEvalResult eval(const Graph& g, std::span<const Vertex> order,
                       std::span<const double> weights, double target,
                       const SubsetWeightStats& stats, const Membership& in_w,
                       Membership& in_u, SweepMode mode,
                       double prune_bound = std::numeric_limits<double>::infinity());

  /// Running cost at every prefix scanned by the last WindowMin eval:
  /// entry i is the incrementally maintained d_W(P_i) for i = 0..scanned
  /// (the scan stops once the prefix weight leaves the window for good).
  /// Exposed for tests and diagnostics; BetterOfTwo evals do not fill it.
  std::span<const double> prefix_costs() const {
    if (prefix_cost_.empty()) return {};  // no WindowMin eval ran yet
    return {prefix_cost_.data(), scanned_ + 1};
  }

 private:
  std::vector<double> prefix_cost_;  ///< WindowMin running-cost record
  std::size_t scanned_ = 0;          ///< prefixes recorded by the last scan
};

/// Split a single ordering by the better-of-two-prefixes rule; exposed for
/// tests and simple consumers.  Returns the chosen prefix length.
std::size_t best_prefix(std::span<const Vertex> order,
                        std::span<const double> weights, double target);

/// Same rule with the total subset weight presummed (it is invariant
/// across all orderings of one subset, so per-split callers hoist it).
std::size_t best_prefix(std::span<const Vertex> order,
                        std::span<const double> weights, double target,
                        double total);

}  // namespace mmd
