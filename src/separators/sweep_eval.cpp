#include "separators/sweep_eval.hpp"

#include <algorithm>

namespace mmd {

SubsetWeightStats subset_weight_stats(std::span<const double> weights,
                                      std::span<const Vertex> w_list) {
  SubsetWeightStats s;
  for (Vertex v : w_list) {
    const double w = weights[static_cast<std::size_t>(v)];
    s.total += w;
    s.max = std::max(s.max, w);
  }
  return s;
}

namespace {

// The better-of-two rule lives in exactly one place (these two helpers):
// best_prefix, SweepEval's BetterOfTwo scan, and the crossing recorded
// inside the WindowMin scan all route through it, so the tie/rounding
// arithmetic cannot drift between consumers.

struct ChosenPrefix {
  std::size_t len;
  double weight;  ///< running-sum weight of the chosen prefix
};

/// Resolve the crossing at index i (prefix weight acc <= t, next vertex
/// weight w with acc + w > t): the nearer of the two prefixes around the
/// target, ties to the shorter.
ChosenPrefix better_of_two(std::size_t i, double acc, double w, double t) {
  const double below = t - acc;        // error of prefix of length i
  const double above = (acc + w) - t;  // error of prefix of length i+1
  return below <= above ? ChosenPrefix{i, acc} : ChosenPrefix{i + 1, acc + w};
}

/// Scan `order` for the crossing of `target` (already clamped) and apply
/// the better-of-two rule; the full order when the target is its total.
ChosenPrefix crossing_prefix(std::span<const Vertex> order,
                             std::span<const double> weights, double target) {
  double acc = 0.0;
  std::size_t i = 0;
  // Find the crossing prefix: acc <= target, acc + w_next > target.
  while (i < order.size()) {
    const double w = weights[static_cast<std::size_t>(order[i])];
    if (acc + w > target) break;
    acc += w;
    ++i;
  }
  if (i == order.size()) return {i, acc};  // target == total
  return better_of_two(i, acc,
                       weights[static_cast<std::size_t>(order[i])], target);
}

}  // namespace

std::size_t best_prefix(std::span<const Vertex> order,
                        std::span<const double> weights, double target,
                        double total) {
  return crossing_prefix(order, weights, std::clamp(target, 0.0, total)).len;
}

std::size_t best_prefix(std::span<const Vertex> order,
                        std::span<const double> weights, double target) {
  double total = 0.0;
  for (Vertex v : order) total += weights[static_cast<std::size_t>(v)];
  return best_prefix(order, weights, target, total);
}

namespace {

/// Exact d_W(prefix), the same term order as boundary_cost_within, with a
/// monotone early exit: costs are non-negative, so once the partial sum
/// reaches `bound` the final sum cannot fall below it again and the caller
/// (who accepts strictly cheaper candidates only) may discard the
/// candidate without finishing.  `in_u` must represent exactly `prefix`.
double exact_prefix_cost(const Graph& g, std::span<const Vertex> prefix,
                         const Membership& in_u, const Membership& in_w,
                         double bound, bool& pruned) {
  double s = 0.0;
  for (Vertex v : prefix) {
    for (const HalfEdge& h : g.incidence(v))
      if (in_w.contains(h.to) && !in_u.contains(h.to)) s += h.cost;
    if (s >= bound) {  // checked per vertex: cheap, and still early
      pruned = true;
      return s;
    }
  }
  pruned = false;
  return s;
}

/// Mark order[0..len) into in_u (clobbering whatever it held).
void assign_prefix(Membership& in_u, std::span<const Vertex> order,
                   std::size_t len) {
  in_u.clear();
  for (std::size_t i = 0; i < len; ++i) in_u.add(order[i]);
}

}  // namespace

SweepEvalResult SweepEval::eval(const Graph& g, std::span<const Vertex> order,
                                std::span<const double> weights, double target,
                                const SubsetWeightStats& stats,
                                const Membership& in_w, Membership& in_u,
                                SweepMode mode, double prune_bound) {
  const SweepHorizon horizon(weights, target, stats);
  const double t = horizon.t;
  SweepEvalResult out;

  // --- locate the candidate prefixes -----------------------------------
  // The weight accumulation below is the exact arithmetic sequence of
  // best_prefix (acc += w in order sequence), so the BetterOfTwo choice is
  // bit-identical to the seed rule, and prefix weights are bit-identical
  // to a set_measure over the prefix.
  std::size_t b2 = 0;        // better-of-two prefix length
  double b2_weight = 0.0;    // w(prefix of length b2)
  std::size_t win = order.size() + 1;  // WindowMin argmin (sentinel: none)
  double win_weight = 0.0;

  if (mode == SweepMode::BetterOfTwo) {
    const ChosenPrefix c = crossing_prefix(order, weights, t);
    b2 = c.len;
    b2_weight = c.weight;
  } else {
    // One incremental scan: running prefix weight and running boundary
    // cost via per-vertex deltas (edges leaving the prefix added, edges
    // absorbed subtracted).  Every prefix whose weight lies inside the
    // hard window |w(P_i) - w*| <= ||w|W||_inf/2 is a legal splitting set
    // (Definition 3); track the first of minimal running cost.  The scan
    // stops at the SweepHorizon: once the running weight passes t + window
    // (weights are non-negative, so no later prefix can re-enter the
    // window).
    const double window = horizon.window;
    prefix_cost_.resize(std::max(prefix_cost_.size(), order.size() + 1));
    prefix_cost_[0] = 0.0;
    scanned_ = 0;
    in_u.clear();
    double acc = 0.0, run = 0.0;
    double win_run = std::numeric_limits<double>::infinity();
    bool crossed = false;
    std::size_t i = 0;
    if (std::abs(0.0 - t) <= window && order.size() > 0) {
      win = 0;  // the empty prefix can be a legal window candidate
      win_weight = 0.0;
      win_run = 0.0;
    }
    while (i < order.size()) {
      const Vertex v = order[i];
      const double w = weights[static_cast<std::size_t>(v)];
      if (!crossed && acc + w > t) {
        // The crossing: record the seed's better-of-two choice.
        const ChosenPrefix c = better_of_two(i, acc, w, t);
        b2 = c.len;
        b2_weight = c.weight;
        crossed = true;
      }
      if (horizon.passed(acc)) break;  // left the window for good
      for (const HalfEdge& h : g.incidence(v)) {
        if (!in_w.contains(h.to)) continue;
        run += in_u.contains(h.to) ? -h.cost : h.cost;
      }
      in_u.add(v);
      acc += w;
      ++i;
      prefix_cost_[i] = run;
      scanned_ = i;
      if (std::abs(acc - t) <= window && run < win_run) {
        win = i;
        win_weight = acc;
        win_run = run;
      }
    }
    if (!crossed) {  // target == total: the full order is the crossing
      b2 = order.size();
      b2_weight = acc;
    }
  }

  // --- exact costs (and pruning) at the chosen prefixes ----------------
  // The reported cost is always an exact from-scratch sum in the same
  // term order as boundary_cost_within, so the default mode is
  // bit-identical to the recompute path and WindowMin's running-delta
  // rounding never leaks into reported costs or downstream decisions.
  assign_prefix(in_u, order, b2);
  bool b2_pruned = false;
  const double b2_cost = exact_prefix_cost(g, order.first(b2), in_u, in_w,
                                           prune_bound, b2_pruned);

  out.prefix_len = b2;
  out.weight = b2_weight;
  out.cost = b2_cost;
  out.pruned = b2_pruned;

  if (mode == SweepMode::WindowMin && win <= order.size() && win != b2) {
    // The window argmin must beat the (possibly pruned) better-of-two
    // prefix strictly — ties keep the seed's choice — and the incumbent
    // bound still applies.
    const double bound =
        b2_pruned ? prune_bound : std::min(prune_bound, b2_cost);
    assign_prefix(in_u, order, win);
    bool win_pruned = false;
    const double win_cost = exact_prefix_cost(g, order.first(win), in_u, in_w,
                                              bound, win_pruned);
    if (!win_pruned) {
      out.prefix_len = win;
      out.weight = win_weight;
      out.cost = win_cost;
      out.pruned = false;
    } else if (!b2_pruned) {
      assign_prefix(in_u, order, b2);  // restore in_u = reported prefix
    }
  }
  return out;
}

}  // namespace mmd
