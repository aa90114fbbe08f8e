#include "separators/fm_refine.hpp"

#include <algorithm>
#include <cmath>

namespace mmd {

namespace {

// Full passes over W; a pass that moves nothing ends the refinement early.
constexpr int kMaxPasses = 3;

}  // namespace

int fm_refine_split(const Graph& g, std::span<const Vertex> w_list,
                    std::span<const double> weights, double target,
                    SplitResult& result) {
  Membership in_w(g.num_vertices());
  in_w.assign(w_list);
  Membership in_u(g.num_vertices());
  Membership frontier(g.num_vertices());
  // The stats pass is the same accumulation sequence the splitters hoist,
  // so both entry points drive identical move windows.
  return fm_refine_split(g, w_list, weights, target, result, in_w, in_u,
                         frontier, subset_weight_stats(weights, w_list));
}

int fm_refine_split(const Graph& g, std::span<const Vertex> w_list,
                    std::span<const double> weights, double target,
                    SplitResult& result, const Membership& in_w,
                    Membership& in_u, Membership& frontier,
                    const SubsetWeightStats& stats) {
  in_u.assign(result.inside);

  // Seed the frontier with both endpoints of every cut edge of G[W]; every
  // cut edge has its U endpoint in result.inside.
  frontier.clear();
  for (Vertex u : result.inside) {
    for (const HalfEdge& h : g.incidence(u)) {
      if (!in_w.contains(h.to) || in_u.contains(h.to)) continue;
      frontier.add(u);
      frontier.add(h.to);
    }
  }

  const double total = stats.total;
  const double wmax = stats.max;
  const double t = std::clamp(target, 0.0, total);
  const double window = wmax / 2.0 + 1e-12 * std::max(1.0, total);

  double weight = result.weight;
  double cut = result.boundary_cost;

  // gain(v) = (cost toward the other side) - (cost toward own side), i.e.
  // the cut reduction if v switches sides within G[W].
  auto gain = [&](Vertex v) {
    const bool inside = in_u.contains(v);
    double toward_other = 0.0, toward_own = 0.0;
    for (const HalfEdge& h : g.incidence(v)) {
      if (!in_w.contains(h.to)) continue;
      if (in_u.contains(h.to) == inside)
        toward_own += h.cost;
      else
        toward_other += h.cost;
    }
    return toward_other - toward_own;
  };

  int moves = 0;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool improved = false;
    for (Vertex v : w_list) {
      // Off the frontier the gain is -(cost toward own side) <= 0.
      if (!frontier.contains(v)) continue;
      const bool inside = in_u.contains(v);
      const double wv = weights[static_cast<std::size_t>(v)];
      const double new_weight = inside ? weight - wv : weight + wv;
      if (std::abs(new_weight - t) > window) continue;
      const double gv = gain(v);
      if (gv <= 0.0) continue;
      if (inside)
        in_u.remove(v);
      else
        in_u.add(v);
      // The edges toward v's old side are cut now: their far endpoints
      // join the frontier (v is on it already).
      for (const HalfEdge& h : g.incidence(v))
        if (in_w.contains(h.to) && in_u.contains(h.to) == inside)
          frontier.add(h.to);
      weight = new_weight;
      cut -= gv;
      ++moves;
      improved = true;
    }
    if (!improved) break;
  }

  if (moves > 0) {
    result.inside.clear();
    for (Vertex v : w_list)
      if (in_u.contains(v)) result.inside.push_back(v);
    result.weight = weight;
    result.boundary_cost = std::max(cut, 0.0);
  }
  return moves;
}

}  // namespace mmd
