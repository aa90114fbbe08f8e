#include "separators/geometric_splitter.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "separators/fm_refine.hpp"
#include "separators/sweep_eval.hpp"
#include "util/prng.hpp"

namespace mmd {

namespace {

/// Random point on the unit sphere in `dim` dimensions (Gaussian trick via
/// Box-Muller on our uniform generator).
std::vector<double> random_direction(int dim, Rng& rng) {
  std::vector<double> dir(static_cast<std::size_t>(dim));
  double norm2 = 0.0;
  for (auto& x : dir) {
    const double u1 = std::max(rng.uniform(), 1e-12);
    const double u2 = rng.uniform();
    x = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    norm2 += x * x;
  }
  const double inv = 1.0 / std::max(std::sqrt(norm2), 1e-12);
  for (auto& x : dir) x *= inv;
  return dir;
}

std::vector<Vertex> order_by_key(std::span<const Vertex> w_list,
                                 const std::vector<double>& key) {
  std::vector<Vertex> order(w_list.begin(), w_list.end());
  std::sort(order.begin(), order.end(), [&](Vertex a, Vertex b) {
    const double ka = key[static_cast<std::size_t>(a)];
    const double kb = key[static_cast<std::size_t>(b)];
    return ka != kb ? ka < kb : a < b;
  });
  return order;
}

}  // namespace

SplitResult GeometricSplitter::split(const SplitRequest& request) {
  split_entry_checkpoint();
  MMD_REQUIRE(request.g != nullptr, "null graph in split request");
  const Graph& g = *request.g;
  MMD_REQUIRE(g.has_coords(), "GeometricSplitter needs coordinates");
  const int dim = g.dim();
  Rng rng(options_.seed);

  Membership in_w(g.num_vertices());
  in_w.assign(request.w_list);

  std::vector<double> key(static_cast<std::size_t>(g.num_vertices()), 0.0);
  SplitResult best;
  bool have = false;
  Membership in_u(g.num_vertices());
  const SubsetWeightStats stats =
      subset_weight_stats(request.weights, request.w_list);
  SweepEval sweep;
  const SweepMode mode = sweep_mode();

  auto consider_order = [&](const std::vector<Vertex>& order) {
    // Shared SweepEval evaluation: fused prefix choice + exact cost, with
    // candidates pruned against the incumbent best.
    const double bound = have ? best.boundary_cost
                              : std::numeric_limits<double>::infinity();
    const SweepEvalResult r =
        sweep.eval(g, order, request.weights, request.target, stats, in_w,
                   in_u, mode, bound);
    if (r.pruned) return;
    if (!have || r.cost < best.boundary_cost) {
      best.inside.assign(order.begin(),
                         order.begin() + static_cast<std::ptrdiff_t>(r.prefix_len));
      best.weight = r.weight;
      best.boundary_cost = r.cost;
      have = true;
    }
  };

  // Halfspace sweeps.
  for (int trial = 0; trial < options_.directions; ++trial) {
    const auto dir = random_direction(dim, rng);
    for (Vertex v : request.w_list) {
      const auto c = g.coords(v);
      double dot = 0.0;
      for (int i = 0; i < dim; ++i) dot += dir[static_cast<std::size_t>(i)] * c[static_cast<std::size_t>(i)];
      key[static_cast<std::size_t>(v)] = dot;
    }
    consider_order(order_by_key(request.w_list, key));
  }

  // Radial sweeps around random member vertices.
  for (int trial = 0; trial < options_.spheres && !request.w_list.empty(); ++trial) {
    const Vertex center = request.w_list[static_cast<std::size_t>(
        rng.next_below(request.w_list.size()))];
    const auto cc = g.coords(center);
    for (Vertex v : request.w_list) {
      const auto c = g.coords(v);
      double d2 = 0.0;
      for (int i = 0; i < dim; ++i) {
        const double d = static_cast<double>(c[static_cast<std::size_t>(i)]) -
                         cc[static_cast<std::size_t>(i)];
        d2 += d * d;
      }
      key[static_cast<std::size_t>(v)] = d2;
    }
    consider_order(order_by_key(request.w_list, key));
  }

  MMD_ASSERT(have, "geometric splitter produced no candidate");
  if (options_.refine && !best.inside.empty() &&
      best.inside.size() < request.w_list.size()) {
    Membership frontier(g.num_vertices());
    fm_refine_split(g, request.w_list, request.weights, request.target, best,
                    in_w, in_u, frontier, stats);
  }
  return best;
}

}  // namespace mmd
