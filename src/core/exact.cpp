#include "core/exact.hpp"

#include <algorithm>
#include <cmath>

#include "util/norms.hpp"

namespace mmd {

namespace {

struct Search {
  const Graph& g;
  std::span<const double> w;
  int k;
  const ExactOptions& options;

  double avg = 0.0;
  double window = 0.0;  // (1 - 1/k) ||w||_inf + fp slack
  std::vector<double> suffix_weight{};  // total weight of vertices >= v

  std::vector<std::int32_t> color{};  // current partial assignment
  std::vector<double> cls_weight{};
  std::vector<double> cls_boundary{};  // boundary cost per class, partial
  int used_colors = 0;

  double best = std::numeric_limits<double>::infinity();
  std::vector<std::int32_t> best_color{};
  long long nodes = 0;

  bool feasible_completion(Vertex v) const {
    // Every class must still be able to reach avg - window; the remaining
    // weight must cover all deficits.
    double deficit = 0.0;
    for (int i = 0; i < k; ++i)
      deficit += std::max(0.0, (avg - window) - cls_weight[static_cast<std::size_t>(i)]);
    return deficit <= suffix_weight[static_cast<std::size_t>(v)] + 1e-12;
  }

  void assign(Vertex v, int c, double wv, double& delta_from_cache) {
    // Incremental boundary update: edges from v to already-colored
    // vertices with a different color add to both classes.
    color[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(c);
    cls_weight[static_cast<std::size_t>(c)] += wv;
    const auto nbrs = g.neighbors(v);
    const auto eids = g.incident_edges(v);
    double added_to_c = 0.0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Vertex u = nbrs[i];
      if (u >= v || color[static_cast<std::size_t>(u)] == kUncolored) continue;
      const std::int32_t cu = color[static_cast<std::size_t>(u)];
      if (cu == c) continue;
      const double cost = g.edge_cost(eids[i]);
      cls_boundary[static_cast<std::size_t>(cu)] += cost;
      added_to_c += cost;
    }
    cls_boundary[static_cast<std::size_t>(c)] += added_to_c;
    delta_from_cache = added_to_c;
  }

  void unassign(Vertex v, int c, double wv) {
    const auto nbrs = g.neighbors(v);
    const auto eids = g.incident_edges(v);
    double added_to_c = 0.0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Vertex u = nbrs[i];
      if (u >= v || color[static_cast<std::size_t>(u)] == kUncolored) continue;
      const std::int32_t cu = color[static_cast<std::size_t>(u)];
      if (cu == c) continue;
      const double cost = g.edge_cost(eids[i]);
      cls_boundary[static_cast<std::size_t>(cu)] -= cost;
      added_to_c += cost;
    }
    cls_boundary[static_cast<std::size_t>(c)] -= added_to_c;
    cls_weight[static_cast<std::size_t>(c)] -= wv;
    color[static_cast<std::size_t>(v)] = kUncolored;
  }

  void dfs(Vertex v) {
    if (++nodes > options.node_budget) return;
    if (v == g.num_vertices()) {
      double mx = 0.0;
      for (int i = 0; i < k; ++i) {
        if (std::abs(cls_weight[static_cast<std::size_t>(i)] - avg) > window)
          return;
        mx = std::max(mx, cls_boundary[static_cast<std::size_t>(i)]);
      }
      if (mx < best) {
        best = mx;
        best_color = color;
      }
      return;
    }
    if (!feasible_completion(v)) return;

    const double wv = w[static_cast<std::size_t>(v)];
    // Symmetry breaking: allow at most one fresh color.
    const int limit = std::min(used_colors + 1, k);
    for (int c = 0; c < limit; ++c) {
      if (cls_weight[static_cast<std::size_t>(c)] + wv > avg + window) continue;
      double delta = 0.0;
      const int prev_used = used_colors;
      used_colors = std::max(used_colors, c + 1);
      assign(v, c, wv, delta);
      // Bound: boundary costs only grow as more bichromatic edges appear.
      double lower = 0.0;
      for (int i = 0; i < k; ++i)
        lower = std::max(lower, cls_boundary[static_cast<std::size_t>(i)]);
      if (lower < best - 1e-15) dfs(v + 1);
      unassign(v, c, wv);
      used_colors = prev_used;
      if (nodes > options.node_budget) return;
    }
  }
};

}  // namespace

std::optional<ExactResult> exact_decompose(const Graph& g,
                                           std::span<const double> w, int k,
                                           const ExactOptions& options) {
  MMD_REQUIRE(k >= 1, "k must be >= 1");
  MMD_REQUIRE(static_cast<Vertex>(w.size()) == g.num_vertices(),
              "weight arity mismatch");
  MMD_REQUIRE(g.num_vertices() <= options.max_vertices,
              "instance too large for exact enumeration");

  Search search{g, w, k, options};
  search.avg = norm1(w) / k;
  search.window =
      (1.0 - 1.0 / k) * norm_inf(w) + 1e-9 * std::max(1.0, search.avg);
  search.suffix_weight.assign(static_cast<std::size_t>(g.num_vertices()) + 1, 0.0);
  for (Vertex v = g.num_vertices(); v-- > 0;)
    search.suffix_weight[static_cast<std::size_t>(v)] =
        search.suffix_weight[static_cast<std::size_t>(v) + 1] +
        w[static_cast<std::size_t>(v)];
  search.color.assign(static_cast<std::size_t>(g.num_vertices()), kUncolored);
  search.cls_weight.assign(static_cast<std::size_t>(k), 0.0);
  search.cls_boundary.assign(static_cast<std::size_t>(k), 0.0);

  search.dfs(0);

  if (!std::isfinite(search.best)) return std::nullopt;
  ExactResult out;
  out.coloring.k = k;
  out.coloring.color = std::move(search.best_color);
  out.max_boundary = search.best;
  out.nodes_explored = search.nodes;
  return out;
}

}  // namespace mmd
