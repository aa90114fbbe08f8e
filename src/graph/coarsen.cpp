#include "graph/coarsen.hpp"

#include <numeric>

#include "util/prng.hpp"

namespace mmd {

CoarseLevel coarsen_heavy_edge(const Graph& g, std::span<const double> w,
                               std::uint64_t seed) {
  MMD_REQUIRE(static_cast<Vertex>(w.size()) == g.num_vertices(),
              "weight arity mismatch");
  const Vertex n = g.num_vertices();
  Rng rng(seed);

  std::vector<Vertex> match(static_cast<std::size_t>(n), -1);
  std::vector<Vertex> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);

  for (Vertex v : order) {
    if (match[static_cast<std::size_t>(v)] >= 0) continue;
    const auto nbrs = g.neighbors(v);
    const auto eids = g.incident_edges(v);
    Vertex best = -1;
    double best_cost = -1.0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Vertex u = nbrs[i];
      if (match[static_cast<std::size_t>(u)] >= 0) continue;
      const double c = g.edge_cost(eids[i]);
      if (c > best_cost) {
        best_cost = c;
        best = u;
      }
    }
    if (best >= 0) {
      match[static_cast<std::size_t>(v)] = best;
      match[static_cast<std::size_t>(best)] = v;
    } else {
      match[static_cast<std::size_t>(v)] = v;
    }
  }

  CoarseLevel out;
  out.parent.assign(static_cast<std::size_t>(n), -1);
  Vertex coarse_n = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (out.parent[static_cast<std::size_t>(v)] >= 0) continue;
    const Vertex u = match[static_cast<std::size_t>(v)];
    out.parent[static_cast<std::size_t>(v)] = coarse_n;
    out.parent[static_cast<std::size_t>(u)] = coarse_n;
    ++coarse_n;
  }
  sum_weights_to_parents(out.parent, w, coarse_n, out.weights);

  GraphBuilder builder(coarse_n);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    const Vertex cu = out.parent[static_cast<std::size_t>(u)];
    const Vertex cv = out.parent[static_cast<std::size_t>(v)];
    if (cu != cv) builder.add_edge(cu, cv, g.edge_cost(e));
  }
  out.graph = builder.build();
  return out;
}

void sum_weights_to_parents(std::span<const Vertex> parent,
                            std::span<const double> w, Vertex coarse_n,
                            std::vector<double>& out) {
  MMD_REQUIRE(parent.size() == w.size(), "parent/weight arity mismatch");
  out.assign(static_cast<std::size_t>(coarse_n), 0.0);
  for (std::size_t v = 0; v < parent.size(); ++v)
    out[static_cast<std::size_t>(parent[v])] += w[v];
}

Coloring project_coloring(const Coloring& coarse_chi,
                          std::span<const Vertex> parent) {
  Coloring chi(coarse_chi.k, static_cast<Vertex>(parent.size()));
  for (std::size_t v = 0; v < parent.size(); ++v) {
    const Vertex p = parent[v];
    MMD_REQUIRE(p >= 0 && static_cast<std::size_t>(p) < coarse_chi.color.size(),
                "parent index out of range");
    chi.color[v] = coarse_chi.color[static_cast<std::size_t>(p)];
  }
  return chi;
}

}  // namespace mmd
