#include "graph/subgraph.hpp"

#include <algorithm>
#include <cmath>

namespace mmd {

InducedCostStats induced_cost_stats(const Graph& g, std::span<const Vertex> w_list,
                                    const Membership& in_w, double p) {
  MMD_REQUIRE(p > 1.0, "induced_cost_stats needs p > 1");
  InducedCostStats out;
  // First pass: find the max cost for overflow-safe p-power accumulation.
  for (Vertex v : w_list) {
    const auto nbrs = g.neighbors(v);
    const auto eids = g.incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Vertex u = nbrs[i];
      if (u <= v || !in_w.contains(u)) continue;  // count each edge once
      out.norm_inf = std::max(out.norm_inf, g.edge_cost(eids[i]));
    }
  }
  if (out.norm_inf == 0.0) {
    for (Vertex v : w_list) {
      const auto nbrs = g.neighbors(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i)
        if (nbrs[i] > v && in_w.contains(nbrs[i])) ++out.num_edges;
    }
    return out;
  }
  double psum = 0.0;
  for (Vertex v : w_list) {
    const auto nbrs = g.neighbors(v);
    const auto eids = g.incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Vertex u = nbrs[i];
      if (u <= v || !in_w.contains(u)) continue;
      const double c = g.edge_cost(eids[i]);
      ++out.num_edges;
      out.norm1 += c;
      psum += std::pow(c / out.norm_inf, p);
    }
  }
  out.norm_p = out.norm_inf * std::pow(psum, 1.0 / p);
  return out;
}

double set_measure(std::span<const double> mu, std::span<const Vertex> w_list) {
  double s = 0.0;
  for (Vertex v : w_list) s += mu[static_cast<std::size_t>(v)];
  return s;
}

double set_measure_max(std::span<const double> mu, std::span<const Vertex> w_list) {
  double m = 0.0;
  for (Vertex v : w_list) m = std::max(m, mu[static_cast<std::size_t>(v)]);
  return m;
}

double boundary_cost_within(const Graph& g, std::span<const Vertex> u_list,
                            const Membership& in_u, const Membership& in_w) {
  double s = 0.0;
  for (Vertex v : u_list)
    for (const HalfEdge& h : g.incidence(v))
      if (in_w.contains(h.to) && !in_u.contains(h.to)) s += h.cost;
  return s;
}

std::vector<Vertex> set_difference(std::span<const Vertex> w_list,
                                   const Membership& in_u) {
  std::vector<Vertex> out;
  out.reserve(w_list.size());
  for (Vertex v : w_list)
    if (!in_u.contains(v)) out.push_back(v);
  return out;
}

void set_difference_into(std::span<const Vertex> w_list,
                         const Membership& in_u, std::vector<Vertex>& out) {
  out.clear();
  out.reserve(w_list.size());
  for (Vertex v : w_list)
    if (!in_u.contains(v)) out.push_back(v);
}

}  // namespace mmd
