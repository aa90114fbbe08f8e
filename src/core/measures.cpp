#include "core/measures.hpp"

#include <cmath>

#include "util/norms.hpp"

namespace mmd {

std::vector<double> splitting_cost_measure(const Graph& g, double p,
                                           double sigma_p) {
  MMD_REQUIRE(p > 1.0, "splitting cost measure needs p > 1");
  MMD_REQUIRE(sigma_p > 0.0, "sigma_p must be positive");
  std::vector<double> pi(static_cast<std::size_t>(g.num_vertices()), 0.0);
  const double sig_pow = std::pow(sigma_p, p);
  const bool square = p == 2.0;  // the default exponent; pow() is costly
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    double s = 0.0;
    for (const HalfEdge& h : g.incidence(v))
      s += square ? h.cost * h.cost : std::pow(h.cost, p);
    pi[static_cast<std::size_t>(v)] = sig_pow * s / 2.0;
  }
  return pi;
}

double splitting_cost(std::span<const double> pi,
                      std::span<const Vertex> w_list, double p) {
  MMD_REQUIRE(p > 1.0, "splitting cost needs p > 1");
  double s = 0.0;
  for (Vertex v : w_list) s += pi[static_cast<std::size_t>(v)];
  return std::pow(s, 1.0 / p);
}

std::vector<double> bichromatic_cost_measure(const Graph& g, const Coloring& chi) {
  MMD_REQUIRE(static_cast<Vertex>(chi.color.size()) == g.num_vertices(),
              "coloring arity mismatch");
  std::vector<double> psi(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    psi[static_cast<std::size_t>(v)] = boundary_cost_of(g, chi, v);
  return psi;
}

TheoryBound theorem4_bound(const Graph& g, double p, double sigma_p, int k) {
  MMD_REQUIRE(p > 1.0 && k >= 1, "bad bound parameters");
  TheoryBound b;
  b.cost_norm_p = norm_p(g.edge_costs(), p);
  b.delta_c = g.max_weighted_degree();
  const double q = holder_conjugate(p);
  b.b_avg = sigma_p * q * std::pow(static_cast<double>(k), -1.0 / p) * b.cost_norm_p;
  b.b_max = b.b_avg + sigma_p * b.delta_c;
  return b;
}

}  // namespace mmd
