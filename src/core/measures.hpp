// Vertex measures used throughout the pipeline.
//
// A measure Phi : V -> R+ extends to sets by summation (paper, "Further
// Notation").  Three measures drive the construction:
//   * the user's vertex weights w,
//   * the splitting cost measure pi (Definition 10),
//         pi(v) = sigma_p^p * sum_{e in delta(v)} c_e^p / 2,
//     whose p-th root pi^{1/p}(W) upper-bounds the cost of splitting W
//     (sigma_p ||c|W||_p <= pi(W)^{1/p}),
//   * the bichromatic cost measure Psi of a coloring chi (Proposition 7),
//         Psi(v) = c({uv in E | chi(u) != chi(v)}),
//     which turns boundary costs into a vertex measure so Lemma 9 can
//     balance them.
#pragma once

#include <span>
#include <vector>

#include "graph/coloring.hpp"
#include "graph/graph.hpp"

namespace mmd {

/// Definition 10: pi(v) = sigma_p^p * sum_{e in delta(v)} c_e^p / 2.
std::vector<double> splitting_cost_measure(const Graph& g, double p,
                                           double sigma_p);

/// pi^{1/p}(W) = (sum_{v in W} pi(v))^{1/p}, the splitting cost of W.
double splitting_cost(std::span<const double> pi,
                      std::span<const Vertex> w_list, double p);

/// Proposition 7's Psi: per-vertex cost of chi-bichromatic incident edges,
/// Psi(v) = boundary_cost_of(g, chi, v), so class_measure(Psi, chi) is
/// class_boundary_costs(g, chi) bit for bit.
/// Identities used by the proof (and asserted in tests):
///   ||Psi chi^-1||_inf = ||d chi^-1||_inf,  ||Psi||_avg = ||d chi^-1||_avg,
///   ||Psi||_inf <= Delta_c.
std::vector<double> bichromatic_cost_measure(const Graph& g, const Coloring& chi);

/// Theorem 4's bound skeleton  B' = sigma_p (q k^{-1/p} ||c||_p + Delta_c)
/// (relation (10)); the benches report measured/B' ratios.
struct TheoryBound {
  double cost_norm_p = 0.0;  ///< ||c||_p
  double delta_c = 0.0;      ///< max weighted degree
  double b_avg = 0.0;        ///< sigma_p * q * k^{-1/p} * ||c||_p   (Lemma 6)
  double b_max = 0.0;        ///< b_avg + sigma_p * Delta_c          (Thm 4)
};
TheoryBound theorem4_bound(const Graph& g, double p, double sigma_p, int k);

}  // namespace mmd
