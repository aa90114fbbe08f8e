#include "graph/coloring.hpp"

#include <algorithm>
#include <cmath>

#include "util/norms.hpp"

namespace mmd {

bool Coloring::is_total() const {
  for (std::int32_t c : color)
    if (c < 0 || c >= k) return false;
  return true;
}

std::vector<double> class_measure(std::span<const double> mu, const Coloring& chi) {
  MMD_REQUIRE(mu.size() == chi.color.size(), "measure arity mismatch");
  std::vector<double> out(static_cast<std::size_t>(chi.k), 0.0);
  for (std::size_t v = 0; v < mu.size(); ++v) {
    const std::int32_t c = chi.color[v];
    if (c >= 0) out[static_cast<std::size_t>(c)] += mu[v];
  }
  return out;
}

std::vector<std::vector<Vertex>> color_classes(const Coloring& chi) {
  std::vector<std::vector<Vertex>> classes(static_cast<std::size_t>(chi.k));
  for (std::size_t v = 0; v < chi.color.size(); ++v) {
    const std::int32_t c = chi.color[v];
    if (c >= 0) classes[static_cast<std::size_t>(c)].push_back(static_cast<Vertex>(v));
  }
  return classes;
}

std::vector<double> class_boundary_costs(const Graph& g, const Coloring& chi) {
  std::vector<double> out(static_cast<std::size_t>(chi.k));
  class_boundary_costs(g, chi, out);
  return out;
}

void class_boundary_costs(const Graph& g, const Coloring& chi,
                          std::span<double> out) {
  MMD_REQUIRE(static_cast<Vertex>(chi.color.size()) == g.num_vertices(),
              "coloring arity mismatch");
  MMD_REQUIRE(out.size() == static_cast<std::size_t>(chi.k),
              "one boundary cost per class");
  std::fill(out.begin(), out.end(), 0.0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::int32_t c = chi[v];
    if (c >= 0) out[static_cast<std::size_t>(c)] += boundary_cost_of(g, chi, v);
  }
}

double max_boundary_cost(const Graph& g, const Coloring& chi) {
  const auto b = class_boundary_costs(g, chi);
  return norm_inf(b);
}

double avg_boundary_cost(const Graph& g, const Coloring& chi) {
  MMD_REQUIRE(chi.k >= 1, "coloring with no colors");
  const auto b = class_boundary_costs(g, chi);
  return norm1(b) / chi.k;
}

BalanceReport balance_report(std::span<const double> w, const Coloring& chi,
                             double eps_rel) {
  MMD_REQUIRE(chi.k >= 1, "coloring with no colors");
  BalanceReport rep;
  rep.wmax = norm_inf(w);
  rep.avg = norm1(w) / chi.k;
  const auto cw = class_measure(w, chi);
  rep.max_class = norm_inf(cw);
  rep.min_class = cw.empty() ? 0.0 : *std::min_element(cw.begin(), cw.end());
  for (double x : cw) rep.max_dev = std::max(rep.max_dev, std::abs(x - rep.avg));
  rep.strict_bound = (1.0 - 1.0 / chi.k) * rep.wmax;
  const double slack = eps_rel * std::max(rep.wmax, rep.avg) + 1e-300;
  rep.strictly_balanced = rep.max_dev <= rep.strict_bound + slack;
  rep.almost_strictly_balanced = rep.max_dev <= 2.0 * rep.wmax + slack;
  return rep;
}

double weak_balance_factor(std::span<const double> mu, const Coloring& chi) {
  MMD_REQUIRE(chi.k >= 1, "coloring with no colors");
  const auto cm = class_measure(mu, chi);
  const double denom = norm1(mu) / chi.k + norm_inf(mu);
  if (denom == 0.0) return 0.0;
  return norm_inf(cm) / denom;
}

void validate_coloring(const Graph& g, const Coloring& chi, bool require_total) {
  MMD_REQUIRE(chi.k >= 1, "coloring must have k >= 1");
  MMD_REQUIRE(static_cast<Vertex>(chi.color.size()) == g.num_vertices(),
              "coloring size != graph order");
  for (std::int32_t c : chi.color) {
    MMD_REQUIRE(c >= kUncolored && c < chi.k, "color out of range");
    if (require_total) MMD_REQUIRE(c != kUncolored, "coloring not total");
  }
}

}  // namespace mmd
