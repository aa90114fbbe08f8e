// k-colorings (the paper's formulation of partitions) and their quality
// measures: class weights, boundary costs, and the three balance notions.
//
//   strictly balanced   (Definition 1):  |w(class) - ||w||_1/k| <= (1-1/k)||w||_inf
//   almost strictly bal. (Section 4):    |w(class) - ||w||_1/k| <= 2 ||w||_inf
//   weakly balanced      (Section 3):    max class measure = O(avg + max)
//
// The maximum boundary cost ||d chi^-1||_inf of a coloring is the
// objective the whole paper is about (Definition 1/2).
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace mmd {

inline constexpr std::int32_t kUncolored = -1;

/// A k-coloring chi : V -> [k]; color[v] in [0,k) or kUncolored.
struct Coloring {
  int k = 0;
  std::vector<std::int32_t> color;

  Coloring() = default;
  Coloring(int num_colors, Vertex n)
      : k(num_colors), color(static_cast<std::size_t>(n), kUncolored) {}

  std::int32_t operator[](Vertex v) const {
    return color[static_cast<std::size_t>(v)];
  }
  std::int32_t& operator[](Vertex v) { return color[static_cast<std::size_t>(v)]; }

  Vertex num_vertices() const { return static_cast<Vertex>(color.size()); }

  /// True iff every vertex has a color in [0, k).
  bool is_total() const;
};

/// Per-class sums of a vertex measure: (mu chi^-1)(i) in paper notation.
/// Uncolored vertices are ignored.
std::vector<double> class_measure(std::span<const double> mu, const Coloring& chi);

/// The color classes as vertex lists.
std::vector<std::vector<Vertex>> color_classes(const Coloring& chi);

/// The boundary cost of one vertex: the cost of v's incident edges whose
/// other endpoint is not of v's color (an uncolored neighbor counts for a
/// colored v, and a colored neighbor for an uncolored v).  Summed over v's
/// incidence list, which runs in edge-id order.  This is the one spelling
/// of the per-vertex boundary sum: class_boundary_costs adds it up per
/// class, Proposition 7's bichromatic measure Psi (measures.hpp) is it at
/// every vertex, and for v in a class U it is Section 5's boundary measure
/// c(delta(v) cap delta(U)) (shrink.hpp).
inline double boundary_cost_of(const Graph& g, const Coloring& chi, Vertex v) {
  const std::int32_t c = chi[v];
  double s = 0.0;
  for (const HalfEdge& h : g.incidence(v))
    if (chi[h.to] != c) s += h.cost;
  return s;
}

/// Per-class boundary costs c(delta(chi^-1(i))): boundary_cost_of summed
/// over each class in vertex order.  An edge whose endpoints have
/// different colors contributes to both endpoint classes; an edge with one
/// uncolored endpoint contributes to the colored one.
std::vector<double> class_boundary_costs(const Graph& g, const Coloring& chi);

/// class_boundary_costs into `out` (size chi.k, overwritten); allocates
/// nothing.
void class_boundary_costs(const Graph& g, const Coloring& chi,
                          std::span<double> out);

/// ||d chi^-1||_inf, the maximum boundary cost (Definition 1).
double max_boundary_cost(const Graph& g, const Coloring& chi);

/// ||d chi^-1||_avg = ||d chi^-1||_1 / k, the average boundary cost.
double avg_boundary_cost(const Graph& g, const Coloring& chi);

/// Balance diagnostics of a coloring w.r.t. a weight function.
struct BalanceReport {
  double avg = 0.0;         ///< ||w||_1 / k
  double wmax = 0.0;        ///< ||w||_inf
  double max_dev = 0.0;     ///< max_i |w(chi^-1(i)) - avg|
  double strict_bound = 0.0;  ///< (1 - 1/k) * ||w||_inf
  double max_class = 0.0;
  double min_class = 0.0;
  bool strictly_balanced = false;        ///< max_dev <= strict_bound (+eps)
  bool almost_strictly_balanced = false; ///< max_dev <= 2*||w||_inf (+eps)
};

/// Evaluate balance of chi w.r.t. weights w.  `eps_rel` is the relative
/// tolerance applied to the comparison (floating-point slack).
BalanceReport balance_report(std::span<const double> w, const Coloring& chi,
                             double eps_rel = 1e-9);

/// Weak balancedness w.r.t. an arbitrary measure: max class measure
/// <= slack * (avg + max).  Returns the smallest slack that holds.
double weak_balance_factor(std::span<const double> mu, const Coloring& chi);

/// Validate structural sanity: k >= 1, colors in range, size matches graph.
void validate_coloring(const Graph& g, const Coloring& chi,
                       bool require_total = true);

}  // namespace mmd
