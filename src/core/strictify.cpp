#include "core/strictify.hpp"

#include <algorithm>

#include "core/binpack.hpp"
#include "graph/subgraph.hpp"

namespace mmd {

namespace {

struct Rec {
  const Graph& g;
  std::span<const double> w;
  std::span<const double> pi;
  ISplitter& splitter;
  const StrictifyParams& params;
  StrictifyStats& stats;
  std::span<const MeasureRef> preserve;
  DecomposeWorkspace& ws;

  /// Returns a coloring of exactly `w_list` (uncolored elsewhere), almost
  /// strictly balanced w.r.t. w restricted to w_list.
  Coloring run(std::span<const Vertex> w_list, const Coloring& chi, int depth) {
    stats.levels = std::max(stats.levels, depth + 1);
    const int k = chi.k;
    const double total = set_measure(w, w_list);
    const double avg = total / k;
    const double wmax = set_measure_max(w, w_list);

    constexpr int kMaxDepth = 64;  // recursion cap
    const bool base_case =
        depth >= kMaxDepth || total <= 0.0 ||
        wmax > params.base_eps * avg ||
        static_cast<int>(w_list.size()) <=
            params.min_vertices_factor * k;
    if (base_case) {
      // Lemma 15 with W1 empty: one conquer step.
      const std::vector<double> zero(static_cast<std::size_t>(k), 0.0);
      return binpack1(g, chi, w, zero, wmax, splitter, &stats.cut_cost, &ws);
    }

    ShrinkOutput sh = shrink_once(g, w_list, chi, w, pi, splitter,
                                  params.shrink, preserve, &ws);
    stats.cut_cost += sh.cut_cost;

    const Coloring chi1_hat = run(sh.w1, sh.chi1, depth + 1);
    const std::vector<double> w1 = class_measure(w, chi1_hat);

    Coloring chi0_tilde =
        binpack1(g, sh.chi0, w, w1, wmax, splitter, &stats.cut_cost, &ws);

    // Direct sum chi0_tilde + chi1_hat.
    for (Vertex v : sh.w1) {
      MMD_ASSERT(chi0_tilde[v] == kUncolored, "direct sum overlap");
      chi0_tilde[v] = chi1_hat[v];
    }
    return chi0_tilde;
  }
};

}  // namespace

Coloring strictify_almost(const Graph& g, const Coloring& chi,
                          std::span<const double> w, std::span<const double> pi,
                          ISplitter& splitter, const StrictifyParams& params,
                          StrictifyStats* stats,
                          std::span<const MeasureRef> preserve,
                          DecomposeWorkspace* ws) {
  validate_coloring(g, chi, /*require_total=*/true);
  StrictifyStats local;
  StrictifyStats& st = stats ? *stats : local;
  st = {};
  DecomposeWorkspace local_ws;
  DecomposeWorkspace& wsr = ws ? *ws : local_ws;

  std::vector<Vertex> all(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v) all[static_cast<std::size_t>(v)] = v;

  Rec rec{g, w, pi, splitter, params, st, preserve, wsr};
  Coloring out = rec.run(all, chi, 0);
  validate_coloring(g, out, /*require_total=*/true);
  return out;
}

}  // namespace mmd
