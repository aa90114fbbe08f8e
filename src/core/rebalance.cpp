#include "core/rebalance.hpp"

#include <algorithm>
#include <cmath>

#include "graph/subgraph.hpp"
#include "util/norms.hpp"

namespace mmd {

Coloring rebalance(const Graph& g, const Coloring& chi,
                   std::span<const MeasureRef> measures, ISplitter& splitter,
                   const RebalanceOptions& options, RebalanceStats* stats,
                   DecomposeWorkspace* ws) {
  DecomposeWorkspace local_ws;
  DecomposeWorkspace& wsr = ws ? *ws : local_ws;
  MMD_REQUIRE(!measures.empty(), "rebalance needs at least one measure");
  validate_coloring(g, chi, /*require_total=*/true);
  const int k = chi.k;
  const MeasureRef psi = measures[0];
  MMD_REQUIRE(static_cast<Vertex>(psi.size()) == g.num_vertices(),
              "measure arity mismatch");

  RebalanceStats local_stats;
  RebalanceStats& st = stats ? *stats : local_stats;
  st = {};

  const double psi_total = norm1(psi);
  const double psi_max = norm_inf(psi);
  if (k <= 1 || psi_total == 0.0) return chi;
  const double avg = psi_total / k;

  const auto r = static_cast<int>(measures.size());
  const double max_factor =
      options.paper_max_factor ? std::pow(2.0, r) : 1.0;
  const double heavy_thresh =
      options.heavy_avg_factor * avg + max_factor * psi_max;

  // Tentative classes and their Psi-weights.
  std::vector<std::vector<Vertex>> tent = color_classes(chi);
  std::vector<double> tent_psi(static_cast<std::size_t>(k), 0.0);
  for (int i = 0; i < k; ++i)
    tent_psi[static_cast<std::size_t>(i)] =
        set_measure(psi, tent[static_cast<std::size_t>(i)]);

  enum class State : std::uint8_t { Untouched, Pending, Finished };
  std::vector<State> state(static_cast<std::size_t>(k), State::Untouched);
  std::vector<int> depth(static_cast<std::size_t>(k), 0);  // forest depth

  std::vector<int> pending;
  for (int i = 0; i < k; ++i) {
    if (tent_psi[static_cast<std::size_t>(i)] >= heavy_thresh) {
      state[static_cast<std::size_t>(i)] = State::Pending;
      pending.push_back(i);
    }
  }

  // Lazily maintained stack of light-color candidates.
  std::vector<int> light;
  auto rebuild_light = [&] {
    light.clear();
    for (int i = 0; i < k; ++i)
      if (state[static_cast<std::size_t>(i)] == State::Untouched &&
          tent_psi[static_cast<std::size_t>(i)] < avg)
        light.push_back(i);
  };
  rebuild_light();
  auto pop_light = [&]() -> int {
    for (int attempt = 0; attempt < 2; ++attempt) {
      while (!light.empty()) {
        const int x = light.back();
        light.pop_back();
        if (state[static_cast<std::size_t>(x)] == State::Untouched &&
            tent_psi[static_cast<std::size_t>(x)] < avg)
          return x;
      }
      rebuild_light();
      if (light.empty()) break;
    }
    return -1;
  };

  constexpr int kMaxMovesFactor = 64;  // safety cap on Move executions
  const int max_moves = kMaxMovesFactor * k + 64;
  while (!pending.empty()) {
    const int i = pending.back();
    pending.pop_back();
    MMD_ASSERT(state[static_cast<std::size_t>(i)] == State::Pending,
               "pending color in wrong state");

    if (tent_psi[static_cast<std::size_t>(i)] < heavy_thresh) {
      state[static_cast<std::size_t>(i)] = State::Finished;  // medium: keep tent
      continue;
    }

    // Claim 1 guarantees two light colors exist while a heavy one does.
    const int x1 = pop_light();
    MMD_REQUIRE(x1 >= 0, "Lemma 9 invariant failed: no light color");
    // Reserve x1 before drawing x2 so a lazy-stack rebuild cannot hand the
    // same color out twice.
    state[static_cast<std::size_t>(x1)] = State::Pending;
    const int x2 = pop_light();
    MMD_REQUIRE(x2 >= 0,
                "Lemma 9 invariant failed: fewer than two light colors");
    state[static_cast<std::size_t>(x2)] = State::Pending;

    std::vector<Vertex>& x_class = tent[static_cast<std::size_t>(i)];

    // Step (3): near-average splitting set U of tent(i):
    // Psi(U) in [avg, avg + psi_max].
    SplitRequest req;
    req.g = &g;
    req.w_list = x_class;
    req.weights = psi;
    req.target = avg + psi_max / 2.0;
    SplitResult u = splitter.split(req);
    st.cut_cost += u.boundary_cost;

    std::vector<Vertex> w_out;
    {
      const auto in_u = wsr.membership(g.num_vertices());
      in_u->assign(u.inside);
      w_out = set_difference(x_class, *in_u);
    }

    // Step (4): Lemma 8 multi-balanced 2-coloring of the remainder.
    const TwoColoring halves = multi_split(g, w_out, measures, splitter, &wsr);
    st.cut_cost += halves.cut_cost;

    // Step (5)/(6): finalize i with U, hand halves to x1/x2, mark pending.
    tent[static_cast<std::size_t>(i)] = std::move(u.inside);
    tent_psi[static_cast<std::size_t>(i)] = u.weight;
    state[static_cast<std::size_t>(i)] = State::Finished;

    const int xs[2] = {x1, x2};
    for (int b = 0; b < 2; ++b) {
      const int x = xs[b];
      auto& cls = tent[static_cast<std::size_t>(x)];
      cls.insert(cls.end(), halves.side[b].begin(), halves.side[b].end());
      tent_psi[static_cast<std::size_t>(x)] += set_measure(psi, halves.side[b]);
      state[static_cast<std::size_t>(x)] = State::Pending;
      depth[static_cast<std::size_t>(x)] = depth[static_cast<std::size_t>(i)] + 1;
      st.max_forest_depth =
          std::max(st.max_forest_depth, depth[static_cast<std::size_t>(x)]);
      pending.push_back(x);
    }
    ++st.moves;
    MMD_REQUIRE(st.moves <= max_moves,
                "rebalance failed to converge (move cap exceeded)");
  }

  Coloring out(k, g.num_vertices());
  for (int i = 0; i < k; ++i)
    for (Vertex v : tent[static_cast<std::size_t>(i)]) out[v] = i;
  validate_coloring(g, out, /*require_total=*/true);
  return out;
}

}  // namespace mmd
