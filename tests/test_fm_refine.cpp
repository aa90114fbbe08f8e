// Frontier-driven FM refinement against the full-scan pass it replaced.
//
// fm_refine_split computes gains only for vertices on its cut frontier.  The
// oracle below is the full scan: every window-legal vertex of W gets its
// gain computed on every pass.  The two must make the same moves in the
// same order, so the move count, the refined set (order included), its
// weight and its cost agree bit for bit on every instance: triangle
// meshes, grids and random geometric graphs; connected and disconnected W
// in shuffled order; unit, 1/8-heavy and real weights; graphs with
// zero-cost edges; targets from 5% to 95% of w(W).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "gen/geometric.hpp"
#include "gen/grid.hpp"
#include "gen/mesh.hpp"
#include "graph/subgraph.hpp"
#include "separators/fm_refine.hpp"
#include "separators/orderings.hpp"
#include "separators/sweep_eval.hpp"
#include "test_helpers.hpp"
#include "util/prng.hpp"

namespace mmd {
namespace {

/// The full-scan refinement: three passes over w_list in order, a move
/// when it keeps the weight window and its gain is positive.
int full_scan_fm(const Graph& g, std::span<const Vertex> w_list,
                 std::span<const double> weights, double target,
                 SplitResult& result) {
  Membership in_w(g.num_vertices());
  in_w.assign(w_list);
  Membership in_u(g.num_vertices());
  in_u.assign(result.inside);
  const SubsetWeightStats stats = subset_weight_stats(weights, w_list);
  const double t = std::clamp(target, 0.0, stats.total);
  const double window = stats.max / 2.0 + 1e-12 * std::max(1.0, stats.total);

  double weight = result.weight;
  double cut = result.boundary_cost;
  auto gain = [&](Vertex v) {
    const bool inside = in_u.contains(v);
    double toward_other = 0.0, toward_own = 0.0;
    for (const HalfEdge& h : g.incidence(v)) {
      if (!in_w.contains(h.to)) continue;
      if (in_u.contains(h.to) == inside)
        toward_own += h.cost;
      else
        toward_other += h.cost;
    }
    return toward_other - toward_own;
  };

  int moves = 0;
  for (int pass = 0; pass < 3; ++pass) {
    bool improved = false;
    for (Vertex v : w_list) {
      const bool inside = in_u.contains(v);
      const double wv = weights[static_cast<std::size_t>(v)];
      const double new_weight = inside ? weight - wv : weight + wv;
      if (std::abs(new_weight - t) > window) continue;
      const double gv = gain(v);
      if (gv <= 0.0) continue;
      if (inside)
        in_u.remove(v);
      else
        in_u.add(v);
      weight = new_weight;
      cut -= gv;
      ++moves;
      improved = true;
    }
    if (!improved) break;
  }

  if (moves > 0) {
    result.inside.clear();
    for (Vertex v : w_list)
      if (in_u.contains(v)) result.inside.push_back(v);
    result.weight = weight;
    result.boundary_cost = std::max(cut, 0.0);
  }
  return moves;
}

/// `g` rebuilt with every third edge at cost 0 (coordinates kept).
Graph with_zero_cost_edges(const Graph& g) {
  GraphBuilder b(g.num_vertices());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    b.add_edge(u, v, e % 3 == 0 ? 0.0 : g.edge_cost(e));
  }
  if (g.has_coords())
    for (Vertex v = 0; v < g.num_vertices(); ++v) b.set_coords(v, g.coords(v));
  return b.build();
}

struct Instance {
  std::string name;
  Graph g;
};

std::vector<Instance> instances() {
  CostParams real;
  real.model = CostModel::LogUniform;
  real.lo = 1.0;
  real.hi = 16.0;
  real.seed = 5;
  std::vector<Instance> out;
  out.push_back({"tri", make_tri_mesh(14, 17, real)});
  out.push_back({"grid2", make_grid_cube(2, 15)});
  out.push_back({"grid3", make_grid_cube(3, 6)});
  out.push_back({"geo", make_random_geometric(350, 0.09, real, 23)});
  const std::size_t base = out.size();
  for (std::size_t i = 0; i < base; ++i)
    out.push_back({out[i].name + "_zero", with_zero_cost_edges(out[i].g)});
  return out;
}

enum class Weights { Unit, Heavy8, Real };

std::vector<double> make_test_weights(Vertex n, Weights kind, Rng& rng) {
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  for (double& x : w) {
    if (kind == Weights::Heavy8)
      x = rng.next_below(8) == 0 ? 8.0 : 1.0;
    else if (kind == Weights::Real)
      x = 0.25 + 4.0 * rng.uniform();
  }
  return w;
}

/// W: every vertex (connected), or a random ~55% of them in shuffled order
/// (disconnected on these graphs).
std::vector<Vertex> make_subset(Vertex n, bool connected, Rng& rng) {
  std::vector<Vertex> w_list;
  for (Vertex v = 0; v < n; ++v)
    if (connected || rng.uniform() < 0.55) w_list.push_back(v);
  if (!connected) {
    for (std::size_t i = w_list.size(); i > 1; --i)
      std::swap(w_list[i - 1], w_list[rng.next_below(i)]);
  }
  return w_list;
}

TEST(FmFrontier, MatchesFullScanBitwise) {
  Rng rng(41);
  int cases = 0, refined = 0;
  long total_moves = 0;
  for (const Instance& inst : instances()) {
    const Graph& g = inst.g;
    // Scratch reused across every case: the frontier's epoch clears must
    // not leak one case's marks into the next.
    Membership in_w(g.num_vertices()), in_u(g.num_vertices()),
        frontier(g.num_vertices());
    for (const Weights kind : {Weights::Unit, Weights::Heavy8, Weights::Real}) {
      const std::vector<double> w =
          make_test_weights(g.num_vertices(), kind, rng);
      for (const bool connected : {true, false}) {
        const std::vector<Vertex> w_list =
            make_subset(g.num_vertices(), connected, rng);
        in_w.assign(w_list);
        const SubsetWeightStats stats = subset_weight_stats(w, w_list);
        // A rough start (a random order's prefix) and a good one (BFS).
        std::vector<Vertex> random_order = w_list;
        for (std::size_t i = random_order.size(); i > 1; --i)
          std::swap(random_order[i - 1], random_order[rng.next_below(i)]);
        std::vector<Vertex> bfs_order;
        BfsScratch bfs;
        pseudo_peripheral_bfs_order_into(g, w_list, bfs, bfs_order);
        for (const double frac : {0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95}) {
          const double target = frac * stats.total;
          for (const auto* order : {&random_order, &bfs_order}) {
            SCOPED_TRACE(::testing::Message()
                         << inst.name << " weights " << static_cast<int>(kind)
                         << (connected ? " connected" : " disconnected")
                         << " target " << frac
                         << (order == &bfs_order ? " bfs" : " random"));
            const std::size_t len = best_prefix(*order, w, target, stats.total);
            const SplitResult start = evaluate_split(
                g, w_list, w, std::span<const Vertex>(order->data(), len));

            SplitResult want = start;
            const int want_moves = full_scan_fm(g, w_list, w, target, want);

            SplitResult got = start;
            const int got_moves = fm_refine_split(g, w_list, w, target, got,
                                                  in_w, in_u, frontier, stats);
            ASSERT_EQ(got_moves, want_moves);
            ASSERT_EQ(got.inside, want.inside);
            ASSERT_EQ(got.weight, want.weight);
            ASSERT_EQ(got.boundary_cost, want.boundary_cost);

            // The allocating overload runs the same passes.
            SplitResult own = start;
            ASSERT_EQ(fm_refine_split(g, w_list, w, target, own), want_moves);
            ASSERT_EQ(own.inside, want.inside);
            ASSERT_EQ(own.boundary_cost, want.boundary_cost);

            ++cases;
            refined += want_moves > 0 ? 1 : 0;
            total_moves += want_moves;
          }
        }
      }
    }
  }
  // Not vacuous: most rough starts improve, many over several moves.
  EXPECT_EQ(cases, 8 * 3 * 2 * 7 * 2);
  EXPECT_GT(refined, cases / 3);
  EXPECT_GT(total_moves, 10L * cases);
}

TEST(FmFrontier, NoCutMeansNoMoves) {
  // U = a whole component of a disconnected W: nothing is cut, the
  // frontier stays empty and no vertex moves, exactly like the full scan.
  const Graph g = make_grid_cube(2, 6);
  std::vector<Vertex> w_list;
  for (Vertex v = 0; v < 6; ++v) w_list.push_back(v);        // row 0
  for (Vertex v = 24; v < 36; ++v) w_list.push_back(v);      // rows 4-5
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  SplitResult start = evaluate_split(
      g, w_list, w, std::span<const Vertex>(w_list.data(), 6));
  ASSERT_EQ(start.boundary_cost, 0.0);
  SplitResult want = start;
  EXPECT_EQ(full_scan_fm(g, w_list, w, 6.0, want), 0);
  SplitResult got = start;
  EXPECT_EQ(fm_refine_split(g, w_list, w, 6.0, got), 0);
  EXPECT_EQ(got.inside, start.inside);
}

}  // namespace
}  // namespace mmd
