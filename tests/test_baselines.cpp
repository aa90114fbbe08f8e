#include <gtest/gtest.h>

#include "baselines/greedy.hpp"
#include "baselines/kst.hpp"
#include "baselines/multilevel.hpp"
#include "baselines/random_part.hpp"
#include "core/bisection.hpp"
#include "core/decompose.hpp"
#include "gen/grid.hpp"
#include "separators/prefix_splitter.hpp"
#include "test_helpers.hpp"
#include "util/norms.hpp"

namespace mmd {
namespace {

using testing::expect_total_coloring;

// ---- greedy -------------------------------------------------------------

TEST(Greedy, IsProvablyStrictForAllFamilies) {
  const Graph g = make_grid_cube(2, 12);
  for (WeightModel model : testing::weight_models()) {
    const auto w = testing::weights_for(g, model, 71, 300.0);
    for (int k : testing::small_ks()) {
      for (GreedyOrder order :
           {GreedyOrder::HeaviestFirst, GreedyOrder::VertexId,
            GreedyOrder::Random}) {
        const Coloring chi = greedy_coloring(g, w, k, order);
        expect_total_coloring(g, chi);
        EXPECT_TRUE(balance_report(w, chi).strictly_balanced)
            << weight_model_name(model) << " k=" << k;
      }
    }
  }
}

TEST(Greedy, BoundaryBlowupVersusDecompose) {
  // The paper's motivating contrast: greedy balances perfectly but cuts
  // nearly every edge; the decomposition pipeline must beat random-order
  // greedy by a wide margin on a grid.
  // The gap widens with n (greedy pays Theta(m/k), we pay O(sqrt(n/k)));
  // at side 48 the separation is already a solid 3x.
  const Graph g = make_grid_cube(2, 48);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  const int k = 8;
  const Coloring greedy = greedy_coloring(g, w, k, GreedyOrder::Random);
  DecomposeOptions opt;
  opt.k = k;
  const DecomposeResult ours = decompose(g, w, opt);
  EXPECT_GT(max_boundary_cost(g, greedy), 3.0 * ours.max_boundary);
}

// ---- recursive bisection --------------------------------------------------

TEST(RecursiveBisection, WeightsNearProportional) {
  const Graph g = make_grid_cube(2, 16);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 73);
  PrefixSplitter splitter;
  for (int k : {2, 3, 5, 8}) {
    const Coloring chi = recursive_bisection_coloring(g, w, k, splitter);
    expect_total_coloring(g, chi);
    const double avg = norm1(w) / k;
    for (double x : class_measure(w, chi))
      EXPECT_LE(x, 1.6 * avg + 4.0 * norm_inf(w)) << "k=" << k;
  }
}

TEST(RecursiveBisection, TotalCutComparableToDecompose) {
  const Graph g = make_grid_cube(2, 20);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  PrefixSplitter splitter;
  const Coloring chi = recursive_bisection_coloring(g, w, 8, splitter);
  DecomposeOptions opt;
  opt.k = 8;
  const DecomposeResult ours = decompose(g, w, opt);
  // Recursive bisection is a strong average-cost baseline; our avg must be
  // in the same ballpark (the win is on max, strictness, and weights).
  EXPECT_LE(ours.avg_boundary, 4.0 * avg_boundary_cost(g, chi) + 1e-9);
}

// ---- KST -----------------------------------------------------------------

TEST(Kst, RequiresPowerOfTwo) {
  const Graph g = make_grid_cube(2, 8);
  const std::vector<double> w(64, 1.0);
  PrefixSplitter splitter;
  EXPECT_THROW(kst_decomposition(g, w, 3, splitter), std::invalid_argument);
}

TEST(Kst, ProducesValidRoughlyBalancedColorings) {
  const Graph g = make_grid_cube(2, 16);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 79);
  PrefixSplitter splitter;
  for (double eps : {0.1, 0.5, 1.0}) {
    KstOptions opt;
    opt.eps = eps;
    const Coloring chi = kst_decomposition(g, w, 8, splitter, opt);
    expect_total_coloring(g, chi);
    const double avg = norm1(w) / 8;
    for (double x : class_measure(w, chi))
      EXPECT_LE(x, (1.0 + 2.0 * eps) * avg + 4.0 * norm_inf(w))
          << "eps=" << eps;
  }
}

TEST(Kst, TighterEpsCostsMoreBoundary) {
  // The trade-off our pipeline removes: demanding tighter balance from
  // KST-style bisection should not *reduce* its boundary cost.
  const Graph g = make_grid_cube(2, 20);
  const auto w = testing::weights_for(g, WeightModel::Zipf, 83, 100.0);
  PrefixSplitter s1, s2;
  KstOptions loose;
  loose.eps = 1.0;
  KstOptions tight;
  tight.eps = 0.02;
  const double b_loose =
      max_boundary_cost(g, kst_decomposition(g, w, 8, s1, loose));
  const double b_tight =
      max_boundary_cost(g, kst_decomposition(g, w, 8, s2, tight));
  EXPECT_GE(b_tight, 0.8 * b_loose);
}

// ---- multilevel ------------------------------------------------------------

TEST(Multilevel, ValidAndLooselyBalanced) {
  const Graph g = make_grid_cube(2, 20);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  MultilevelOptions opt;
  opt.imbalance = 0.10;
  const Coloring chi = multilevel_partition(g, w, 8, opt);
  expect_total_coloring(g, chi);
  const double avg = norm1(w) / 8;
  for (double x : class_measure(w, chi))
    EXPECT_LE(x, (1.0 + 0.10) * avg + 8.0);  // projection slack
}

TEST(Multilevel, EdgeCutIsReasonableOnGrid) {
  const Graph g = make_grid_cube(2, 24);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  const Coloring chi = multilevel_partition(g, w, 4);
  // Total cut for a 4-way split of the 24-grid should be O(side * parts).
  double total_cut = 0.0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    if (chi[u] != chi[v]) total_cut += g.edge_cost(e);
  }
  EXPECT_LT(total_cut, 12.0 * 24.0);
}

TEST(Multilevel, TinyGraphs) {
  const Graph g = make_grid_cube(2, 2);
  const std::vector<double> w(4, 1.0);
  const Coloring chi = multilevel_partition(g, w, 2);
  expect_total_coloring(g, chi);
}

// ---- random ----------------------------------------------------------------

TEST(RandomPart, ValidAndSeeded) {
  const Graph g = make_grid_cube(2, 10);
  const Coloring a = random_coloring(g, 5, 1);
  const Coloring b = random_coloring(g, 5, 1);
  const Coloring c = random_coloring(g, 5, 2);
  expect_total_coloring(g, a);
  EXPECT_EQ(a.color, b.color);
  EXPECT_NE(a.color, c.color);
}

}  // namespace
}  // namespace mmd
