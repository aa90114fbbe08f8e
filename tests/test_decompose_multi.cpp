// Tests for the multi-balanced Theorem 4 variant (paper, Conclusion):
// strict balance in Psi, weak balance in every extra measure, bounded
// maximum boundary cost — all simultaneously.
#include <gtest/gtest.h>

#include "core/decompose.hpp"
#include "gen/grid.hpp"
#include "gen/mesh.hpp"
#include "test_helpers.hpp"

namespace mmd {
namespace {

using testing::expect_total_coloring;

TEST(DecomposeMulti, AllThreeGuaranteesOnGrid) {
  const Graph g = make_grid_cube(2, 20);
  const auto psi = testing::weights_for(g, WeightModel::Uniform, 3);
  const auto phi1 = testing::weights_for(g, WeightModel::Bimodal, 5);
  const auto phi2 = testing::weights_for(g, WeightModel::Zipf, 7);
  const std::vector<MeasureRef> extra{MeasureRef(phi1), MeasureRef(phi2)};

  DecomposeOptions opt;
  opt.k = 8;
  const MultiDecomposeResult res = decompose_multi(g, psi, extra, opt);
  expect_total_coloring(g, res.coloring);

  // 1) strict in Psi (Definition 1).
  EXPECT_TRUE(res.psi_balance.strictly_balanced)
      << "dev " << res.psi_balance.max_dev << " bound "
      << res.psi_balance.strict_bound;
  // 2) weakly balanced in every Phi(j).
  ASSERT_EQ(res.weak_factors.size(), 2u);
  for (double f : res.weak_factors) EXPECT_LE(f, 10.0);
  // 3) max boundary within the Theorem 4 shape.
  EXPECT_LE(res.max_boundary, 5.0 * res.bound.b_max);
}

TEST(DecomposeMulti, MatchesPlainDecomposeWithoutExtras) {
  // One pipeline: without extra measures decompose_multi is decompose,
  // bit for bit, under every init and with the Psi pass ablated.
  const Graph g = make_grid_cube(2, 16);
  const auto psi = testing::weights_for(g, WeightModel::Uniform, 11);
  for (const InitMethod init :
       {InitMethod::Paper, InitMethod::Bisection, InitMethod::Best}) {
    for (const bool balance_boundary : {true, false}) {
      DecomposeOptions opt;
      opt.k = 6;
      opt.init = init;
      opt.balance_boundary = balance_boundary;
      SCOPED_TRACE("init " + std::to_string(static_cast<int>(init)) +
                   " balance_boundary " + std::to_string(balance_boundary));
      const MultiDecomposeResult multi = decompose_multi(g, psi, {}, opt);
      const DecomposeResult plain = decompose(g, psi, opt);
      EXPECT_TRUE(multi.psi_balance.strictly_balanced);
      EXPECT_EQ(multi.coloring.color, plain.coloring.color);
      EXPECT_EQ(multi.max_boundary, plain.max_boundary);
    }
  }
}

TEST(DecomposeMulti, ExtrasRejectOptionsThatCannotBalanceThem) {
  // The bisection warm start balances psi only, so with extra measures it
  // is refused instead of silently replaced by Paper.
  const Graph g = make_grid_cube(2, 8);
  const auto psi = testing::weights_for(g, WeightModel::Uniform, 3);
  const auto phi = testing::weights_for(g, WeightModel::Zipf, 5);
  const std::vector<MeasureRef> extra{MeasureRef(phi)};
  for (const InitMethod init : {InitMethod::Bisection, InitMethod::Best}) {
    DecomposeOptions opt;
    opt.k = 4;
    opt.init = init;
    EXPECT_THROW(decompose_multi(g, psi, extra, opt), std::invalid_argument)
        << static_cast<int>(init);
  }
}

TEST(DecomposeMulti, ClimateComputePlusMemoryScenario) {
  // The motivating use: balance simulation time strictly AND memory
  // footprint weakly, with small communication.
  ClimateParams cp;
  cp.rows = 24;
  cp.cols = 48;
  const auto inst = make_climate_instance(cp);
  // Memory proxy: constant per region plus storm overhead.
  std::vector<double> memory(inst.weights.size());
  for (std::size_t i = 0; i < memory.size(); ++i)
    memory[i] = 1.0 + 0.2 * inst.weights[i];
  const std::vector<MeasureRef> extra{MeasureRef(memory)};

  DecomposeOptions opt;
  opt.k = 12;
  const MultiDecomposeResult res =
      decompose_multi(inst.graph, inst.weights, extra, opt);
  EXPECT_TRUE(res.psi_balance.strictly_balanced);
  EXPECT_LE(res.weak_factors[0], 6.0);
}

TEST(DecomposeMulti, ManyMeasures) {
  const Graph g = make_grid_cube(2, 16);
  const auto psi = testing::weights_for(g, WeightModel::Unit, 13);
  std::vector<std::vector<double>> measures;
  for (int j = 0; j < 4; ++j)
    measures.push_back(testing::weights_for(
        g, testing::weight_models()[static_cast<std::size_t>(j + 1)],
        17 + static_cast<std::uint64_t>(j)));
  std::vector<MeasureRef> extra(measures.begin(), measures.end());

  DecomposeOptions opt;
  opt.k = 4;
  const MultiDecomposeResult res = decompose_multi(g, psi, extra, opt);
  EXPECT_TRUE(res.psi_balance.strictly_balanced);
  for (double f : res.weak_factors) EXPECT_LE(f, 16.0);
}

TEST(DecomposeMulti, RejectsArityMismatch) {
  const Graph g = make_grid_cube(2, 4);
  const std::vector<double> psi(16, 1.0);
  const std::vector<double> bad(3, 1.0);
  const std::vector<MeasureRef> extra{MeasureRef(bad)};
  DecomposeOptions opt;
  opt.k = 2;
  EXPECT_THROW(decompose_multi(g, psi, extra, opt), std::invalid_argument);
}

}  // namespace
}  // namespace mmd
