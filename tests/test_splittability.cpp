#include <gtest/gtest.h>

#include "gen/basic.hpp"
#include "gen/geometric.hpp"
#include "gen/grid.hpp"
#include "separators/grid_split.hpp"
#include "separators/prefix_splitter.hpp"
#include "separators/separator.hpp"
#include "separators/splittability.hpp"
#include "test_helpers.hpp"

namespace mmd {
namespace {

TEST(Splittability, UnitGridIsConstant) {
  // 2-D unit-cost grids have sigma_2 = O(1); the estimator must land in a
  // small constant range for the prefix splitter.
  const Graph g = make_grid_cube(2, 16);
  PrefixSplitter splitter;
  SplittabilityOptions opt;
  opt.trials = 32;
  const auto est = estimate_splittability(g, 2.0, splitter, opt);
  EXPECT_GT(est.samples, 10);
  EXPECT_GT(est.max_ratio, 0.0);
  EXPECT_LT(est.max_ratio, 4.0);
  EXPECT_LE(est.mean, est.max_ratio);
  EXPECT_LE(est.p95, est.max_ratio + 1e-12);
}

TEST(Splittability, PathIsTiny) {
  // Splitting a path cuts one edge: sigma_p ratio ~ 1 / ||c||_p -> ~0.
  const Graph g = make_path(128);
  PrefixSplitter splitter;
  SplittabilityOptions opt;
  opt.trials = 16;
  const auto est = estimate_splittability(g, 2.0, splitter, opt);
  EXPECT_LT(est.max_ratio, 0.8);
}

TEST(Splittability, GridSplitterStaysBoundedUnderFluctuation) {
  CostParams cp;
  cp.model = CostModel::LogUniform;
  cp.lo = 1.0;
  cp.hi = 100.0;
  const Graph g = make_grid_cube(2, 12, cp);
  GridSplitter splitter;
  SplittabilityOptions opt;
  opt.trials = 24;
  const auto est = estimate_splittability(g, 2.0, splitter, opt);
  // Theorem 19: sigma <= O(d log^{1/d} phi) = O(2 * sqrt(log 101)) ~ 5.3.
  EXPECT_LT(est.max_ratio, 2.0 * grid_splittability_bound(2, 100.0));
}

TEST(Splittability, EmptyGraph) {
  const Graph g = make_isolated(0);
  PrefixSplitter splitter;
  const auto est = estimate_splittability(g, 2.0, splitter);
  EXPECT_EQ(est.samples, 0);
}

TEST(Splittability, EdgelessGraphHasNoSamples) {
  const Graph g = make_isolated(20);
  PrefixSplitter splitter;
  const auto est = estimate_splittability(g, 2.0, splitter);
  EXPECT_EQ(est.samples, 0);  // ||c|W||_p is always zero
}

TEST(GridSplittabilityBound, ShapeChecks) {
  // Increasing in phi, and the d-dependence follows d * log^{1/d}.
  EXPECT_LT(grid_splittability_bound(2, 1.0), grid_splittability_bound(2, 100.0));
  EXPECT_LT(grid_splittability_bound(2, 100.0),
            grid_splittability_bound(2, 10000.0));
  EXPECT_GT(grid_splittability_bound(3, 100.0), 0.0);
  EXPECT_THROW(grid_splittability_bound(0, 1.0), std::invalid_argument);
  EXPECT_THROW(grid_splittability_bound(2, 0.5), std::invalid_argument);
}

TEST(Splittability, DeterministicPerSeed) {
  const Graph g = make_grid_cube(2, 10);
  PrefixSplitter s1, s2;
  SplittabilityOptions opt;
  opt.trials = 8;
  const auto a = estimate_splittability(g, 2.0, s1, opt);
  const auto b = estimate_splittability(g, 2.0, s2, opt);
  EXPECT_DOUBLE_EQ(a.max_ratio, b.max_ratio);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
}

TEST(Splittability, KnnIsBoundedWithPrefixSweeps) {
  // Remark 36: kNN graphs have beta_{d/(d-1)} = O(k^{1/d}); the estimator
  // with the prefix splitter's coordinate sweeps should land in a small
  // constant range.
  const Graph g = make_knn(500, 5);
  PrefixSplitter splitter;
  SplittabilityOptions opt;
  opt.trials = 16;
  const auto est = estimate_splittability(g, 2.0, splitter, opt);
  EXPECT_GT(est.samples, 4);
  EXPECT_LT(est.max_ratio, 6.0);
}

TEST(Separability, SandwichedAgainstSplittability) {
  // Lemma 37: beta_p and sigma_p agree up to local-fluctuation and degree
  // factors for well-behaved instances; check both estimators land within
  // a crude constant envelope of each other on a unit grid.
  const Graph g = make_grid_cube(2, 14);
  PrefixSplitter s1, s2;
  SplittabilityOptions opt;
  opt.trials = 24;
  const auto sigma = estimate_splittability(g, 2.0, s1, opt);
  const auto beta = estimate_separability(g, 2.0, s2, opt);
  ASSERT_GT(sigma.samples, 0);
  ASSERT_GT(beta.samples, 0);
  const double phi_l = local_fluctuation(g);  // = max degree = 4
  EXPECT_LE(beta.max_ratio, 4.0 * phi_l * sigma.max_ratio + 1.0);
  EXPECT_LE(sigma.max_ratio, 4.0 * phi_l * 2.0 * beta.max_ratio + 1.0);
}

}  // namespace
}  // namespace mmd
