#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "gen/basic.hpp"
#include "gen/grid.hpp"
#include "separators/grid_split.hpp"
#include "separators/prefix_splitter.hpp"
#include "separators/splittability.hpp"
#include "test_helpers.hpp"
#include "util/norms.hpp"

namespace mmd {
namespace {

using testing::expect_split_window;

TEST(GridSplit, RequiresCoordinates) {
  const Graph g = testing::two_triangles();
  const std::vector<double> w(6, 1.0);
  GridSplitter splitter;
  SplitRequest req;
  req.g = &g;
  const auto vs = testing::all_vertices(g);
  req.w_list = vs;
  req.weights = w;
  req.target = 3.0;
  EXPECT_THROW(splitter.split(req), std::invalid_argument);
}

TEST(GridSplit, StrictModeRejectsNonGrids) {
  const Graph g = make_torus(4, 4);  // coords but wrap edges
  const std::vector<double> w(16, 1.0);
  GridSplitter strict(true);
  SplitRequest req;
  req.g = &g;
  const auto vs = testing::all_vertices(g);
  req.w_list = vs;
  req.weights = w;
  req.target = 8.0;
  EXPECT_THROW(strict.split(req), std::invalid_argument);
}

using GridCase = std::tuple<int /*d*/, int /*side*/, double /*phi*/, double /*frac*/>;

class GridSplitProperty : public ::testing::TestWithParam<GridCase> {};

TEST_P(GridSplitProperty, WindowAndCostBound) {
  const auto [d, side, phi, frac] = GetParam();
  CostParams cp;
  cp.model = phi > 1.0 ? CostModel::LogUniform : CostModel::Unit;
  cp.lo = 1.0;
  cp.hi = phi;
  cp.seed = 19;
  const Graph g = make_grid_cube(d, side, cp);
  const auto vs = testing::all_vertices(g);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 23, 5.0);
  double total = 0.0;
  for (double x : w) total += x;

  GridSplitter splitter;
  SplitRequest req;
  req.g = &g;
  req.w_list = vs;
  req.weights = w;
  req.target = frac * total;
  const SplitResult res = splitter.split(req);
  expect_split_window(g, vs, w, req.target, res);

  // Theorem 19 cost shape: O(d log^{1/d}(phi+1) ||c||_p), p = d/(d-1).
  const double p = grid_natural_p(d);
  const double bound = grid_splittability_bound(d, phi) *
                       norm_p(g.edge_costs(), p);
  if (frac > 0.05 && frac < 0.95) {
    EXPECT_LE(res.boundary_cost, 4.0 * bound)
        << "d=" << d << " side=" << side << " phi=" << phi;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GridSplitProperty,
    ::testing::Values(GridCase{1, 64, 1.0, 0.5}, GridCase{1, 64, 100.0, 0.3},
                      GridCase{2, 16, 1.0, 0.5}, GridCase{2, 16, 10.0, 0.5},
                      GridCase{2, 16, 1000.0, 0.25}, GridCase{2, 24, 100.0, 0.7},
                      GridCase{3, 7, 1.0, 0.5}, GridCase{3, 7, 50.0, 0.4},
                      GridCase{2, 16, 1.0, 0.0}, GridCase{2, 16, 1.0, 1.0}),
    [](const ::testing::TestParamInfo<GridCase>& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param)) + "_phi" +
             std::to_string(static_cast<int>(std::get<2>(info.param))) + "_f" +
             std::to_string(static_cast<int>(std::get<3>(info.param) * 100));
    });

TEST(GridSplit, UnitCostSplitIsMonotone) {
  // With unit costs the whole-grid split is a single trivial level:
  // the returned set must be monotone in V (Lemmas 22/24).
  const Graph g = make_grid_cube(2, 8);
  const auto vs = testing::all_vertices(g);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  GridSplitter splitter;
  SplitRequest req;
  req.g = &g;
  req.w_list = vs;
  req.weights = w;
  req.target = 24.0;
  const SplitResult res = splitter.split(req);
  EXPECT_TRUE(is_monotone_set(g, vs, res.inside));
}

TEST(GridSplit, RecursionDepthIsLogPhi) {
  for (double phi : {1.0, 8.0, 64.0, 512.0, 4096.0}) {
    CostParams cp;
    cp.model = CostModel::LogUniform;
    cp.lo = 1.0;
    cp.hi = phi;
    const Graph g = make_grid_cube(2, 20, cp);
    const auto vs = testing::all_vertices(g);
    const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
    GridSplitter splitter;
    SplitRequest req;
    req.g = &g;
    req.w_list = vs;
    req.weights = w;
    req.target = 200.0;
    splitter.split(req);
    EXPECT_LE(splitter.last_depth(), static_cast<int>(std::log2(phi + 2)) + 4)
        << "phi=" << phi;
  }
}

TEST(GridSplit, WorksOnSubgrids) {
  const Graph g = make_grid_cube(2, 12);
  // W = an L-shaped region.
  std::vector<Vertex> w_list;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto c = g.coords(v);
    if (c[0] < 6 || c[1] < 6) w_list.push_back(v);
  }
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  GridSplitter splitter;
  SplitRequest req;
  req.g = &g;
  req.w_list = w_list;
  req.weights = w;
  req.target = static_cast<double>(w_list.size()) / 3.0;
  const SplitResult res = splitter.split(req);
  expect_split_window(g, w_list, w, req.target, res);
  Membership in_w(g.num_vertices());
  in_w.assign(w_list);
  for (Vertex v : res.inside) EXPECT_TRUE(in_w.contains(v));
}

TEST(GridSplit, BandsCostBeatsObliviousSweepSometimes) {
  // An expensive vertical band: cutting along it is catastrophic; the cost-
  // aware grid splitter must stay well below the worst sweep.
  CostParams cp;
  cp.model = CostModel::Bands;
  cp.lo = 1.0;
  cp.hi = 100.0;
  const Graph g = make_grid_cube(2, 18, cp);
  const auto vs = testing::all_vertices(g);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);

  GridSplitter splitter;
  SplitRequest req;
  req.g = &g;
  req.w_list = vs;
  req.weights = w;
  req.target = static_cast<double>(g.num_vertices()) / 2.0;
  const SplitResult res = splitter.split(req);
  // The half-weight constraint forces the cut near the band, so the right
  // yardstick is Theorem 19's bound sigma * ||c||_2 (phi = 100, d = 2) —
  // and it must stay far below cutting the band broadside (~9 rows x 17
  // edges x cost 100).
  const double bound =
      grid_splittability_bound(2, 100.0) * norm_p(g.edge_costs(), 2.0);
  EXPECT_LT(res.boundary_cost, bound);
  EXPECT_LT(res.boundary_cost, 9 * 17 * 100.0 / 4.0);
}

TEST(GridSplit, HandlesZeroAndTinyCosts) {
  GraphBuilder b(4);
  const std::array<std::int32_t, 1> c0{0}, c1{1}, c2{2}, c3{3};
  b.set_coords(0, c0);
  b.set_coords(1, c1);
  b.set_coords(2, c2);
  b.set_coords(3, c3);
  b.add_edge(0, 1, 0.0);
  b.add_edge(1, 2, 1e-12);
  b.add_edge(2, 3, 5.0);
  const Graph g = b.build();
  const std::vector<double> w(4, 1.0);
  GridSplitter splitter;
  SplitRequest req;
  req.g = &g;
  const auto vs = testing::all_vertices(g);
  req.w_list = vs;
  req.weights = w;
  req.target = 2.0;
  const SplitResult res = splitter.split(req);
  expect_split_window(g, vs, w, req.target, res);
}

TEST(GridSplit, MonotoneCheckerItself) {
  const Graph g = make_grid_cube(2, 3);
  const auto vs = testing::all_vertices(g);
  // Lower-left 2x2 block is monotone.
  std::vector<Vertex> mono;
  for (Vertex v : vs) {
    const auto c = g.coords(v);
    if (c[0] <= 1 && c[1] <= 1) mono.push_back(v);
  }
  EXPECT_TRUE(is_monotone_set(g, vs, mono));
  // The top-right corner alone is not monotone (it dominates missing pts).
  const std::vector<Vertex> corner{8};
  EXPECT_FALSE(is_monotone_set(g, vs, corner));
}

}  // namespace
}  // namespace mmd
