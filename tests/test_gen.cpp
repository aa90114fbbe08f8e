#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "gen/basic.hpp"
#include "gen/copies.hpp"
#include "gen/geometric.hpp"
#include "gen/grid.hpp"
#include "gen/mesh.hpp"
#include "gen/weights.hpp"
#include "graph/connectivity.hpp"
#include "test_helpers.hpp"
#include "util/norms.hpp"
#include "util/prng.hpp"

namespace mmd {
namespace {

TEST(GridGen, CountsAndCoords) {
  const Graph g = make_grid_cube(2, 4);
  EXPECT_EQ(g.num_vertices(), 16);
  EXPECT_EQ(g.num_edges(), 2 * 4 * 3);  // 2 * side * (side-1)
  EXPECT_TRUE(g.is_grid_graph());
  EXPECT_EQ(g.dim(), 2);
  // Row-major ids: vertex (r, c) = 4r + c.
  const std::vector<int> dims{4, 4};
  const std::vector<int> pt{2, 3};
  EXPECT_EQ(grid_vertex_id(dims, pt), 11);
  EXPECT_EQ(g.coords(11)[0], 2);
  EXPECT_EQ(g.coords(11)[1], 3);
}

TEST(GridGen, ThreeDimensional) {
  const Graph g = make_grid_cube(3, 3);
  EXPECT_EQ(g.num_vertices(), 27);
  EXPECT_EQ(g.num_edges(), 3 * 9 * 2);  // 3 axes * 9 lines * 2 edges
  EXPECT_TRUE(g.is_grid_graph());
  EXPECT_EQ(connected_components(g).count, 1);
}

TEST(GridGen, RectangularExtents) {
  const std::vector<int> dims{2, 5};
  const Graph g = make_grid(dims);
  EXPECT_EQ(g.num_vertices(), 10);
  EXPECT_EQ(g.num_edges(), 5 + 2 * 4);
}

TEST(GridGen, DegenerateSingleVertex) {
  const std::vector<int> dims{1};
  const Graph g = make_grid(dims);
  EXPECT_EQ(g.num_vertices(), 1);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(GridGen, CostModelsRespectBounds) {
  for (CostModel m : {CostModel::Uniform, CostModel::LogUniform,
                      CostModel::SmoothField, CostModel::Bands}) {
    CostParams cp;
    cp.model = m;
    cp.lo = 2.0;
    cp.hi = 50.0;
    const Graph g = make_grid_cube(2, 8, cp);
    for (double c : g.edge_costs()) {
      EXPECT_GE(c, 2.0 - 1e-9);
      EXPECT_LE(c, 50.0 + 1e-9);
    }
  }
}

TEST(GridGen, DeterministicPerSeed) {
  CostParams cp;
  cp.model = CostModel::Uniform;
  cp.hi = 9.0;
  cp.seed = 123;
  const Graph a = make_grid_cube(2, 6, cp);
  const Graph b = make_grid_cube(2, 6, cp);
  for (EdgeId e = 0; e < a.num_edges(); ++e)
    EXPECT_DOUBLE_EQ(a.edge_cost(e), b.edge_cost(e));
}

TEST(GridGen, NaturalP) {
  EXPECT_DOUBLE_EQ(grid_natural_p(2), 2.0);
  EXPECT_DOUBLE_EQ(grid_natural_p(3), 1.5);
  EXPECT_GT(grid_natural_p(1), 4.0);
}

TEST(MeshGen, TriMeshStructure) {
  const Graph g = make_tri_mesh(3, 4);
  EXPECT_EQ(g.num_vertices(), 12);
  // lattice: 3*3 + 2*4 = 17; diagonals: 2*3 = 6.
  EXPECT_EQ(g.num_edges(), 17 + 6);
  EXPECT_FALSE(g.is_grid_graph());  // diagonals
  EXPECT_EQ(connected_components(g).count, 1);
}

TEST(MeshGen, ClimateInstanceShapes) {
  ClimateParams cp;
  cp.rows = 8;
  cp.cols = 16;
  const auto inst = make_climate_instance(cp);
  EXPECT_EQ(inst.graph.num_vertices(), 128);
  EXPECT_EQ(static_cast<int>(inst.weights.size()), 128);
  for (double w : inst.weights) EXPECT_GE(w, 1.0);
  // Equator rows should carry more weight than polar rows on average.
  double polar = 0, equator = 0;
  for (Vertex v = 0; v < inst.graph.num_vertices(); ++v) {
    const int r = inst.graph.coords(v)[0];
    if (r == 0 || r == cp.rows - 1) polar += inst.weights[static_cast<std::size_t>(v)];
    if (r == cp.rows / 2) equator += inst.weights[static_cast<std::size_t>(v)];
  }
  EXPECT_GT(equator / cp.cols, polar / (2 * cp.cols));
}

TEST(BasicGen, PathCycleStarTree) {
  EXPECT_EQ(make_path(5).num_edges(), 4);
  EXPECT_EQ(make_cycle(5).num_edges(), 5);
  EXPECT_EQ(make_star(6).num_edges(), 6);
  const Graph t = make_complete_binary_tree(3);
  EXPECT_EQ(t.num_vertices(), 15);
  EXPECT_EQ(t.num_edges(), 14);
  EXPECT_EQ(connected_components(t).count, 1);
}

TEST(BasicGen, Torus) {
  const Graph g = make_torus(4, 5);
  EXPECT_EQ(g.num_vertices(), 20);
  EXPECT_EQ(g.num_edges(), 40);  // 2 per vertex
  for (Vertex v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), 4);
}

TEST(BasicGen, Isolated) {
  const Graph g = make_isolated(7);
  EXPECT_EQ(g.num_vertices(), 7);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(BasicGen, RandomRegularNearRegular) {
  const Graph g = make_random_regular(200, 6);
  EXPECT_EQ(g.num_vertices(), 200);
  // Configuration model drops a few stubs; average degree close to 6.
  const double avg_deg = 2.0 * g.num_edges() / g.num_vertices();
  EXPECT_GT(avg_deg, 5.0);
  EXPECT_LE(g.max_degree(), 6);
  // Whp connected and expanding at this degree/size.
  EXPECT_EQ(connected_components(g).count, 1);
}

TEST(BasicGen, RandomRegularExpansion) {
  // Every balanced vertex split cuts a constant fraction of edges: check a
  // few random halves (necessary condition for expansion).
  const Graph g = make_random_regular(300, 6, {}, 17);
  Rng rng(5);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<bool> side(300, false);
    for (int i = 0; i < 150; ++i)
      side[rng.next_below(300)] = true;  // ~ random 40% subset
    double cut = 0.0;
    long long in_side = 0;
    for (Vertex v = 0; v < 300; ++v) in_side += side[static_cast<std::size_t>(v)];
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [u, v] = g.endpoints(e);
      if (side[static_cast<std::size_t>(u)] != side[static_cast<std::size_t>(v)])
        cut += 1.0;
    }
    const double smaller = std::min<double>(in_side, 300 - in_side);
    EXPECT_GT(cut, 0.5 * smaller) << "trial " << trial;
  }
}

TEST(BasicGen, RandomRegularRejectsOddTotalDegree) {
  EXPECT_THROW(make_random_regular(5, 3), std::invalid_argument);
}

TEST(GeometricGen, RggBoundedDegree) {
  const Graph g = make_random_geometric(400, 0.08, {}, 5, 9);
  EXPECT_EQ(g.num_vertices(), 400);
  EXPECT_GT(g.num_edges(), 200);  // dense enough to be interesting
  // Note: the cap limits edges *initiated* per vertex; the mutual total
  // stays within a small factor.
  EXPECT_LE(g.max_degree(), 2 * 9);
}

TEST(GeometricGen, KnnHasAtLeastKEdgesPerVertex) {
  const Graph g = make_knn(300, 4);
  EXPECT_EQ(g.num_vertices(), 300);
  // Every vertex initiated >= min(k, reachable) picks; symmetrized.
  double avg_deg = 2.0 * g.num_edges() / g.num_vertices();
  EXPECT_GE(avg_deg, 4.0);
  EXPECT_LE(avg_deg, 8.0 + 1e-9);
}

TEST(CopiesGen, DisjointUnionStructure) {
  const Graph base = make_grid_cube(2, 3);
  const auto du = make_disjoint_copies(base, 3);
  EXPECT_EQ(du.graph.num_vertices(), 27);
  EXPECT_EQ(du.graph.num_edges(), 3 * base.num_edges());
  EXPECT_EQ(connected_components(du.graph).count, 3);
  EXPECT_TRUE(du.graph.is_grid_graph());  // shifted copies stay grids
  EXPECT_EQ(du.copy_of[0], 0);
  EXPECT_EQ(du.copy_of[26], 2);
  EXPECT_EQ(du.base_vertex[9 + 4], 4);
}

TEST(CopiesGen, ReplicateValues) {
  const Graph base = make_path(3);
  const auto du = make_disjoint_copies(base, 2);
  const std::vector<double> base_vals{1.0, 2.0, 3.0};
  const auto rep = replicate_vertex_values(du, base_vals);
  const std::vector<double> expect{1, 2, 3, 1, 2, 3};
  EXPECT_EQ(rep, expect);
}

TEST(WeightsGen, FamiliesWithinBounds) {
  for (WeightModel m : testing::weight_models()) {
    WeightParams wp;
    wp.model = m;
    wp.lo = 1.0;
    wp.hi = 50.0;
    const auto w = make_weights(100, wp);
    ASSERT_EQ(w.size(), 100u);
    for (double x : w) {
      EXPECT_GE(x, 0.0);
      EXPECT_TRUE(std::isfinite(x));
      if (m != WeightModel::Exponential) {  // unbounded tail
        EXPECT_LE(x, 51.0);
      }
    }
    EXPECT_GT(norm1(w), 0.0);
  }
}

TEST(WeightsGen, OneHeavyHasExactlyOneHeavy) {
  WeightParams wp;
  wp.model = WeightModel::OneHeavy;
  wp.lo = 1.0;
  wp.hi = 42.0;
  const auto w = make_weights(50, wp);
  EXPECT_EQ(std::count(w.begin(), w.end(), 42.0), 1);
  EXPECT_EQ(std::count(w.begin(), w.end(), 1.0), 49);
}

TEST(WeightsGen, ZipfIsHeavyTailed) {
  WeightParams wp;
  wp.model = WeightModel::Zipf;
  wp.hi = 100.0;
  wp.shape = 1.0;
  const auto w = make_weights(1000, wp);
  EXPECT_DOUBLE_EQ(norm_inf(w), 100.0);
  // Top weight dominates the median by a wide margin.
  std::vector<double> sorted(w);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GT(sorted.back() / sorted[500], 10.0);
}

}  // namespace
}  // namespace mmd
