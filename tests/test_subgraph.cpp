#include <gtest/gtest.h>

#include <cmath>

#include "graph/subgraph.hpp"
#include "test_helpers.hpp"

namespace mmd {
namespace {

using testing::two_triangles;

TEST(Membership, BasicSemantics) {
  Membership m(5);
  m.clear();
  EXPECT_FALSE(m.contains(0));
  m.add(0);
  m.add(3);
  EXPECT_TRUE(m.contains(0));
  EXPECT_TRUE(m.contains(3));
  EXPECT_FALSE(m.contains(1));
  m.remove(0);
  EXPECT_FALSE(m.contains(0));
  EXPECT_TRUE(m.contains(3));
}

TEST(Membership, ClearIsOMembersNotON) {
  Membership m(4);
  const std::vector<Vertex> a{0, 1};
  m.assign(a);
  EXPECT_TRUE(m.contains(1));
  const std::vector<Vertex> b{2};
  m.assign(b);
  EXPECT_FALSE(m.contains(0));
  EXPECT_FALSE(m.contains(1));
  EXPECT_TRUE(m.contains(2));
}

TEST(Membership, SurvivesManyEpochs) {
  Membership m(2);
  for (int i = 0; i < 100000; ++i) {
    m.clear();
    m.add(0);
    ASSERT_TRUE(m.contains(0));
    ASSERT_FALSE(m.contains(1));
  }
}

TEST(InducedCostStats, WholeGraph) {
  const Graph g = two_triangles();
  const auto vs = testing::all_vertices(g);
  Membership in_w(g.num_vertices());
  in_w.assign(vs);
  const auto st = induced_cost_stats(g, vs, in_w, 2.0);
  EXPECT_EQ(st.num_edges, 7);
  EXPECT_DOUBLE_EQ(st.norm1, 31.0);
  EXPECT_DOUBLE_EQ(st.norm_inf, 10.0);
  const double expect_p =
      std::sqrt(1.0 + 4.0 + 9.0 + 100.0 + 16.0 + 25.0 + 36.0);
  EXPECT_NEAR(st.norm_p, expect_p, 1e-9);
}

TEST(InducedCostStats, SubsetExcludesCrossingEdges) {
  const Graph g = two_triangles();
  const std::vector<Vertex> w{0, 1, 2};  // first triangle; bridge 2-3 excluded
  Membership in_w(g.num_vertices());
  in_w.assign(w);
  const auto st = induced_cost_stats(g, w, in_w, 2.0);
  EXPECT_EQ(st.num_edges, 3);
  EXPECT_DOUBLE_EQ(st.norm1, 6.0);
  EXPECT_DOUBLE_EQ(st.norm_inf, 3.0);
}

TEST(InducedCostStats, EmptySubset) {
  const Graph g = two_triangles();
  const std::vector<Vertex> w;
  Membership in_w(g.num_vertices());
  in_w.assign(w);
  const auto st = induced_cost_stats(g, w, in_w, 2.0);
  EXPECT_EQ(st.num_edges, 0);
  EXPECT_DOUBLE_EQ(st.norm_p, 0.0);
}

TEST(SetMeasure, SumAndMax) {
  const std::vector<double> mu{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const std::vector<Vertex> s{0, 2, 5};
  EXPECT_DOUBLE_EQ(set_measure(mu, s), 10.0);
  EXPECT_DOUBLE_EQ(set_measure_max(mu, s), 6.0);
  EXPECT_DOUBLE_EQ(set_measure(mu, {}), 0.0);
  EXPECT_DOUBLE_EQ(set_measure_max(mu, {}), 0.0);
}

TEST(BoundaryCostWithin, ExcludesEdgesLeavingW) {
  const Graph g = two_triangles();
  const std::vector<Vertex> w{0, 1, 2};  // G[W] = first triangle
  const std::vector<Vertex> u{2};
  Membership in_w(g.num_vertices());
  in_w.assign(w);
  Membership in_u(g.num_vertices());
  in_u.assign(u);
  // delta_W({2}) = {2-0 (3), 2-1 (2)}; the bridge 2-3 leaves W.
  EXPECT_DOUBLE_EQ(boundary_cost_within(g, u, in_u, in_w), 5.0);
}

TEST(SetDifference, Complement) {
  const Graph g = two_triangles();
  const auto vs = testing::all_vertices(g);
  const std::vector<Vertex> u{1, 3, 5};
  Membership in_u(g.num_vertices());
  in_u.assign(u);
  const auto diff = set_difference(vs, in_u);
  const std::vector<Vertex> expect{0, 2, 4};
  EXPECT_EQ(diff, expect);
}

}  // namespace
}  // namespace mmd
