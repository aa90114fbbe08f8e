#include <gtest/gtest.h>

#include <array>

#include "gen/grid.hpp"
#include "graph/graph.hpp"
#include "test_helpers.hpp"

namespace mmd {
namespace {

using testing::two_triangles;

TEST(GraphBuilder, BasicStructure) {
  const Graph g = two_triangles();
  EXPECT_EQ(g.num_vertices(), 6);
  EXPECT_EQ(g.num_edges(), 7);
  EXPECT_EQ(g.size(), 13);
  EXPECT_EQ(g.degree(2), 3);
  EXPECT_EQ(g.max_degree(), 3);
}

TEST(GraphBuilder, AdjacencyIsSymmetric) {
  const Graph g = two_triangles();
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (Vertex u : g.neighbors(v)) {
      const auto nbrs = g.neighbors(u);
      EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), v), nbrs.end());
    }
  }
}

TEST(GraphBuilder, EdgeIdsAlignWithEndpoints) {
  const Graph g = two_triangles();
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto eids = g.incident_edges(v);
    ASSERT_EQ(nbrs.size(), eids.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const auto [a, b] = g.endpoints(eids[i]);
      EXPECT_TRUE((a == v && b == nbrs[i]) || (b == v && a == nbrs[i]));
    }
  }
}

TEST(GraphBuilder, WeightedDegree) {
  const Graph g = two_triangles();
  // Vertex 2 touches edges of cost 2, 3, 10; vertex 3 touches 10, 4, 6.
  EXPECT_DOUBLE_EQ(g.weighted_degree(2), 15.0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(3), 20.0);
  EXPECT_DOUBLE_EQ(g.max_weighted_degree(), 20.0);
}

TEST(GraphBuilder, CoalescesParallelEdges) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 1.5);
  b.add_edge(1, 0, 2.5);  // same undirected edge
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.edge_cost(0), 4.0);
}

TEST(GraphBuilder, RejectsSelfLoops) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(1, 1, 1.0), std::invalid_argument);
}

TEST(GraphBuilder, RejectsBadInputs) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2, 1.0), std::invalid_argument);
  EXPECT_THROW(b.add_edge(0, 1, -1.0), std::invalid_argument);
}

TEST(GraphBuilder, RejectsPartialCoordinates) {
  GraphBuilder b(2);
  const std::array<std::int32_t, 2> xy{0, 0};
  b.set_coords(0, xy);
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(GraphBuilder, EmptyGraph) {
  GraphBuilder b(0);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_DOUBLE_EQ(g.max_weighted_degree(), 0.0);
}

TEST(GraphBuilder, IsolatedVertices) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 2.0);
  const Graph g = b.build();
  EXPECT_EQ(g.degree(2), 0);
  EXPECT_TRUE(g.neighbors(2).empty());
  EXPECT_DOUBLE_EQ(g.weighted_degree(3), 0.0);
}

TEST(Graph, CoordsRoundTrip) {
  GraphBuilder b(2);
  const std::array<std::int32_t, 3> c0{1, 2, 3}, c1{4, 5, 6};
  b.set_coords(0, c0);
  b.set_coords(1, c1);
  b.add_edge(0, 1, 1.0);
  const Graph g = b.build();
  EXPECT_TRUE(g.has_coords());
  EXPECT_EQ(g.dim(), 3);
  EXPECT_EQ(g.coords(1)[2], 6);
}

TEST(Graph, IsGridGraph) {
  EXPECT_TRUE(make_grid_cube(2, 4).is_grid_graph());
  EXPECT_TRUE(make_grid_cube(3, 3).is_grid_graph());
  // Diagonal edge breaks grid-ness.
  GraphBuilder b(4);
  const std::array<std::int32_t, 2> p00{0, 0}, p01{0, 1}, p10{1, 0}, p11{1, 1};
  b.set_coords(0, p00);
  b.set_coords(1, p01);
  b.set_coords(2, p10);
  b.set_coords(3, p11);
  b.add_edge(0, 3, 1.0);  // L1 distance 2
  EXPECT_FALSE(b.build().is_grid_graph());
  // No coordinates at all: not a grid graph.
  EXPECT_FALSE(testing::two_triangles().is_grid_graph());
}

TEST(Graph, RangeChecks) {
  const Graph g = two_triangles();
  EXPECT_THROW(g.neighbors(-1), std::invalid_argument);
  EXPECT_THROW(g.neighbors(6), std::invalid_argument);
  EXPECT_THROW(g.edge_cost(7), std::invalid_argument);
  EXPECT_THROW(g.coords(0), std::invalid_argument);  // no coords attached
}

}  // namespace
}  // namespace mmd
