#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>

#include "gen/geometric.hpp"
#include "gen/grid.hpp"
#include "graph/connectivity.hpp"
#include "separators/orderings.hpp"
#include "test_helpers.hpp"
#include "util/prng.hpp"

namespace mmd {
namespace {

bool is_permutation_of(std::vector<Vertex> order, std::vector<Vertex> set) {
  std::sort(order.begin(), order.end());
  std::sort(set.begin(), set.end());
  return order == set;
}

class OrderingTest : public ::testing::Test {
 protected:
  OrderingTest() : g_(make_grid_cube(2, 6)), vs_(testing::all_vertices(g_)) {}
  Graph g_;
  std::vector<Vertex> vs_;
};

TEST_F(OrderingTest, BfsIsPermutation) {
  Membership in_w(g_.num_vertices());
  in_w.assign(vs_);
  const auto order = pseudo_peripheral_bfs_order(g_, vs_, in_w);
  EXPECT_TRUE(is_permutation_of(order, vs_));
}

TEST_F(OrderingTest, BfsStartsAtCorner) {
  // On a grid, the double sweep should start from an extremal vertex: its
  // eccentricity equals the graph diameter.
  Membership in_w(g_.num_vertices());
  in_w.assign(vs_);
  const auto order = pseudo_peripheral_bfs_order(g_, vs_, in_w);
  const auto c = g_.coords(order.front());
  const bool corner_like = (c[0] == 0 || c[0] == 5) && (c[1] == 0 || c[1] == 5);
  EXPECT_TRUE(corner_like) << "started at (" << c[0] << "," << c[1] << ")";
}

TEST_F(OrderingTest, LexicographicIsSorted) {
  const auto order = lexicographic_order(g_, vs_);
  EXPECT_TRUE(is_permutation_of(order, vs_));
  for (std::size_t i = 1; i < order.size(); ++i) {
    const auto a = g_.coords(order[i - 1]);
    const auto b = g_.coords(order[i]);
    EXPECT_TRUE(a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]));
  }
}

TEST_F(OrderingTest, AxisOrderSortsBySingleAxis) {
  const auto order = axis_order(g_, vs_, 1);
  EXPECT_TRUE(is_permutation_of(order, vs_));
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_LE(g_.coords(order[i - 1])[1], g_.coords(order[i])[1]);
  EXPECT_THROW(axis_order(g_, vs_, 2), std::invalid_argument);
}

TEST_F(OrderingTest, MortonIsPermutationAndLocal) {
  const auto order = morton_order(g_, vs_);
  EXPECT_TRUE(is_permutation_of(order, vs_));
  // Z-curve locality: average L1 jump between consecutive vertices must be
  // far below the random-order expectation (~side * 2/3 each axis).
  double total_jump = 0.0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    const auto a = g_.coords(order[i - 1]);
    const auto b = g_.coords(order[i]);
    total_jump += std::abs(a[0] - b[0]) + std::abs(a[1] - b[1]);
  }
  EXPECT_LT(total_jump / static_cast<double>(order.size() - 1), 3.0);
}

TEST_F(OrderingTest, MortonFirstIsOrigin) {
  const auto order = morton_order(g_, vs_);
  EXPECT_EQ(g_.coords(order.front())[0], 0);
  EXPECT_EQ(g_.coords(order.front())[1], 0);
}

TEST_F(OrderingTest, FusedDoubleSweepMatchesTwoPassReference) {
  // The fused scratch variant (one subset tagging for both sweeps) must
  // reproduce the classic double sweep exactly: BFS from the front, then
  // BFS from the last vertex reached.
  Membership in_w(g_.num_vertices());
  in_w.assign(vs_);
  const auto first = bfs_order(g_, vs_, in_w, vs_.front());
  const auto reference = bfs_order(g_, vs_, in_w, first.back());

  BfsScratch scratch;
  std::vector<Vertex> out;
  // Repeated calls reuse the scratch tags; every round must match.
  for (int round = 0; round < 3; ++round) {
    pseudo_peripheral_bfs_order_into(g_, vs_, scratch, out);
    EXPECT_EQ(out, reference) << "round " << round;
  }
  EXPECT_EQ(pseudo_peripheral_bfs_order(g_, vs_, in_w), reference);
}

TEST_F(OrderingTest, FusedDoubleSweepSurvivesTagWraparound) {
  Membership in_w(g_.num_vertices());
  in_w.assign(vs_);
  const auto reference = pseudo_peripheral_bfs_order(g_, vs_, in_w);
  BfsScratch scratch;
  std::vector<Vertex> out;
  // Park the tag counter just below the wrap threshold and cross it.
  scratch.tag = std::numeric_limits<std::uint32_t>::max() - 4;
  for (int round = 0; round < 6; ++round) {
    pseudo_peripheral_bfs_order_into(g_, vs_, scratch, out);
    EXPECT_EQ(out, reference) << "round " << round;
  }
}

TEST(OrderingEdge, CoordinateOrdersRequireCoords) {
  const Graph g = testing::two_triangles();
  const auto vs = testing::all_vertices(g);
  EXPECT_THROW(lexicographic_order(g, vs), std::invalid_argument);
  EXPECT_THROW(morton_order(g, vs), std::invalid_argument);
}

TEST(OrderingEdge, EmptySubset) {
  const Graph g = make_grid_cube(2, 3);
  Membership in_w(g.num_vertices());
  in_w.assign({});
  EXPECT_TRUE(pseudo_peripheral_bfs_order(g, {}, in_w).empty());
  EXPECT_TRUE(lexicographic_order(g, {}).empty());
  EXPECT_TRUE(morton_order(g, {}).empty());
}

TEST(OrderingEdge, MortonHandlesNegativeCoords) {
  GraphBuilder b(4);
  const std::array<std::int32_t, 2> p0{-3, -3}, p1{-3, -2}, p2{-2, -3}, p3{-2, -2};
  b.set_coords(0, p0);
  b.set_coords(1, p1);
  b.set_coords(2, p2);
  b.set_coords(3, p3);
  const Graph g = b.build();
  const auto order = morton_order(g, testing::all_vertices(g));
  EXPECT_EQ(order.front(), 0);  // offset puts (-3,-3) at the origin
  EXPECT_EQ(order.back(), 3);
}

// ---- OrderingCache::subset_morton_order against morton_order -----------
//
// In three dimensions the cache's exact-key radix must reproduce the
// comparator reference exactly, ties included, whatever order w_list
// arrives in.

/// ids (any order) in id order, reversed, and shuffled.
std::array<std::vector<Vertex>, 3> w_list_orders(std::vector<Vertex> ids,
                                                 Rng& rng) {
  std::sort(ids.begin(), ids.end());
  std::array<std::vector<Vertex>, 3> out{
      ids, std::vector<Vertex>(ids.rbegin(), ids.rend()), ids};
  std::shuffle(out[2].begin(), out[2].end(), rng);
  return out;
}

/// subset_morton_order == morton_order on every w_list order of ids, with
/// both the caller's scratch and the cache's own.
void expect_matches_reference(const OrderingCache& cache, const Graph& g,
                              const std::vector<Vertex>& ids, Rng& rng) {
  OrderingScratch scratch;
  std::vector<Vertex> out;
  for (const auto& w_list : w_list_orders(ids, rng)) {
    const std::vector<Vertex> want = morton_order(g, w_list);
    cache.subset_morton_order(w_list, out, &scratch);
    EXPECT_EQ(out, want) << "|W| = " << w_list.size();
    cache.subset_morton_order(w_list, out);
    EXPECT_EQ(out, want) << "|W| = " << w_list.size();
  }
}

/// A coordinate-only graph (no edges): vertex i sits at pts[i].
template <std::size_t D>
Graph point_graph(const std::vector<std::array<std::int32_t, D>>& pts) {
  GraphBuilder b(static_cast<Vertex>(pts.size()));
  for (std::size_t i = 0; i < pts.size(); ++i)
    b.set_coords(static_cast<Vertex>(i), pts[i]);
  return b.build();
}

TEST(OrderingCacheMorton, MatchesComparatorOnRandomGeometric3Subsets) {
  const Graph g = make_random_geometric3(1500, 0.1);
  ASSERT_EQ(g.dim(), 3);
  OrderingCache cache;
  cache.bind(g);
  Rng rng(1701);
  for (int trial = 0; trial < 40; ++trial) {
    // Even trials: a random sample of the whole cube.  Odd trials: the
    // points inside a random box, so the keys' anchor is off the origin.
    const double keep = std::array{0.01, 0.05, 0.3, 1.0}[trial / 2 % 4];
    std::array<std::int32_t, 3> lo{}, hi{};
    for (int d = 0; d < 3; ++d) {
      lo[static_cast<std::size_t>(d)] =
          static_cast<std::int32_t>(rng.uniform_int(0, 1 << 19));
      hi[static_cast<std::size_t>(d)] =
          lo[static_cast<std::size_t>(d)] +
          static_cast<std::int32_t>(rng.uniform_int(1 << 17, 1 << 19));
    }
    std::vector<Vertex> ids;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const auto c = g.coords(v);
      const bool in_box = c[0] >= lo[0] && c[0] <= hi[0] && c[1] >= lo[1] &&
                          c[1] <= hi[1] && c[2] >= lo[2] && c[2] <= hi[2];
      if (trial % 2 == 0 ? rng.uniform() < keep : in_box) ids.push_back(v);
    }
    expect_matches_reference(cache, g, ids, rng);
  }
}

TEST(OrderingCacheMorton, RepeatedNegativeCoordsBreakTiesById) {
  // Several vertices share each position, so equal keys occur and their
  // order is decided by vertex id alone.
  const std::vector<std::array<std::int32_t, 3>> sites{
      {-2, -2, -2}, {5, -1, 3}, {0, 0, 0}, {-7, 4, -1}, {3, 3, -6}};
  std::vector<std::array<std::int32_t, 3>> pts;
  for (int i = 0; i < 23; ++i)
    pts.push_back(sites[static_cast<std::size_t>((i * 7) % 5)]);
  const Graph g = point_graph(pts);
  OrderingCache cache;
  cache.bind(g);
  Rng rng(1702);
  const std::vector<Vertex> all = testing::all_vertices(g);
  expect_matches_reference(cache, g, all, rng);
  expect_matches_reference(cache, g, {all.begin() + 3, all.end() - 5}, rng);

  // Independently of the reference: equal positions appear in id order.
  std::vector<Vertex> w_list(all.rbegin(), all.rend()), out;
  cache.subset_morton_order(w_list, out);
  ASSERT_TRUE(is_permutation_of(out, all));
  for (std::size_t i = 1; i < out.size(); ++i) {
    const auto a = g.coords(out[i - 1]);
    const auto b = g.coords(out[i]);
    if (std::equal(a.begin(), a.end(), b.begin())) {
      EXPECT_LT(out[i - 1], out[i]);
    }
  }
}

TEST(OrderingCacheMorton, AxisSpanAtTheKeyWidthLimit) {
  // 21 bits per axis: a subset spanning 2^21 - 1 on one axis takes the
  // key path, one spanning 2^21 falls back to the comparator.  Both must
  // equal morton_order, the far end included.
  Rng rng(1703);
  for (const std::int32_t span : {(1 << 21) - 1, 1 << 21}) {
    for (int axis = 0; axis < 3; ++axis) {
      const std::int32_t base = -1000;
      std::vector<std::array<std::int32_t, 3>> pts;
      for (int i = 0; i < 200; ++i) {
        std::array<std::int32_t, 3> p{};
        for (int d = 0; d < 3; ++d)
          p[static_cast<std::size_t>(d)] =
              d == axis ? base + static_cast<std::int32_t>(rng.uniform_int(0, span))
                        : static_cast<std::int32_t>(rng.uniform_int(-3, 3));
        pts.push_back(p);
      }
      pts[0][static_cast<std::size_t>(axis)] = base;
      pts[1][static_cast<std::size_t>(axis)] = base + span;
      pts[2] = pts[1];  // a tie at the far end
      const Graph g = point_graph(pts);
      OrderingCache cache;
      cache.bind(g);
      SCOPED_TRACE(::testing::Message() << "span " << span << " axis " << axis);
      expect_matches_reference(cache, g, testing::all_vertices(g), rng);
    }
  }
}

TEST(OrderingCacheMorton, FourDimensionsMatchComparator) {
  const Graph g = make_grid_cube(4, 4);
  ASSERT_EQ(g.dim(), 4);
  OrderingCache cache;
  cache.bind(g);
  Rng rng(1704);
  const std::vector<Vertex> all = testing::all_vertices(g);
  expect_matches_reference(cache, g, all, rng);
  std::vector<Vertex> half;
  for (const Vertex v : all)
    if (rng.uniform() < 0.5) half.push_back(v);
  expect_matches_reference(cache, g, half, rng);
}

}  // namespace
}  // namespace mmd
