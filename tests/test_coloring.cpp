#include <gtest/gtest.h>

#include <bit>

#include "core/measures.hpp"
#include "graph/coloring.hpp"
#include "test_helpers.hpp"

namespace mmd {
namespace {

using testing::two_triangles;

Coloring triangle_split() {
  // {0,1,2} color 0, {3,4,5} color 1.
  Coloring chi(2, 6);
  for (Vertex v = 0; v < 6; ++v) chi[v] = v < 3 ? 0 : 1;
  return chi;
}

TEST(Coloring, IsTotal) {
  Coloring chi(2, 3);
  EXPECT_FALSE(chi.is_total());
  chi[0] = 0;
  chi[1] = 1;
  chi[2] = 1;
  EXPECT_TRUE(chi.is_total());
}

TEST(ClassMeasure, SumsPerClass) {
  const std::vector<double> mu{1, 2, 3, 4, 5, 6};
  const auto cm = class_measure(mu, triangle_split());
  EXPECT_DOUBLE_EQ(cm[0], 6.0);
  EXPECT_DOUBLE_EQ(cm[1], 15.0);
}

TEST(ClassMeasure, IgnoresUncolored) {
  std::vector<double> mu{1, 2, 3, 4, 5, 6};
  Coloring chi = triangle_split();
  chi[5] = kUncolored;
  const auto cm = class_measure(mu, chi);
  EXPECT_DOUBLE_EQ(cm[1], 9.0);
}

TEST(ColorClasses, CollectsMembers) {
  const auto classes = color_classes(triangle_split());
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0], (std::vector<Vertex>{0, 1, 2}));
  EXPECT_EQ(classes[1], (std::vector<Vertex>{3, 4, 5}));
}

TEST(ClassBoundaryCosts, BridgeCountsForBothSides) {
  const Graph g = two_triangles();
  const auto bc = class_boundary_costs(g, triangle_split());
  EXPECT_DOUBLE_EQ(bc[0], 10.0);  // bridge 2-3
  EXPECT_DOUBLE_EQ(bc[1], 10.0);
  EXPECT_DOUBLE_EQ(max_boundary_cost(g, triangle_split()), 10.0);
  EXPECT_DOUBLE_EQ(avg_boundary_cost(g, triangle_split()), 10.0);
}

TEST(ClassBoundaryCosts, UncoloredEndpointCountsForColoredSide) {
  const Graph g = two_triangles();
  Coloring chi = triangle_split();
  chi[3] = kUncolored;
  const auto bc = class_boundary_costs(g, chi);
  // Class 0 still pays the bridge; class 1 pays edges 3-4 (4) and 5-3 (6).
  EXPECT_DOUBLE_EQ(bc[0], 10.0);
  EXPECT_DOUBLE_EQ(bc[1], 10.0);
}

TEST(BoundaryCostOf, MatchesCutDefinition) {
  const Graph g = two_triangles();
  Coloring chi = triangle_split();
  // Only vertex 2 touches the bridge out of class 0; vertex 3 pays it
  // from class 1.
  EXPECT_EQ(boundary_cost_of(g, chi, 0), 0.0);
  EXPECT_EQ(boundary_cost_of(g, chi, 2), 10.0);
  EXPECT_EQ(boundary_cost_of(g, chi, 3), 10.0);
  EXPECT_EQ(boundary_cost_of(g, chi, 5), 0.0);
  // Summed over a class it is the class's cut.
  EXPECT_EQ(boundary_cost_of(g, chi, 0) + boundary_cost_of(g, chi, 1) +
                boundary_cost_of(g, chi, 2),
            class_boundary_costs(g, chi)[0]);

  // An uncolored neighbor counts for a colored vertex, and a colored
  // neighbor for an uncolored one; two uncolored endpoints do not count.
  chi[3] = kUncolored;
  chi[4] = kUncolored;
  EXPECT_EQ(boundary_cost_of(g, chi, 2), 10.0);        // 2-3
  EXPECT_EQ(boundary_cost_of(g, chi, 3), 10.0 + 6.0);  // 3-2, 3-5; not 3-4
  EXPECT_EQ(boundary_cost_of(g, chi, 4), 5.0);         // 4-5; not 4-3
  EXPECT_EQ(boundary_cost_of(g, chi, 5), 5.0 + 6.0);   // 5-4, 5-3
}

/// Proposition 7's Psi as an edge loop: each bichromatic edge adds its cost
/// to both endpoints, in edge-id order.
std::vector<double> psi_by_edges(const Graph& g, const Coloring& chi) {
  std::vector<double> psi(static_cast<std::size_t>(g.num_vertices()), 0.0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    if (chi[u] == chi[v]) continue;
    const double c = g.edge_cost(e);
    psi[static_cast<std::size_t>(u)] += c;
    psi[static_cast<std::size_t>(v)] += c;
  }
  return psi;
}

std::vector<std::uint64_t> bits(std::span<const double> xs) {
  std::vector<std::uint64_t> out;
  for (double x : xs) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

TEST(BoundaryCostOf, PsiEqualsTheEdgeLoopBitForBit) {
  // Incidence lists run in edge-id order, so the per-vertex sum adds the
  // same costs in the same order as the edge loop.
  for (const auto& [name, g] : testing::costed_graphs())
    for (const int k : {2, 7})
      for (const bool partial : {false, true})
        for (const std::uint64_t seed : {3ull, 11ull}) {
          const Coloring chi = testing::random_colors(g, k, partial, seed);
          EXPECT_EQ(bits(bichromatic_cost_measure(g, chi)),
                    bits(psi_by_edges(g, chi)))
              << name << " k=" << k << " partial=" << partial
              << " seed=" << seed;
        }
}

TEST(BoundaryCostOf, ClassCostsAreTheClassMeasureOfPsiBitForBit) {
  for (const auto& [name, g] : testing::costed_graphs())
    for (const int k : {2, 7})
      for (const bool partial : {false, true})
        for (const std::uint64_t seed : {3ull, 11ull}) {
          const Coloring chi = testing::random_colors(g, k, partial, seed);
          const std::vector<double> bc = class_boundary_costs(g, chi);
          EXPECT_EQ(bits(bc),
                    bits(class_measure(bichromatic_cost_measure(g, chi), chi)))
              << name << " k=" << k << " partial=" << partial
              << " seed=" << seed;
          // The non-allocating overload overwrites whatever it is given.
          std::vector<double> into(static_cast<std::size_t>(k), -1.0);
          class_boundary_costs(g, chi, into);
          EXPECT_EQ(bits(into), bits(bc)) << name;
        }
}

TEST(BalanceReport, PerfectBalance) {
  const std::vector<double> w{1, 1, 1, 1, 1, 1};
  const auto rep = balance_report(w, triangle_split());
  EXPECT_DOUBLE_EQ(rep.avg, 3.0);
  EXPECT_DOUBLE_EQ(rep.max_dev, 0.0);
  EXPECT_TRUE(rep.strictly_balanced);
  EXPECT_TRUE(rep.almost_strictly_balanced);
}

TEST(BalanceReport, StrictBoundIsExactlyDefinition1) {
  // k = 2, ||w||_inf = 4: strict bound = (1 - 1/2) * 4 = 2.
  const std::vector<double> w{4, 1, 1, 1, 1, 1};  // total 9, avg 4.5
  const auto rep = balance_report(w, triangle_split());
  EXPECT_DOUBLE_EQ(rep.strict_bound, 2.0);
  // Classes weigh 6 and 3 -> dev 1.5 <= 2: strictly balanced.
  EXPECT_DOUBLE_EQ(rep.max_dev, 1.5);
  EXPECT_TRUE(rep.strictly_balanced);
}

TEST(BalanceReport, DetectsImbalance) {
  const std::vector<double> w{1, 1, 1, 1, 1, 1};
  Coloring chi(2, 6);
  for (Vertex v = 0; v < 6; ++v) chi[v] = v < 5 ? 0 : 1;  // 5 vs 1
  const auto rep = balance_report(w, chi);
  EXPECT_DOUBLE_EQ(rep.max_dev, 2.0);
  EXPECT_FALSE(rep.strictly_balanced);  // bound is 0.5
  EXPECT_TRUE(rep.almost_strictly_balanced);
}

TEST(WeakBalanceFactor, MatchesDefinition) {
  const std::vector<double> mu{1, 1, 1, 1, 1, 1};
  // Balanced split: max class = 3; avg + max = 3 + 1 = 4 -> factor 0.75.
  EXPECT_DOUBLE_EQ(weak_balance_factor(mu, triangle_split()), 0.75);
}

TEST(ValidateColoring, CatchesErrors) {
  const Graph g = two_triangles();
  Coloring chi(2, 6);
  EXPECT_THROW(validate_coloring(g, chi, true), std::invalid_argument);
  EXPECT_NO_THROW(validate_coloring(g, chi, false));
  chi.color.assign(6, 5);  // out of range
  EXPECT_THROW(validate_coloring(g, chi, false), std::invalid_argument);
  Coloring wrong_size(2, 5);
  EXPECT_THROW(validate_coloring(g, wrong_size, false), std::invalid_argument);
}

}  // namespace
}  // namespace mmd
