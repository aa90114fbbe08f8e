#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/multi_split.hpp"
#include "gen/grid.hpp"
#include "graph/subgraph.hpp"
#include "separators/prefix_splitter.hpp"
#include "test_helpers.hpp"
#include "util/norms.hpp"

namespace mmd {
namespace {

using testing::all_vertices;

/// Check the Lemma 8 class bound for measure j (1-indexed as in the
/// paper):  each side's Phi(j)-mass <= 3/4 (Phi(j)(W) + 2^{r-j} max).
void expect_lemma8_bounds(std::span<const Vertex> w_list,
                          const std::vector<std::vector<double>>& measures,
                          const TwoColoring& two) {
  const auto r = measures.size();
  for (std::size_t j = 0; j < r; ++j) {
    const double total = set_measure(measures[j], w_list);
    const double mmax = norm_inf(measures[j]);
    const double factor = (j == 0) ? 0.5 : 0.75;
    const double exp_pow = std::pow(2.0, static_cast<double>(r - 1 - j));
    const double bound = factor * (total + 2.0 * exp_pow * mmax);
    for (int side = 0; side < 2; ++side) {
      EXPECT_LE(set_measure(measures[j], two.side[side]), bound + 1e-9)
          << "measure " << j << " side " << side;
    }
  }
}

class MultiSplitTest : public ::testing::TestWithParam<int /*r*/> {};

TEST_P(MultiSplitTest, BalancesAllMeasures) {
  const int r = GetParam();
  const Graph g = make_grid_cube(2, 12);
  const auto vs = all_vertices(g);

  std::vector<std::vector<double>> measures;
  for (int j = 0; j < r; ++j)
    measures.push_back(testing::weights_for(
        g, testing::weight_models()[static_cast<std::size_t>(j) %
                                    testing::weight_models().size()],
        100 + static_cast<std::uint64_t>(j)));

  std::vector<MeasureRef> refs(measures.begin(), measures.end());
  PrefixSplitter splitter;
  const TwoColoring two = multi_split(g, vs, refs, splitter);

  // Partition property.
  EXPECT_EQ(two.side[0].size() + two.side[1].size(), vs.size());
  Membership seen(g.num_vertices());
  seen.clear();
  for (int s = 0; s < 2; ++s)
    for (Vertex v : two.side[s]) {
      EXPECT_FALSE(seen.contains(v));
      seen.add(v);
    }

  expect_lemma8_bounds(vs, measures, two);
}

INSTANTIATE_TEST_SUITE_P(Rs, MultiSplitTest, ::testing::Values(1, 2, 3, 4));

TEST(MultiSplit, PrimaryMeasureNearHalf) {
  // With r = 1 and unit weights the split is a plain near-half split.
  const Graph g = make_grid_cube(2, 10);
  const auto vs = all_vertices(g);
  const std::vector<double> unit(static_cast<std::size_t>(g.num_vertices()), 1.0);
  const std::vector<MeasureRef> refs{MeasureRef(unit)};
  PrefixSplitter splitter;
  const TwoColoring two = multi_split(g, vs, refs, splitter);
  EXPECT_NEAR(set_measure(unit, two.side[0]), 50.0, 0.5 + 1e-9);
}

TEST(MultiSplit, CutCostBounded) {
  // Lemma 8: cut cost <= (2^r - 1) sigma_p ||c|W||_p; on the unit grid
  // sigma_2 is a small constant, so check against a generous multiple.
  const Graph g = make_grid_cube(2, 16);
  const auto vs = all_vertices(g);
  std::vector<std::vector<double>> measures(3);
  for (int j = 0; j < 3; ++j)
    measures[static_cast<std::size_t>(j)] =
        testing::weights_for(g, WeightModel::Uniform, 55 + static_cast<std::uint64_t>(j));
  std::vector<MeasureRef> refs(measures.begin(), measures.end());
  PrefixSplitter splitter;
  const TwoColoring two = multi_split(g, vs, refs, splitter);
  Membership in_w(g.num_vertices());
  in_w.assign(vs);
  const double norm = induced_cost_stats(g, vs, in_w, 2.0).norm_p;
  const double r_factor = std::pow(2.0, 3) - 1;
  EXPECT_LE(two.cut_cost, 3.0 * r_factor * norm);
  EXPECT_GT(two.cut_cost, 0.0);
}

TEST(MultiSplit, EmptySubset) {
  const Graph g = make_grid_cube(2, 4);
  const std::vector<double> unit(16, 1.0);
  const std::vector<MeasureRef> refs{MeasureRef(unit)};
  PrefixSplitter splitter;
  const TwoColoring two = multi_split(g, {}, refs, splitter);
  EXPECT_TRUE(two.side[0].empty());
  EXPECT_TRUE(two.side[1].empty());
}

TEST(MultiSplit, RequiresMeasures) {
  const Graph g = make_grid_cube(2, 4);
  PrefixSplitter splitter;
  EXPECT_THROW(multi_split(g, {}, {}, splitter), std::invalid_argument);
}

TEST(MultiSplit, RejectsArityMismatch) {
  const Graph g = make_grid_cube(2, 4);
  const std::vector<double> short_measure(3, 1.0);
  const std::vector<MeasureRef> refs{MeasureRef(short_measure)};
  PrefixSplitter splitter;
  const auto vs = all_vertices(g);
  EXPECT_THROW(multi_split(g, vs, refs, splitter), std::invalid_argument);
}

}  // namespace
}  // namespace mmd
