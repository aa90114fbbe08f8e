#include <gtest/gtest.h>

#include "baselines/random_part.hpp"
#include "core/decompose.hpp"
#include "core/refine.hpp"
#include "gen/grid.hpp"
#include "separators/composite.hpp"
#include "separators/grid_split.hpp"
#include "separators/prefix_splitter.hpp"
#include "test_helpers.hpp"
#include "util/norms.hpp"

namespace mmd {
namespace {

using testing::expect_total_coloring;

TEST(MinmaxRefine, NeverIncreasesMaxBoundary) {
  const Graph g = make_grid_cube(2, 16);
  for (WeightModel model : testing::weight_models()) {
    const auto w = testing::weights_for(g, model, 7);
    DecomposeOptions opt;
    opt.k = 8;
    opt.use_refinement = false;
    DecomposeResult res = decompose(g, w, opt);
    Coloring chi = res.coloring;
    const auto stats = minmax_refine(g, chi, w);
    EXPECT_LE(stats.max_boundary_after, stats.max_boundary_before + 1e-9)
        << weight_model_name(model);
    expect_total_coloring(g, chi);
  }
}

TEST(MinmaxRefine, PreservesStrictBalance) {
  const Graph g = make_grid_cube(2, 16);
  for (WeightModel model : testing::weight_models()) {
    const auto w = testing::weights_for(g, model, 11);
    DecomposeOptions opt;
    opt.k = 6;
    opt.use_refinement = false;
    DecomposeResult res = decompose(g, w, opt);
    ASSERT_TRUE(balance_report(w, res.coloring).strictly_balanced);
    Coloring chi = res.coloring;
    minmax_refine(g, chi, w);
    EXPECT_TRUE(balance_report(w, chi).strictly_balanced)
        << weight_model_name(model);
  }
}

TEST(MinmaxRefine, ImprovesARandomColoringSubstantially) {
  const Graph g = make_grid_cube(2, 20);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  Coloring chi = random_coloring(g, 4, 3);
  // Random colorings of a grid are near-worst-case: local moves that
  // preserve (loose) balance find large gains.
  MinmaxRefineOptions opt;
  opt.max_passes = 20;
  opt.balance_slack = 60.0;  // random start is not balanced; allow room
  const auto stats = minmax_refine(g, chi, w, opt);
  EXPECT_LT(stats.max_boundary_after, 0.7 * stats.max_boundary_before);
  EXPECT_GT(stats.moves, 50);
}

TEST(MinmaxRefine, SeedArgumentLimitsRoundZero) {
  // An empty seed means "nothing changed": no round runs and the coloring
  // stays as it is.  A seed covering every vertex visits the whole cut in
  // id order, which is the unseeded call's round 0.
  const Graph g = make_grid_cube(2, 20);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  MinmaxRefineOptions opt;
  opt.balance_slack = 60.0;  // random start is not balanced; allow room
  const Coloring start = random_coloring(g, 4, 3);

  Coloring untouched = start;
  const auto none = minmax_refine(g, untouched, w, opt, nullptr,
                                  std::span<const Vertex>());
  EXPECT_EQ(none.moves, 0);
  EXPECT_EQ(none.rounds, 0);
  EXPECT_EQ(untouched.color, start.color);

  Coloring full = start;
  const auto unseeded = minmax_refine(g, full, w, opt);
  Coloring seeded = start;
  const std::vector<Vertex> all = testing::all_vertices(g);
  const auto everywhere = minmax_refine(g, seeded, w, opt, nullptr,
                                        std::span<const Vertex>(all));
  EXPECT_GT(unseeded.moves, 0);
  EXPECT_EQ(everywhere.moves, unseeded.moves);
  EXPECT_EQ(seeded.color, full.color);
}

TEST(MinmaxRefine, NoopOnPerfectColoring) {
  // Axis-aligned quarters of a unit grid are locally optimal.
  const Graph g = make_grid_cube(2, 16);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  Coloring chi(4, g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto c = g.coords(v);
    chi[v] = (c[0] < 8 ? 0 : 2) + (c[1] < 8 ? 0 : 1);
  }
  Coloring before = chi;
  const auto stats = minmax_refine(g, chi, w);
  EXPECT_DOUBLE_EQ(stats.max_boundary_after, stats.max_boundary_before);
  EXPECT_EQ(chi.color, before.color);
}

TEST(MinmaxRefine, KOneIsNoop) {
  const Graph g = make_grid_cube(2, 8);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  Coloring chi(1, g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) chi[v] = 0;
  const auto stats = minmax_refine(g, chi, w);
  EXPECT_EQ(stats.moves, 0);
}

TEST(DecomposeRefinement, AblationShowsImprovement) {
  const Graph g = make_grid_cube(2, 24);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 13);
  DecomposeOptions with;
  with.k = 8;
  DecomposeOptions without = with;
  without.use_refinement = false;
  const auto a = decompose(g, w, with);
  const auto b = decompose(g, w, without);
  EXPECT_LE(a.max_boundary, b.max_boundary + 1e-9);
  EXPECT_TRUE(a.balance.strictly_balanced);
}

// ---- composite splitter --------------------------------------------------

TEST(CompositeSplitter, PicksTheCheaperChild) {
  const Graph g = make_grid_cube(2, 16);
  const auto vs = testing::all_vertices(g);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  SplitRequest req;
  req.g = &g;
  req.w_list = vs;
  req.weights = w;
  req.target = 128.0;

  GridSplitter grid;
  PrefixSplitter prefix;
  const double grid_cost = grid.split(req).boundary_cost;
  const double prefix_cost = prefix.split(req).boundary_cost;

  std::vector<std::unique_ptr<ISplitter>> children;
  children.push_back(std::make_unique<GridSplitter>());
  children.push_back(std::make_unique<PrefixSplitter>());
  CompositeSplitter composite(std::move(children));
  const SplitResult best = composite.split(req);
  EXPECT_DOUBLE_EQ(best.boundary_cost, std::min(grid_cost, prefix_cost));
  testing::expect_split_window(g, vs, w, req.target, best);
}

TEST(CompositeSplitter, RequiresChildren) {
  EXPECT_THROW(CompositeSplitter(std::vector<std::unique_ptr<ISplitter>>{}),
               std::invalid_argument);
}

// ---- failure injection: a splitter that violates the hard window --------

class MaliciousSplitter final : public ISplitter {
 public:
  SplitResult split(const SplitRequest& request) override {
    // Always returns the empty set: violates the window whenever the
    // target is more than wmax/2 away from zero.
    (void)request;
    return {};
  }
  std::string name() const override { return "malicious"; }
};

TEST(FailureInjection, ContractCheckerCatchesMaliciousSplitter) {
  const Graph g = make_grid_cube(2, 8);
  const auto vs = testing::all_vertices(g);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  MaliciousSplitter bad;
  SplitRequest req;
  req.g = &g;
  req.w_list = vs;
  req.weights = w;
  req.target = 32.0;
  const SplitResult res = bad.split(req);
  EXPECT_THROW(check_split_contract(req, res), InvariantViolation);
}

TEST(FailureInjection, PipelineSurvivesOrRejectsMaliciousSplitter) {
  // The pipeline must never return a non-strict coloring: with a broken
  // splitter it either still recovers (greedy fallbacks) or throws — it
  // must not silently return garbage.
  const Graph g = make_grid_cube(2, 8);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 17);
  MaliciousSplitter bad;
  DecomposeOptions opt;
  opt.k = 4;
  try {
    const DecomposeResult res = decompose(g, w, opt, bad);
    EXPECT_TRUE(res.balance.strictly_balanced);
  } catch (const std::exception&) {
    SUCCEED();  // detected and rejected
  }
}

}  // namespace
}  // namespace mmd
