#include <gtest/gtest.h>

#include <algorithm>

#include "core/measures.hpp"
#include "core/shrink.hpp"
#include "core/workspace.hpp"
#include "gen/grid.hpp"
#include "graph/subgraph.hpp"
#include "separators/prefix_splitter.hpp"
#include "test_helpers.hpp"
#include "util/norms.hpp"

namespace mmd {
namespace {

using testing::all_vertices;

struct ShrinkFixture {
  Graph g = make_grid_cube(2, 20);
  std::vector<Vertex> vs = all_vertices(g);
  std::vector<double> w =
      std::vector<double>(static_cast<std::size_t>(g.num_vertices()), 1.0);
  std::vector<double> pi = splitting_cost_measure(g, 2.0, 2.0);
  PrefixSplitter splitter;
  int k = 8;

  Coloring weakly_balanced() {
    // Stripes: weakly balanced but far from almost-strict.
    Coloring chi(k, g.num_vertices());
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const int col = g.coords(v)[1];
      chi[v] = std::min(k - 1, col / 3);  // classes of varied sizes
    }
    return chi;
  }
};

TEST(Shrink, OutputPartitionsW) {
  ShrinkFixture f;
  const auto out =
      shrink_once(f.g, f.vs, f.weakly_balanced(), f.w, f.pi, f.splitter);
  EXPECT_EQ(out.w0.size() + out.w1.size(), f.vs.size());
  Membership seen(f.g.num_vertices());
  seen.clear();
  for (Vertex v : out.w0) {
    EXPECT_FALSE(seen.contains(v));
    seen.add(v);
    EXPECT_GE(out.chi0[v], 0);
    EXPECT_EQ(out.chi1[v], kUncolored);
  }
  for (Vertex v : out.w1) {
    EXPECT_FALSE(seen.contains(v));
    seen.add(v);
    EXPECT_GE(out.chi1[v], 0);
    EXPECT_EQ(out.chi0[v], kUncolored);
  }
}

TEST(Shrink, Chi0ClassWeightsNearEpsPsiStar) {
  ShrinkFixture f;
  ShrinkParams params;
  params.eps = 0.35;
  const auto out = shrink_once(f.g, f.vs, f.weakly_balanced(), f.w, f.pi,
                               f.splitter, params);
  const double psi_star = norm1(f.w) / f.k;
  const auto cw0 = class_measure(f.w, out.chi0);
  for (double x : cw0) {
    // Definition 13 a): wchi0(i) - eps*Psi* in [0, ||w||_inf] (generous
    // +-1 slack for the practical splitter windows).
    EXPECT_GE(x, params.eps * psi_star - 1.0 - 1e-9);
    EXPECT_LE(x, params.eps * psi_star + 2.0 + 1e-9);
  }
}

TEST(Shrink, Chi1StaysWeaklyBalanced) {
  ShrinkFixture f;
  const auto out =
      shrink_once(f.g, f.vs, f.weakly_balanced(), f.w, f.pi, f.splitter);
  const double avg1 = set_measure(f.w, out.w1) / f.k;
  const auto cw1 = class_measure(f.w, out.chi1);
  for (double x : cw1) EXPECT_LE(x, 8.0 * avg1 + 1e-9);
}

TEST(Shrink, W1IsSmallerByDefiniteFraction) {
  ShrinkFixture f;
  ShrinkParams params;
  params.eps = 0.35;
  const auto out = shrink_once(f.g, f.vs, f.weakly_balanced(), f.w, f.pi,
                               f.splitter, params);
  // W0 absorbs about eps of the weight, so |W1| <= (1 - eps/2) |W|.
  EXPECT_LE(static_cast<double>(out.w1.size()),
            (1.0 - params.eps / 2.0) * static_cast<double>(f.vs.size()));
  EXPECT_GT(out.w1.size(), 0u);
}

TEST(Shrink, HandlesHeavyInputClasses) {
  // A very unbalanced start: everything in class 0 -> CutDown must fire.
  ShrinkFixture f;
  Coloring chi(f.k, f.g.num_vertices());
  for (Vertex v = 0; v < f.g.num_vertices(); ++v) chi[v] = 0;
  const auto out = shrink_once(f.g, f.vs, chi, f.w, f.pi, f.splitter);
  const double psi_star = norm1(f.w) / f.k;
  // After shrink, every chi1 class sits well below the raised-M/2 cap.
  const auto cw1 = class_measure(f.w, out.chi1);
  const double big_m = 2.0 * norm1(f.w) / psi_star;  // worst-case raise
  for (double x : cw1) EXPECT_LE(x, big_m / 2.0 * psi_star + 1e-9);
  EXPECT_GT(out.cut_cost, 0.0);
}

TEST(Shrink, WorksOnSubsetsOfV) {
  ShrinkFixture f;
  // W = left 3/4 of the grid.
  std::vector<Vertex> w_list;
  for (Vertex v = 0; v < f.g.num_vertices(); ++v)
    if (f.g.coords(v)[1] < 15) w_list.push_back(v);
  Coloring chi(f.k, f.g.num_vertices());
  for (std::size_t i = 0; i < w_list.size(); ++i)
    chi[w_list[i]] = static_cast<std::int32_t>(i % static_cast<std::size_t>(f.k));
  const auto out = shrink_once(f.g, w_list, chi, f.w, f.pi, f.splitter);
  EXPECT_EQ(out.w0.size() + out.w1.size(), w_list.size());
}

TEST(Shrink, WarmWorkspaceAnswersAsAFreshOne) {
  // The deg_W and boundary buffers persist in the workspace across levels
  // and calls and are written only where the extractions read them, never
  // re-zeroed.  W sets that are not nested (left 3/4, then right 3/4) must
  // answer exactly as a fresh workspace does, and the buffer holds deg_W
  // on W (what lies outside W is never read).
  ShrinkFixture f;
  auto slab = [&](bool left) {
    std::vector<Vertex> w_list;
    for (Vertex v = 0; v < f.g.num_vertices(); ++v)
      if (left ? f.g.coords(v)[1] < 15 : f.g.coords(v)[1] >= 5)
        w_list.push_back(v);
    return w_list;
  };
  auto striped = [&](std::span<const Vertex> w_list) {
    Coloring chi(f.k, f.g.num_vertices());
    for (std::size_t i = 0; i < w_list.size(); ++i)
      chi[w_list[i]] = static_cast<std::int32_t>(i % static_cast<std::size_t>(f.k));
    return chi;
  };
  DecomposeWorkspace warm;
  shrink_once(f.g, f.vs, f.weakly_balanced(), f.w, f.pi, f.splitter, {}, {},
              &warm);
  for (const bool left : {true, false}) {
    const std::vector<Vertex> w_list = slab(left);
    const Coloring chi = striped(w_list);
    const auto got =
        shrink_once(f.g, w_list, chi, f.w, f.pi, f.splitter, {}, {}, &warm);
    DecomposeWorkspace fresh;
    const auto want =
        shrink_once(f.g, w_list, chi, f.w, f.pi, f.splitter, {}, {}, &fresh);
    EXPECT_EQ(got.chi0.color, want.chi0.color);
    EXPECT_EQ(got.chi1.color, want.chi1.color);
    EXPECT_EQ(got.w0, want.w0);
    EXPECT_EQ(got.w1, want.w1);
    EXPECT_EQ(got.cut_cost, want.cut_cost);

    Membership in_w(f.g.num_vertices());
    in_w.assign(w_list);
    for (Vertex v : w_list) {
      double deg = 0.0;
      for (Vertex u : f.g.neighbors(v)) deg += in_w.contains(u) ? 1.0 : 0.0;
      EXPECT_EQ(warm.shrink.deg_w[static_cast<std::size_t>(v)], deg) << v;
    }
  }
}

TEST(Shrink, RejectsBadParameters) {
  ShrinkFixture f;
  ShrinkParams params;
  params.eps = 1.5;
  EXPECT_THROW(shrink_once(f.g, f.vs, f.weakly_balanced(), f.w, f.pi,
                           f.splitter, params),
               std::invalid_argument);
}

TEST(Shrink, RejectsColoringNotCoveringW) {
  ShrinkFixture f;
  Coloring chi(f.k, f.g.num_vertices());  // all uncolored
  EXPECT_THROW(shrink_once(f.g, f.vs, chi, f.w, f.pi, f.splitter),
               std::invalid_argument);
}

}  // namespace
}  // namespace mmd
