#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "core/bisection.hpp"
#include "core/parts.hpp"
#include "gen/geometric.hpp"
#include "gen/grid.hpp"
#include "gen/mesh.hpp"
#include "graph/subgraph.hpp"
#include "separators/prefix_splitter.hpp"
#include "test_helpers.hpp"
#include "util/norms.hpp"

namespace mmd {
namespace {

using testing::all_vertices;

/// Lemma 30's certificate: tau_j = m_j(U) * c / Psi(U) with chunk weight
/// c = target / (max(r,1) + 1), the share of measure j that the argmax
/// chunk of a full IterativePartition holds.
std::vector<double> certified_shares(std::span<const Vertex> u, MeasureRef psi,
                                     double target,
                                     std::span<const MeasureRef> aux) {
  const double r = static_cast<double>(std::max<std::size_t>(aux.size(), 1));
  const double chunk_weight = target / (r + 1.0);
  std::vector<double> tau;
  for (const MeasureRef& m : aux)
    tau.push_back(set_measure(m, u) * chunk_weight / set_measure(psi, u));
  return tau;
}

/// Counts split() calls and answers them with a PrefixSplitter.
class CountingSplitter final : public ISplitter {
 public:
  SplitResult split(const SplitRequest& request) override {
    ++calls;
    return inner_.split(request);
  }
  std::string name() const override { return "counting"; }
  int calls = 0;

 private:
  PrefixSplitter inner_;
};

TEST(IterativePartition, ChunkWeightWindows) {
  const Graph g = make_grid_cube(2, 12);
  const auto vs = all_vertices(g);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  PrefixSplitter splitter;
  const double chunk = 12.0;
  const auto chunks = iterative_partition(g, vs, w, chunk, splitter);

  double total = 0.0;
  Membership seen(g.num_vertices());
  seen.clear();
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const double cw = set_measure(w, chunks[i]);
    total += cw;
    // Lemma 28: every chunk in [chunk, chunk + max] except possibly the
    // tail, which is in (0, 3*chunk].
    if (i + 1 < chunks.size()) {
      EXPECT_GE(cw, chunk - 1e-9);
      EXPECT_LE(cw, chunk + 1.0 + 1e-9);
    } else {
      EXPECT_LE(cw, 3.0 * chunk + 1e-9);
      EXPECT_GT(cw, 0.0);
    }
    for (Vertex v : chunks[i]) {
      EXPECT_FALSE(seen.contains(v)) << "vertex in two chunks";
      seen.add(v);
    }
  }
  EXPECT_DOUBLE_EQ(total, 144.0);  // chunks partition U
}

TEST(IterativePartition, SmallSetSingleChunk) {
  const Graph g = make_grid_cube(2, 3);
  const auto vs = all_vertices(g);
  const std::vector<double> w(9, 1.0);
  PrefixSplitter splitter;
  const auto chunks = iterative_partition(g, vs, w, 5.0, splitter);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].size(), 9u);
}

TEST(IterativePartition, TracksCutCost) {
  const Graph g = make_grid_cube(2, 12);
  const auto vs = all_vertices(g);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  PrefixSplitter splitter;
  double cut = 0.0;
  iterative_partition(g, vs, w, 20.0, splitter, &cut);
  EXPECT_GT(cut, 0.0);
}

TEST(ExtractLightPart, PicksLowShareChunk) {
  const Graph g = make_grid_cube(2, 12);
  const auto vs = all_vertices(g);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  // Auxiliary measure concentrated on the left half.
  std::vector<double> aux(static_cast<std::size_t>(g.num_vertices()), 0.0);
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    if (g.coords(v)[1] < 3) aux[static_cast<std::size_t>(v)] = 1.0;

  PrefixSplitter splitter;
  const std::vector<MeasureRef> refs{MeasureRef(aux)};
  const auto part = extract_light_part(g, vs, w, 18.0, refs, splitter);
  EXPECT_GE(part.psi_weight, 18.0 - 1e-9);
  EXPECT_LE(part.psi_weight, 3 * 18.0 + 1e-9);
  // The chosen chunk should carry (nearly) none of the auxiliary mass:
  // there are plenty of chunks fully outside the left columns.
  EXPECT_LE(set_measure(aux, part.part), 0.25 * norm1(aux));
}

TEST(ExtractHittingPart, HoldsCertifiedShareOfEveryMeasureInWindow) {
  const Graph g = make_grid_cube(2, 12);
  const auto vs = all_vertices(g);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  // Two auxiliary measures concentrated in opposite corners.
  std::vector<double> aux1(static_cast<std::size_t>(g.num_vertices()), 0.0);
  std::vector<double> aux2(static_cast<std::size_t>(g.num_vertices()), 0.0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto c = g.coords(v);
    if (c[0] < 3 && c[1] < 3) aux1[static_cast<std::size_t>(v)] = 1.0;
    if (c[0] >= 9 && c[1] >= 9) aux2[static_cast<std::size_t>(v)] = 1.0;
  }
  PrefixSplitter splitter;
  const std::vector<MeasureRef> refs{MeasureRef(aux1), MeasureRef(aux2)};
  const double target = 40.0;
  const auto part = extract_hitting_part(g, vs, w, target, refs, splitter);
  // Weight window [target - max/2, target + max/2] for unit weights.
  EXPECT_GE(part.psi_weight, target - 0.5 - 1e-9);
  EXPECT_LE(part.psi_weight, target + 0.5 + 1e-9);
  // Lemma 30: the part holds the certified share tau_j of each measure.
  const auto tau = certified_shares(vs, w, target, refs);
  EXPECT_GE(set_measure(aux1, part.part), tau[0]);
  EXPECT_GE(set_measure(aux2, part.part), tau[1]);
}

TEST(ExtractHittingPart, CertifiedShareHoldsAcrossClassesAndMeasures) {
  // Classes of a 3-way recursive bisection of a grid, a triangulated mesh
  // and a 3-D geometric graph; uniform, all-zero and concentrated measures.
  // Concentrated measures come in threes, the arity shrink_once passes
  // (pi, deg_W, boundary): with r = 3 the target is 4c, room for the full
  // partition's remainder (up to 3c) that a measure concentrated there
  // picks.  A lone concentrated measure is a known miss of the full path,
  // shown in CertifiedFirstChunkStopsThePeel.
  struct Case {
    const char* name;
    Graph g;
  };
  std::vector<Case> cases;
  cases.push_back({"grid", make_grid_cube(2, 40)});
  cases.push_back({"tri-mesh", make_tri_mesh(36, 40)});
  const int n3 = 3000;
  cases.push_back(
      {"geo3", make_random_geometric3(
                   n3, std::cbrt(10.0 * 3.0 / (4.0 * 3.14159265358979 * n3)),
                   {}, 29)});
  for (const Case& c : cases) {
    const Graph& g = c.g;
    const auto n = static_cast<std::size_t>(g.num_vertices());
    for (const WeightModel model : {WeightModel::Unit, WeightModel::Uniform}) {
      const std::vector<double> psi = testing::weights_for(g, model, 37, 4.0);
      PrefixSplitter splitter;
      const Coloring chi = recursive_bisection_coloring(g, psi, 3, splitter);
      for (int cls = 0; cls < 3; ++cls) {
        std::vector<Vertex> u;
        for (Vertex v = 0; v < g.num_vertices(); ++v)
          if (chi[v] == cls) u.push_back(v);
        // Concentrated measures: a vertex of U at either end of the first
        // coordinate axis and its neighbors in U.
        Membership in_u(g.num_vertices());
        in_u.assign(u);
        const auto by_x = [&](Vertex a, Vertex b) {
          return g.coords(a)[0] < g.coords(b)[0];
        };
        auto concentrated = [&](bool high) {
          const Vertex pivot =
              high ? *std::max_element(u.begin(), u.end(), by_x)
                   : *std::min_element(u.begin(), u.end(), by_x);
          std::vector<double> m(n, 0.0);
          m[static_cast<std::size_t>(pivot)] = 5.0;
          for (Vertex x : g.neighbors(pivot))
            if (in_u.contains(x)) m[static_cast<std::size_t>(x)] = 1.0;
          return m;
        };
        const std::vector<double> uniform(n, 1.0);
        const std::vector<double> zero(n, 0.0);
        const std::vector<double> hot_hi = concentrated(true);
        const std::vector<double> hot_lo = concentrated(false);
        const std::vector<std::vector<MeasureRef>> aux_sets{
            {uniform},
            {zero},
            {uniform, zero, hot_hi},
            {hot_lo, hot_hi, uniform},
            {zero, hot_lo, zero},
            {hot_hi, uniform, hot_lo},
            {zero, zero, zero}};
        const double total = set_measure(psi, u);
        const double wmax = set_measure_max(psi, u);
        for (const double frac : {0.1, 0.35}) {
          const double target = frac * total;
          for (std::size_t s = 0; s < aux_sets.size(); ++s) {
            const std::string where = std::string(c.name) + " model " +
                                      std::to_string(static_cast<int>(model)) +
                                      " class " + std::to_string(cls) +
                                      " frac " + std::to_string(frac) +
                                      " set " + std::to_string(s);
            const auto& aux = aux_sets[s];
            const auto part =
                extract_hitting_part(g, u, psi, target, aux, splitter);
            Membership seen(g.num_vertices());
            seen.clear();
            for (Vertex v : part.part) {
              ASSERT_TRUE(in_u.contains(v)) << where;
              ASSERT_FALSE(seen.contains(v)) << where;
              seen.add(v);
            }
            const double tol = 1e-9 * (1.0 + total);
            EXPECT_NEAR(part.psi_weight, set_measure(psi, part.part), tol)
                << where;
            EXPECT_GE(part.psi_weight, target - tol) << where;
            EXPECT_LE(part.psi_weight, target + wmax + tol) << where;
            const auto tau = certified_shares(u, psi, target, aux);
            for (std::size_t j = 0; j < aux.size(); ++j)
              EXPECT_GE(set_measure(aux[j], part.part), tau[j] - tol)
                  << where << " measure " << j;
          }
        }
      }
    }
  }
}

TEST(ExtractHittingPart, CertifiedFirstChunkStopsThePeel) {
  const Graph g = make_grid_cube(2, 30);
  const auto vs = all_vertices(g);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const std::vector<double> w(n, 1.0);
  const double target = 120.0;  // one measure: chunk weight target / 2

  // The full partition splits once per chunk but the remainder.
  CountingSplitter full;
  const auto chunks = iterative_partition(g, vs, w, target / 2.0, full);
  ASSERT_GE(chunks.size(), 6u);
  EXPECT_EQ(full.calls, static_cast<int>(chunks.size()) - 1);

  // A measure concentrated in the first chunk is certified by it: one
  // chunk split plus the pad, and the part holds that whole chunk.
  std::vector<double> first(n, 0.0);
  for (Vertex v : chunks.front()) first[static_cast<std::size_t>(v)] = 1.0;
  CountingSplitter early;
  const std::vector<MeasureRef> hot_first{MeasureRef(first)};
  const auto part = extract_hitting_part(g, vs, w, target, hot_first, early);
  EXPECT_EQ(early.calls, 2);
  EXPECT_DOUBLE_EQ(set_measure(first, part.part), norm1(first));
  EXPECT_GE(part.psi_weight, target - 1e-9);
  EXPECT_LE(part.psi_weight, target + 1.0 + 1e-9);

  // A measure concentrated in the remainder is never certified by a peeled
  // chunk: the peel runs the full partition's splits, then pads.
  std::vector<double> last(n, 0.0);
  for (Vertex v : chunks.back()) last[static_cast<std::size_t>(v)] = 1.0;
  CountingSplitter late;
  const std::vector<MeasureRef> hot_last{MeasureRef(last)};
  const auto tail = extract_hitting_part(g, vs, w, target, hot_last, late);
  EXPECT_EQ(late.calls, full.calls + 1);
  EXPECT_GE(tail.psi_weight, target - 1e-9);
  EXPECT_LE(tail.psi_weight, target + 1.0 + 1e-9);
  // Known miss of the full path: the remainder weighs 3c = 180, more than
  // the target 2c = 120, so the weight guard skips it and the part misses
  // the certified share of a measure concentrated there.
  const double remainder_weight = set_measure(w, chunks.back());
  EXPECT_GT(remainder_weight, target);
  const auto tau = certified_shares(vs, w, target, hot_last);
  EXPECT_LT(set_measure(last, tail.part), tau[0]);
}

TEST(ExtractHittingPart, TakesEverythingWhenTargetExceedsTotal) {
  const Graph g = make_grid_cube(2, 4);
  const auto vs = all_vertices(g);
  const std::vector<double> w(16, 1.0);
  PrefixSplitter splitter;
  const auto part = extract_hitting_part(g, vs, w, 100.0, {}, splitter);
  EXPECT_EQ(part.part.size(), 16u);
}

TEST(ExtractLightPart, EmptyInput) {
  const Graph g = make_grid_cube(2, 4);
  const std::vector<double> w(16, 1.0);
  PrefixSplitter splitter;
  const auto part = extract_light_part(g, {}, w, 5.0, {}, splitter);
  EXPECT_TRUE(part.part.empty());
}

TEST(AuxContract, NaNOutsideUAnswersAsZeros) {
  // Both extractions read aux measures only at vertices of U (parts.hpp),
  // so poisoning every entry outside U with NaN must leave the part, its
  // weight and the splitter cost exactly as with zeros there.  U is a class
  // of a random total or partial coloring; the measures are shrink_once's
  // deg_W-like and boundary ones, plus one concentrated at a vertex of U
  // with the median first coordinate, which the peel, working in from U's
  // edge, certifies only after many chunks: a NaN read there would change
  // where the peel stops.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& named : testing::costed_graphs()) {
    const std::string& name = named.first;
    const Graph& g = named.second;
    const auto n = static_cast<std::size_t>(g.num_vertices());
    const std::vector<double> psi =
        testing::weights_for(g, WeightModel::Uniform, 37, 4.0);
    for (const bool partial : {false, true}) {
      const Coloring chi = testing::random_colors(g, 3, partial, 5);
      std::vector<Vertex> u;
      for (Vertex v = 0; v < g.num_vertices(); ++v)
        if (chi[v] == 0) u.push_back(v);
      std::vector<Vertex> by_x = u;
      const auto mid = by_x.begin() + static_cast<std::ptrdiff_t>(u.size() / 2);
      std::nth_element(
          by_x.begin(), mid, by_x.end(),
          [&](Vertex a, Vertex b) { return g.coords(a)[0] < g.coords(b)[0]; });
      const Vertex hot = *mid;
      auto measures = [&](double outside) {
        std::vector<std::vector<double>> m(3, std::vector<double>(n, outside));
        for (Vertex v : u) {
          const auto i = static_cast<std::size_t>(v);
          m[0][i] = static_cast<double>(g.degree(v));
          m[1][i] = boundary_cost_of(g, chi, v);
          m[2][i] = v == hot ? 1.0 : 0.0;
        }
        return m;
      };
      const auto m0 = measures(0.0);
      const auto m_nan = measures(nan);
      const std::vector<MeasureRef> zeros{m0[0], m0[1], m0[2]};
      const std::vector<MeasureRef> nans{m_nan[0], m_nan[1], m_nan[2]};
      for (const double frac : {0.1, 0.35}) {
        const double target = frac * set_measure(psi, u);
        const std::string where = name + " partial " +
                                  std::to_string(partial) + " frac " +
                                  std::to_string(frac);
        auto expect_same = [&](const ExtractedPart& a, const ExtractedPart& b,
                               const char* which) {
          EXPECT_EQ(a.part, b.part) << which << ' ' << where;
          EXPECT_EQ(a.psi_weight, b.psi_weight) << which << ' ' << where;
          EXPECT_EQ(a.cut_cost, b.cut_cost) << which << ' ' << where;
        };
        PrefixSplitter s0, s1;
        expect_same(extract_light_part(g, u, psi, target, zeros, s0),
                    extract_light_part(g, u, psi, target, nans, s1), "light");
        expect_same(extract_hitting_part(g, u, psi, target, zeros, s0),
                    extract_hitting_part(g, u, psi, target, nans, s1),
                    "hitting");
      }
    }
  }
}

}  // namespace
}  // namespace mmd
