// Refinement-equivalence suite: minmax_refine's worklist engine must give
// exactly the coloring of the seed's full-sweep engine (kept here as the
// oracle), must preserve strict balance, and must run allocation-free in
// steady state when handed a warm RefineWorkspace.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "baselines/random_part.hpp"
#include "core/decompose.hpp"
#include "core/refine.hpp"
#include "gen/basic.hpp"
#include "gen/geometric.hpp"
#include "gen/grid.hpp"
#include "test_helpers.hpp"
#include "util/norms.hpp"

// ---- counting allocator ---------------------------------------------------
// Replacing the global allocator in this test binary lets the steady-state
// test assert "zero heap allocations" directly.

namespace {
std::atomic<long> g_alloc_count{0};
}

// The replacements stay out of line: inlined, they would show the compiler
// malloc's pointer reaching operator delete, or operator new's reaching
// free() (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mmd {
namespace {

struct Instance {
  std::string name;
  Graph graph;
};

std::vector<Instance> instances() {
  std::vector<Instance> out;
  out.push_back({"grid2d", make_grid_cube(2, 18)});
  out.push_back({"grid3d", make_grid_cube(3, 7)});
  out.push_back({"geometric", make_random_geometric(400, 0.09)});
  out.push_back({"torus", make_torus(16, 24)});
  out.push_back({"tree", make_complete_binary_tree(8)});
  return out;
}

/// The oracle: the seed's sweep engine.  Full passes of try_move over
/// every vertex in id order until a pass accepts no move, with the
/// library's acceptance arithmetic — strict balance feasibility, then a
/// lexicographic improvement of (max, total) class boundary, the first
/// accepted class taken — and its threshold-counter tracking of the
/// running maximum.
MinmaxRefineStats sweep_refine(const Graph& g, Coloring& chi,
                               std::span<const double> w,
                               const MinmaxRefineOptions& opt = {}) {
  constexpr double kTol = 1e-12;
  const int k = chi.k;
  const Vertex n = g.num_vertices();
  std::vector<double> bc(k), cw(k), toward(k);
  std::vector<long> seen(k, -1);  // the try_move call that registered c
  long call = 0;
  std::vector<std::int32_t> touched;
  double cur_max = 0.0, total = 0.0;
  int at_max = 0;  // classes within kTol of cur_max
  const auto boundary_costs = [&] {
    std::fill(bc.begin(), bc.end(), 0.0);
    for (Vertex v = 0; v < n; ++v) {
      double cross = 0.0;
      for (const HalfEdge& h : g.incidence(v))
        if (chi[h.to] != chi[v]) cross += h.cost;
      bc[chi[v]] += cross;
    }
  };
  const auto recompute_max = [&] {
    cur_max = 0.0;
    for (const double b : bc) cur_max = std::max(cur_max, b);
    at_max = 0;
    for (const double b : bc) at_max += b >= cur_max - kTol ? 1 : 0;
  };
  boundary_costs();
  for (Vertex v = 0; v < n; ++v) cw[chi[v]] += w[v];
  recompute_max();
  for (const double b : bc) total += b;
  const double avg = norm1(w) / k;
  const double slack = opt.balance_slack * (1.0 - 1.0 / k) * norm_inf(w) +
                       1e-12 * std::max(1.0, avg);

  MinmaxRefineStats stats;
  stats.max_boundary_before = cur_max;
  const auto try_move = [&](Vertex v) {
    const std::int32_t from = chi[v];
    ++call;
    touched.clear();
    double toward_all = 0.0;
    bool boundary = false;
    for (const HalfEdge& h : g.incidence(v)) {
      const std::int32_t c = chi[h.to];
      if (seen[c] != call) {
        seen[c] = call;
        toward[c] = 0.0;
        touched.push_back(c);
      }
      toward[c] += h.cost;
      toward_all += h.cost;
      boundary = boundary || c != from;
    }
    if (!boundary || std::abs(cw[from] - w[v] - avg) > slack) return false;
    const double s_from = seen[from] == call ? toward[from] : 0.0;
    const double new_from = bc[from] + s_from - (toward_all - s_from);
    for (const std::int32_t to : touched) {
      if (to == from || std::abs(cw[to] + w[v] - avg) > slack) continue;
      const double new_to = bc[to] + (toward_all - toward[to]) - toward[to];
      const double new_total =
          total + (new_from - bc[from]) + (new_to - bc[to]);
      const double pair_max = std::max(new_from, new_to);
      if (pair_max > cur_max + kTol) continue;
      const bool improves_max =
          (bc[from] >= cur_max - kTol || bc[to] >= cur_max - kTol) &&
          pair_max < cur_max - kTol;
      if (!improves_max && !(new_total < total - kTol)) continue;
      chi[v] = to;
      cw[from] -= w[v];
      cw[to] += w[v];
      for (const std::int32_t c : {from, to})
        at_max -= bc[c] >= cur_max - kTol ? 1 : 0;
      bc[from] = new_from;
      bc[to] = new_to;
      for (const std::int32_t c : {from, to})
        at_max += bc[c] >= cur_max - kTol ? 1 : 0;
      if (at_max <= 0) recompute_max();
      total = new_total;
      ++stats.moves;
      return true;
    }
    return false;
  };
  for (int pass = 0; k > 1 && pass < opt.max_passes; ++pass) {
    ++stats.rounds;
    bool improved = false;
    for (Vertex v = 0; v < n; ++v) improved = try_move(v) || improved;
    if (!improved) break;
  }
  boundary_costs();
  recompute_max();
  stats.max_boundary_after = cur_max;
  return stats;
}

/// A strictly balanced but unrefined coloring, as decompose() hands to the
/// refinement phase.
Coloring unrefined_coloring(const Graph& g, std::span<const double> w, int k) {
  DecomposeOptions opt;
  opt.k = k;
  opt.use_refinement = false;
  return decompose(g, w, opt).coloring;
}

TEST(RefineWorklist, NeverWorseThanSweepFromPipelineColorings) {
  for (const Instance& inst : instances()) {
    const Graph& g = inst.graph;
    for (const int k : {4, 8}) {
      for (const std::uint64_t seed : {3ull, 11ull, 29ull}) {
        const auto w = testing::weights_for(g, WeightModel::Uniform, seed);
        const Coloring base = unrefined_coloring(g, w, k);

        Coloring sweep_chi = base;
        const auto sweep = sweep_refine(g, sweep_chi, w);

        Coloring work_chi = base;
        const auto work = minmax_refine(g, work_chi, w);

        EXPECT_LE(work.max_boundary_after, sweep.max_boundary_after + 1e-9)
            << inst.name << " k=" << k << " seed=" << seed;
        // The worklist is documented as bit-identical to the sweep, not
        // merely equal-quality; hold it to that.
        EXPECT_EQ(work_chi.color, sweep_chi.color)
            << inst.name << " k=" << k << " seed=" << seed;
        EXPECT_LE(work.max_boundary_after, work.max_boundary_before + 1e-9);
        testing::expect_total_coloring(g, work_chi);
      }
    }
  }
}

TEST(RefineWorklist, NeverWorseThanSweepFromRandomColorings) {
  for (const Instance& inst : instances()) {
    const Graph& g = inst.graph;
    const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
    for (const std::uint64_t seed : {5ull, 17ull}) {
      const Coloring base = random_coloring(g, 6, seed);
      MinmaxRefineOptions opt;
      opt.max_passes = 20;
      opt.balance_slack = 50.0;  // random start is unbalanced; allow room

      Coloring sweep_chi = base;
      const auto sweep = sweep_refine(g, sweep_chi, w, opt);

      Coloring work_chi = base;
      const auto work = minmax_refine(g, work_chi, w, opt);

      EXPECT_LE(work.max_boundary_after, sweep.max_boundary_after + 1e-9)
          << inst.name << " seed=" << seed;
      EXPECT_EQ(work_chi.color, sweep_chi.color) << inst.name << " seed=" << seed;
    }
  }
}

TEST(RefineWorklist, PreservesStrictBalance) {
  for (const Instance& inst : instances()) {
    const Graph& g = inst.graph;
    for (const auto model : testing::weight_models()) {
      const auto w = testing::weights_for(g, model, 13);
      const Coloring base = unrefined_coloring(g, w, 6);
      if (!balance_report(w, base).strictly_balanced) continue;
      Coloring chi = base;
      minmax_refine(g, chi, w);
      EXPECT_TRUE(balance_report(w, chi).strictly_balanced)
          << inst.name << " " << weight_model_name(model);
    }
  }
}

TEST(RefineWorklist, HandlesZeroCostEdges) {
  // A class reachable only through cost-0 edges used to be registered once
  // per such edge (the toward[c] == 0.0 sentinel never tripped); the epoch
  // stamp registers it exactly once.  Behaviorally: the engine stays
  // valid, never increases the max boundary on graphs full of zero-cost
  // edges, and still matches the sweep.
  GraphBuilder b(12);
  for (int i = 0; i < 12; ++i)
    b.add_edge(i, (i + 1) % 12, i % 3 == 0 ? 0.0 : 1.0);
  for (int i = 0; i < 6; ++i) b.add_edge(i, i + 6, 0.0);
  const Graph g = b.build();
  const std::vector<double> w(12, 1.0);
  MinmaxRefineOptions opt;
  opt.balance_slack = 10.0;
  Coloring chi = random_coloring(g, 3, 7);
  const auto stats = minmax_refine(g, chi, w, opt);
  EXPECT_LE(stats.max_boundary_after, stats.max_boundary_before + 1e-12);
  testing::expect_total_coloring(g, chi);
  Coloring sweep_chi = random_coloring(g, 3, 7);
  sweep_refine(g, sweep_chi, w, opt);
  EXPECT_EQ(chi.color, sweep_chi.color);
}

TEST(RefineWorklist, WorkspaceReuseIsStateClean) {
  // The same workspace instance, reused across calls on different
  // instances and ks, must give bit-identical results to fresh workspaces.
  RefineWorkspace shared;
  for (const Instance& inst : instances()) {
    const Graph& g = inst.graph;
    for (const int k : {3, 8}) {
      const auto w = testing::weights_for(g, WeightModel::Uniform, 19);
      const Coloring base = unrefined_coloring(g, w, k);

      Coloring chi_shared = base;
      const auto s1 = minmax_refine(g, chi_shared, w, {}, &shared);

      Coloring chi_fresh = base;
      RefineWorkspace fresh;
      const auto s2 = minmax_refine(g, chi_fresh, w, {}, &fresh);

      EXPECT_EQ(chi_shared.color, chi_fresh.color) << inst.name << " k=" << k;
      EXPECT_EQ(s1.moves, s2.moves);
      EXPECT_DOUBLE_EQ(s1.max_boundary_after, s2.max_boundary_after);
    }
  }
}

TEST(RefineWorklist, SteadyStateMakesNoHeapAllocations) {
  const Graph g = make_grid_cube(2, 24);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  const Coloring base = random_coloring(g, 8, 3);
  MinmaxRefineOptions opt;
  opt.balance_slack = 50.0;
  opt.max_passes = 12;

  RefineWorkspace ws;
  Coloring warmup = base;
  minmax_refine(g, warmup, w, opt, &ws);  // sizes every buffer

  Coloring chi = base;  // identical trajectory to the warmup call
  const long before = g_alloc_count.load(std::memory_order_relaxed);
  const auto stats = minmax_refine(g, chi, w, opt, &ws);
  const long after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "minmax_refine allocated in steady state";
  EXPECT_GT(stats.moves, 0) << "steady-state call did real work";
  EXPECT_EQ(chi.color, warmup.color);
}

TEST(RefineWorklist, WorklistDoesLessWorkThanSweepBudget) {
  // The whole point: pops is far below the sweep's max_passes * n
  // evaluation count on an almost-converged coloring.
  const Graph g = make_grid_cube(2, 32);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  const Coloring base = unrefined_coloring(g, w, 8);
  Coloring chi = base;
  const auto stats = minmax_refine(g, chi, w);
  EXPECT_LT(stats.pops,
            static_cast<std::int64_t>(g.num_vertices()) * 2)
      << "worklist should touch only boundary neighborhoods";
}

}  // namespace
}  // namespace mmd
