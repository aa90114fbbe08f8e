// SweepEval regression pins: the incremental prefix-cost engine must make
// the exact decisions of the seed's two-pass recompute path in default
// (BetterOfTwo) mode — same prefix, bit-identical cost — and its WindowMin
// mode must never produce a costlier split than the default rule while
// staying inside the hard weight window of Definition 3.
#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "core/decompose.hpp"
#include "gen/basic.hpp"
#include "gen/geometric.hpp"
#include "gen/grid.hpp"
#include "graph/subgraph.hpp"
#include "separators/orderings.hpp"
#include "separators/prefix_splitter.hpp"
#include "separators/sweep_eval.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

namespace mmd {
namespace {

using testing::all_vertices;

struct Instance {
  std::string name;
  Graph graph;
};

std::vector<Instance> instances() {
  std::vector<Instance> out;
  out.push_back({"grid2d", make_grid_cube(2, 12)});
  out.push_back({"geometric", make_random_geometric(300, 0.1)});
  out.push_back({"torus", make_torus(12, 15)});
  out.push_back({"tree", make_complete_binary_tree(8)});
  return out;
}

/// The seed's two-pass evaluation of one candidate order: better-of-two
/// prefix, then a from-scratch boundary recompute.
struct Recompute {
  std::size_t len;
  double weight;
  double cost;
};

Recompute recompute_path(const Graph& g, std::span<const Vertex> order,
                         std::span<const double> w, double target,
                         const Membership& in_w) {
  Recompute out;
  out.len = best_prefix(order, w, target);
  const std::span<const Vertex> prefix(order.data(), out.len);
  Membership in_u(g.num_vertices());
  in_u.assign(prefix);
  out.weight = set_measure(w, prefix);
  out.cost = boundary_cost_within(g, prefix, in_u, in_w);
  return out;
}

TEST(SweepEval, BetterOfTwoMatchesRecomputePathBitwise) {
  for (const Instance& inst : instances()) {
    const Graph& g = inst.graph;
    const auto vs = all_vertices(g);
    Membership in_w(g.num_vertices());
    in_w.assign(vs);
    for (const WeightModel model : testing::weight_models()) {
      const auto w = testing::weights_for(g, model, 5);
      const SubsetWeightStats stats = subset_weight_stats(w, vs);
      // Candidate orders: pseudo-peripheral BFS, id order, reversed id.
      std::vector<std::vector<Vertex>> orders;
      orders.push_back(pseudo_peripheral_bfs_order(g, vs, in_w));
      orders.emplace_back(vs.begin(), vs.end());
      orders.emplace_back(vs.rbegin(), vs.rend());
      for (const double frac : {0.0, 0.2, 0.5, 0.8, 1.0}) {
        const double target = frac * stats.total;
        for (const auto& order : orders) {
          const Recompute ref = recompute_path(g, order, w, target, in_w);
          SweepEval sweep;
          Membership in_u(g.num_vertices());
          const SweepEvalResult r =
              sweep.eval(g, order, w, target, stats, in_w, in_u,
                         SweepMode::BetterOfTwo);
          ASSERT_FALSE(r.pruned);
          EXPECT_EQ(r.prefix_len, ref.len) << inst.name;
          EXPECT_EQ(r.weight, ref.weight) << inst.name;  // bit-identical
          EXPECT_EQ(r.cost, ref.cost) << inst.name;      // bit-identical
        }
      }
    }
  }
}

TEST(SweepEval, PruneBoundDiscardsDominatedCandidatesOnly) {
  const Graph g = make_grid_cube(2, 10);
  const auto vs = all_vertices(g);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 3);
  Membership in_w(g.num_vertices()), in_u(g.num_vertices());
  in_w.assign(vs);
  const SubsetWeightStats stats = subset_weight_stats(w, vs);
  const double target = stats.total / 2.0;

  SweepEval sweep;
  const SweepEvalResult full =
      sweep.eval(g, vs, w, target, stats, in_w, in_u, SweepMode::BetterOfTwo);
  ASSERT_FALSE(full.pruned);
  ASSERT_GT(full.cost, 0.0);

  // A bound above the true cost never prunes and never perturbs the cost.
  const SweepEvalResult above =
      sweep.eval(g, vs, w, target, stats, in_w, in_u, SweepMode::BetterOfTwo,
                 full.cost + 1.0);
  EXPECT_FALSE(above.pruned);
  EXPECT_EQ(above.cost, full.cost);
  // A bound at or below the true cost prunes (strictly-cheaper reductions
  // would have rejected the candidate anyway).
  EXPECT_TRUE(sweep.eval(g, vs, w, target, stats, in_w, in_u,
                         SweepMode::BetterOfTwo, full.cost).pruned);
  EXPECT_TRUE(sweep.eval(g, vs, w, target, stats, in_w, in_u,
                         SweepMode::BetterOfTwo, full.cost / 2.0).pruned);
}

TEST(SweepEval, DefaultSplitBitIdenticalAcrossThreadCounts) {
  // The full default-mode PrefixSplitter — incremental engine, hoisted
  // weight stats, serial pruning, parallel slots — must select the same
  // prefix and cost for num_threads in {1, 2, 8}.
  for (const Instance& inst : instances()) {
    const Graph& g = inst.graph;
    const auto vs = all_vertices(g);
    for (const WeightModel model : testing::weight_models()) {
      const auto w = testing::weights_for(g, model, 7);
      SplitRequest req;
      req.g = &g;
      req.w_list = vs;
      req.weights = w;
      req.target = set_measure(std::span<const double>(w), vs) * 0.4;

      PrefixSplitter serial;
      const SplitResult ref = serial.split(req);
      for (const int threads : {2, 8}) {
        ThreadPool pool(threads);
        PrefixSplitter par;
        par.set_thread_pool(&pool);
        const SplitResult res = par.split(req);
        EXPECT_EQ(res.inside, ref.inside) << inst.name << " t=" << threads;
        EXPECT_EQ(res.weight, ref.weight) << inst.name << " t=" << threads;
        EXPECT_EQ(res.boundary_cost, ref.boundary_cost)
            << inst.name << " t=" << threads;
      }
    }
  }
}

TEST(SweepEval, DefaultSplitMatchesManualRecomputeLoop) {
  // End-to-end pin of the default mode against a hand-rolled PR3-style
  // loop: enumerate the same candidate family (BFS + cached sweeps +
  // Morton), evaluate each with best_prefix + boundary_cost_within, keep
  // the first strict minimum.
  for (const Instance& inst : instances()) {
    const Graph& g = inst.graph;
    const auto vs = all_vertices(g);
    const auto w = testing::weights_for(g, WeightModel::Uniform, 11);
    Membership in_w(g.num_vertices());
    in_w.assign(vs);
    const double target =
        set_measure(std::span<const double>(w), vs) * 0.5;

    std::vector<std::vector<Vertex>> orders;
    orders.push_back(pseudo_peripheral_bfs_order(g, vs, in_w));
    OrderingCache cache;
    OrderingScratch scratch;
    if (g.has_coords()) {
      cache.bind(g);
      for (int idx = 0; idx < cache.num_orders(); ++idx) {
        std::vector<Vertex> order;
        cache.subset_order(idx, vs, &in_w, order, scratch);
        orders.push_back(std::move(order));
      }
      if (g.dim() >= 2) {
        std::vector<Vertex> order;
        cache.subset_morton_order(vs, order, scratch);
        orders.push_back(std::move(order));
      }
    }
    Recompute best{0, 0.0, std::numeric_limits<double>::infinity()};
    std::size_t best_order = 0;
    for (std::size_t i = 0; i < orders.size(); ++i) {
      const Recompute r = recompute_path(g, orders[i], w, target, in_w);
      if (r.cost < best.cost) {
        best = r;
        best_order = i;
      }
    }

    PrefixSplitterOptions opts;
    opts.refine = false;  // isolate candidate evaluation from FM
    PrefixSplitter splitter(opts);
    SplitRequest req;
    req.g = &g;
    req.w_list = vs;
    req.weights = w;
    req.target = target;
    const SplitResult res = splitter.split(req);
    EXPECT_EQ(res.boundary_cost, best.cost) << inst.name;
    EXPECT_EQ(res.weight, best.weight) << inst.name;
    EXPECT_EQ(res.inside,
              std::vector<Vertex>(orders[best_order].begin(),
                                  orders[best_order].begin() +
                                      static_cast<std::ptrdiff_t>(best.len)))
        << inst.name;
  }
}

TEST(SweepEval, WindowScanNeverCostlierPerSplit) {
  for (const Instance& inst : instances()) {
    const Graph& g = inst.graph;
    const auto vs = all_vertices(g);
    for (const WeightModel model : testing::weight_models()) {
      const auto w = testing::weights_for(g, model, 13);
      for (const double frac : {0.1, 0.33, 0.5, 0.75}) {
        SplitRequest req;
        req.g = &g;
        req.w_list = vs;
        req.weights = w;
        req.target = set_measure(std::span<const double>(w), vs) * frac;

        PrefixSplitterOptions base;
        base.refine = false;  // isolate the prefix choice
        PrefixSplitter def(base);
        PrefixSplitter win(base);
        win.set_sweep_mode(SweepMode::WindowMin);

        const SplitResult a = def.split(req);
        const SplitResult b = win.split(req);
        EXPECT_LE(b.boundary_cost, a.boundary_cost) << inst.name;
        EXPECT_NO_THROW(check_split_contract(req, b)) << inst.name;
      }
    }
  }
}

TEST(SweepEval, WindowScanParallelMatchesSerial) {
  for (const Instance& inst : instances()) {
    const Graph& g = inst.graph;
    const auto vs = all_vertices(g);
    const auto w = testing::weights_for(g, WeightModel::Zipf, 3);
    SplitRequest req;
    req.g = &g;
    req.w_list = vs;
    req.weights = w;
    req.target = set_measure(std::span<const double>(w), vs) * 0.5;

    PrefixSplitter serial;
    serial.set_sweep_mode(SweepMode::WindowMin);
    const SplitResult ref = serial.split(req);
    for (const int threads : {2, 8}) {
      ThreadPool pool(threads);
      PrefixSplitter par;
      par.set_sweep_mode(SweepMode::WindowMin);
      par.set_thread_pool(&pool);
      const SplitResult res = par.split(req);
      EXPECT_EQ(res.inside, ref.inside) << inst.name << " t=" << threads;
      EXPECT_EQ(res.boundary_cost, ref.boundary_cost) << inst.name;
    }
  }
}

/// Weighted path where the cheapest in-window cut is *not* the crossing
/// prefix: vertex 0 carries weight 2 (window = 1), the crossing edge
/// (2,3) costs 10, the edge one step later costs 1.
Graph cheap_late_cut_path() {
  GraphBuilder b(10);
  for (Vertex v = 0; v + 1 < 10; ++v)
    b.add_edge(v, v + 1, v == 2 ? 10.0 : 1.0);
  return b.build();
}

TEST(SweepEval, WindowScanPicksCheapestCutInsideWindow) {
  const Graph g = cheap_late_cut_path();
  std::vector<double> w(10, 1.0);
  w[0] = 2.0;  // wmax = 2 -> hard window = 1
  std::vector<Vertex> order(10);
  for (Vertex v = 0; v < 10; ++v) order[static_cast<std::size_t>(v)] = v;
  Membership in_w(10), in_u(10);
  in_w.assign(order);
  const SubsetWeightStats stats = subset_weight_stats(w, order);
  EXPECT_DOUBLE_EQ(stats.total, 11.0);
  EXPECT_DOUBLE_EQ(stats.max, 2.0);
  const double target = 4.5;  // crossing at prefix weight 4 (len 3)

  SweepEval sweep;
  const SweepEvalResult def = sweep.eval(g, order, w, target, stats, in_w,
                                         in_u, SweepMode::BetterOfTwo);
  EXPECT_EQ(def.prefix_len, 3u);        // better-of-two: cut edge (2,3)
  EXPECT_DOUBLE_EQ(def.cost, 10.0);

  const SweepEvalResult win = sweep.eval(g, order, w, target, stats, in_w,
                                         in_u, SweepMode::WindowMin);
  EXPECT_EQ(win.prefix_len, 4u);        // in-window prefix of weight 5
  EXPECT_DOUBLE_EQ(win.weight, 5.0);
  EXPECT_DOUBLE_EQ(win.cost, 1.0);      // cut edge (3,4)
  // in_u represents the chosen prefix on return.
  for (Vertex v = 0; v < 10; ++v)
    EXPECT_EQ(in_u.contains(v), v < 4) << v;
}

TEST(SweepEval, WindowScanRunningCostsMatchRecomputeAtEveryPrefix) {
  // Unit costs make the incremental deltas exact, so the running record
  // must equal a from-scratch boundary recompute at *every* prefix.
  const Graph g = make_grid_cube(2, 8);
  const auto vs = all_vertices(g);
  const std::vector<double> w(vs.size(), 1.0);
  Membership in_w(g.num_vertices()), in_u(g.num_vertices());
  in_w.assign(vs);
  const SubsetWeightStats stats = subset_weight_stats(w, vs);

  SweepEval sweep;
  // target == total keeps every prefix inside the scan (the window exit
  // never triggers below the total).
  (void)sweep.eval(g, vs, w, stats.total, stats, in_w, in_u,
                   SweepMode::WindowMin);
  const auto costs = sweep.prefix_costs();
  ASSERT_EQ(costs.size(), vs.size() + 1);
  Membership ref_u(g.num_vertices());
  for (std::size_t len = 0; len <= vs.size(); ++len) {
    const std::span<const Vertex> prefix(vs.data(), len);
    ref_u.assign(prefix);
    EXPECT_DOUBLE_EQ(costs[len],
                     boundary_cost_within(g, prefix, ref_u, in_w))
        << "prefix length " << len;
  }
}

TEST(SweepEval, WindowScanPipelineStaysStrictlyBalanced) {
  // Full Theorem 4 pipeline with the window rule: the wide window of
  // heavy-tailed weights admits degenerate (empty / full) in-window
  // prefixes, so this exercises termination of the recursive phases and
  // the strict-balance postcondition end to end.
  for (const Instance& inst : instances()) {
    const Graph& g = inst.graph;
    auto w = testing::weights_for(g, WeightModel::OneHeavy, 5);
    for (const int k : {2, 5, 8}) {
      DecomposeOptions opt;
      opt.k = k;
      opt.sweep_mode = SweepMode::WindowMin;
      const DecomposeResult res = decompose(g, w, opt);
      testing::expect_total_coloring(g, res.coloring);
      EXPECT_TRUE(res.balance.strictly_balanced) << inst.name << " k=" << k;
    }
  }
}

TEST(SweepEval, WindowMinDecomposeBitIdenticalAcrossThreadsAndForkDepth) {
  // The decompose-level threads x fork-depth pin for the non-default rule:
  // WindowMin inherits the splitter determinism contract, so thread counts
  // and fork depths are scheduling knobs only.
  std::vector<Instance> insts;
  insts.push_back({"grid2d", make_grid_cube(2, 10)});
  insts.push_back({"geometric", make_random_geometric(260, 0.11)});
  for (const Instance& inst : insts) {
    const Graph& g = inst.graph;
    const auto w = testing::weights_for(g, WeightModel::Zipf, 7);
    DecomposeOptions opt;
    opt.k = 6;
    opt.sweep_mode = SweepMode::WindowMin;
    DecomposeContext ref_ctx(g, opt);
    const DecomposeResult ref = ref_ctx.decompose(w);
    for (const int threads : {2, 8}) {
      for (const int depth : {1, 2}) {
        DecomposeOptions topt = opt;
        topt.num_threads = threads;
        topt.fork_depth = depth;
        DecomposeContext ctx(g, topt);
        const DecomposeResult res = ctx.decompose(w);
        EXPECT_EQ(res.coloring.color, ref.coloring.color)
            << inst.name << " t=" << threads << " d=" << depth;
        EXPECT_EQ(res.max_boundary, ref.max_boundary)  // bit-identical
            << inst.name << " t=" << threads << " d=" << depth;
      }
    }
  }
}

/// Deliberately modeless splitter: the ISplitter default claims only the
/// seed rule, so stamping any other mode must raise the diagnostic.
struct ModelessSplitter final : ISplitter {
  SplitResult split(const SplitRequest& request) override {
    split_entry_checkpoint();
    std::vector<Vertex> inside(request.w_list.begin(), request.w_list.end());
    inside.resize(best_prefix(inside, request.weights, request.target));
    return evaluate_split(*request.g, request.w_list, request.weights, inside);
  }
  std::string name() const override { return "modeless"; }
};

TEST(SweepEval, UnsupportedSweepModeReportsDiagnosticOnce) {
  DecomposeDiagnostics diag;
  ModelessSplitter s;
  s.set_diagnostics(&diag);
  EXPECT_FALSE(s.supports_sweep_mode(SweepMode::WindowMin));
  s.set_sweep_mode(SweepMode::WindowMin);
  EXPECT_EQ(diag.sweep_mode_fallbacks.load(), 1);
  s.set_sweep_mode(SweepMode::WindowMin);  // latched: reported once per instance
  EXPECT_EQ(diag.sweep_mode_fallbacks.load(), 1);
  EXPECT_EQ(s.sweep_mode(), SweepMode::WindowMin);  // mode still recorded
  // The seed rule itself never triggers the event.
  DecomposeDiagnostics diag2;
  ModelessSplitter s2;
  s2.set_diagnostics(&diag2);
  s2.set_sweep_mode(SweepMode::BetterOfTwo);
  EXPECT_EQ(diag2.sweep_mode_fallbacks.load(), 0);
}

TEST(SweepEval, RequestedModeReachesEverySweepConsumer) {
  // The fixed path: stamping the window rule onto the default splitter
  // stack of a coordinate-bearing instance raises zero fallback events —
  // the geometric sweep (historically the silent drop) honors the mode.
  const Graph g = make_random_geometric(220, 0.12);
  ASSERT_TRUE(g.has_coords());
  DecomposeOptions opt;
  opt.sweep_mode = SweepMode::WindowMin;
  const auto splitter = make_default_splitter(g, opt.splitter);
  EXPECT_TRUE(splitter->supports_sweep_mode(SweepMode::WindowMin));
  DecomposeDiagnostics diag;
  splitter->set_diagnostics(&diag);
  splitter->set_sweep_mode(SweepMode::WindowMin);  // re-stamp with the sink
  const auto w = testing::weights_for(g, WeightModel::Uniform, 3);
  opt.k = 4;
  const DecomposeResult res = decompose(g, w, opt, *splitter);
  testing::expect_total_coloring(g, res.coloring);
  EXPECT_EQ(diag.sweep_mode_fallbacks.load(), 0);
}

TEST(SweepEval, ExternalSplitterOverloadStampsSweepModeAndForkDepth) {
  // decompose(g, w, opt, splitter) honors every option but num_threads:
  // the mode and fork depth land on the caller's splitter, which then
  // answers exactly as a DecomposeContext built from the same options.
  const Graph g = make_random_geometric(300, 0.1);
  const auto w = testing::weights_for(g, WeightModel::Zipf, 7);
  DecomposeOptions opt;
  opt.k = 6;
  opt.sweep_mode = SweepMode::WindowMin;
  opt.fork_depth = 2;
  const auto splitter = make_default_splitter(g, opt.splitter);
  const DecomposeResult res = decompose(g, w, opt, *splitter);
  EXPECT_EQ(splitter->sweep_mode(), SweepMode::WindowMin);
  EXPECT_EQ(splitter->fork_depth(), 2);
  DecomposeContext ctx(g, opt);
  EXPECT_EQ(res.coloring.color, ctx.decompose(w).coloring.color);
  // The instance is one where the mode matters, so a dropped mode shows.
  DecomposeOptions def = opt;
  def.sweep_mode = SweepMode::BetterOfTwo;
  EXPECT_NE(res.coloring.color, decompose(g, w, def).coloring.color);
}

TEST(SweepEval, DecomposeReportsUnsupportedSweepModeToItsSink) {
  // The stamp sets the sink before the mode, so a splitter that cannot
  // honor WindowMin reports it to this call's sink, once for both arms
  // of the Best race.
  const Graph g = make_grid_cube(2, 8);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 3);
  DecomposeDiagnostics diag;
  DecomposeOptions opt;
  opt.k = 4;
  opt.init = InitMethod::Best;
  opt.sweep_mode = SweepMode::WindowMin;
  opt.diagnostics = &diag;
  ModelessSplitter s;
  const DecomposeResult res = decompose(g, w, opt, s);
  testing::expect_total_coloring(g, res.coloring);
  EXPECT_TRUE(res.balance.strictly_balanced);
  EXPECT_EQ(diag.sweep_mode_fallbacks.load(), 1);
}

TEST(SweepEval, PresummedBestPrefixMatchesSelfSummed) {
  const std::vector<Vertex> order{0, 1, 2, 3, 4};
  const std::vector<double> w{3, 1, 4, 1, 5};
  for (const double target : {-1.0, 0.0, 3.5, 7.0, 14.0, 99.0}) {
    EXPECT_EQ(best_prefix(order, w, target, 14.0),
              best_prefix(order, w, target))
        << target;
  }
}

}  // namespace
}  // namespace mmd
