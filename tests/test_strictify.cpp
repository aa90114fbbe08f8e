#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "core/bisection.hpp"
#include "core/decompose.hpp"
#include "core/measures.hpp"
#include "core/multibalance.hpp"
#include "core/strictify.hpp"
#include "gen/geometric.hpp"
#include "gen/grid.hpp"
#include "gen/mesh.hpp"
#include "separators/prefix_splitter.hpp"
#include "test_helpers.hpp"
#include "util/norms.hpp"
#include "util/thread_pool.hpp"

namespace mmd {
namespace {

using testing::expect_total_coloring;

struct Fixture {
  Graph g = make_grid_cube(2, 24);
  std::vector<double> pi = splitting_cost_measure(g, 2.0, 2.0);
  PrefixSplitter splitter;

  Coloring weakly_balanced(std::span<const double> w, int k) {
    const std::vector<MeasureRef> refs{MeasureRef(pi), MeasureRef(w)};
    PrefixSplitter s;
    return multibalance(g, k, refs, s);
  }
};

TEST(Strictify, ProducesAlmostStrictBalance) {
  Fixture f;
  for (WeightModel model :
       {WeightModel::Unit, WeightModel::Uniform, WeightModel::Bimodal}) {
    const auto w = testing::weights_for(f.g, model, 31);
    const int k = 8;
    const Coloring chi = f.weakly_balanced(w, k);
    StrictifyStats stats;
    const Coloring out =
        strictify_almost(f.g, chi, w, f.pi, f.splitter, {}, &stats);
    expect_total_coloring(f.g, out);
    const auto rep = balance_report(w, out);
    EXPECT_TRUE(rep.almost_strictly_balanced)
        << weight_model_name(model) << ": dev " << rep.max_dev << " vs "
        << 2 * rep.wmax;
  }
}

TEST(Strictify, RecursesOnUnitWeights) {
  // Unit weights on a big grid satisfy ||w||_inf << avg, so the shrink
  // path (not just the base case) must engage.
  Fixture f;
  const std::vector<double> w(static_cast<std::size_t>(f.g.num_vertices()), 1.0);
  const int k = 4;
  const Coloring chi = f.weakly_balanced(w, k);
  StrictifyParams params;
  params.base_eps = 0.05;
  params.min_vertices_factor = 4;
  StrictifyStats stats;
  const Coloring out =
      strictify_almost(f.g, chi, w, f.pi, f.splitter, params, &stats);
  EXPECT_GE(stats.levels, 2) << "shrink recursion never engaged";
  EXPECT_TRUE(balance_report(w, out).almost_strictly_balanced);
}

TEST(Strictify, BoundaryCostStaysComparable) {
  Fixture f;
  const std::vector<double> w(static_cast<std::size_t>(f.g.num_vertices()), 1.0);
  const int k = 8;
  const Coloring chi = f.weakly_balanced(w, k);
  const double b_before = max_boundary_cost(f.g, chi);
  const Coloring out = strictify_almost(f.g, chi, w, f.pi, f.splitter);
  const double b_after = max_boundary_cost(f.g, out);
  // Proposition 11: constant-factor increase plus O(pi^{1/p}) terms.
  const double pi_term = splitting_cost(f.pi, testing::all_vertices(f.g), 2.0) /
                         std::sqrt(static_cast<double>(k));
  EXPECT_LE(b_after, 6.0 * b_before + 4.0 * pi_term)
      << "before " << b_before << " after " << b_after;
}

TEST(Strictify, BaseCaseOnHeavyVertexInstances) {
  // ||w||_inf comparable to the average: base case (binpack1) route.
  Fixture f;
  auto w = testing::weights_for(f.g, WeightModel::OneHeavy, 41, 500.0);
  const int k = 6;
  const Coloring chi = f.weakly_balanced(w, k);
  StrictifyStats stats;
  const Coloring out =
      strictify_almost(f.g, chi, w, f.pi, f.splitter, {}, &stats);
  EXPECT_TRUE(balance_report(w, out).almost_strictly_balanced);
}

TEST(Strictify, DepthIsLogarithmic) {
  Fixture f;
  const std::vector<double> w(static_cast<std::size_t>(f.g.num_vertices()), 1.0);
  const Coloring chi = f.weakly_balanced(w, 4);
  StrictifyStats stats;
  strictify_almost(f.g, chi, w, f.pi, f.splitter, {}, &stats);
  // Each level removes a constant weight fraction: levels = O(log n).
  EXPECT_LE(stats.levels, 40);
}

TEST(Strictify, RequiresTotalColoring) {
  Fixture f;
  const std::vector<double> w(static_cast<std::size_t>(f.g.num_vertices()), 1.0);
  Coloring partial(4, f.g.num_vertices());
  EXPECT_THROW(strictify_almost(f.g, partial, w, f.pi, f.splitter),
               std::invalid_argument);
}

// ---- StrictifyThreads ------------------------------------------------------
// shrink_once runs its per-class Corollary 18 extractions as tasks on the
// splitter's pool (task 0 on the splitter itself, task j >= 1 on lane j-1)
// and merges the per-class results in class order.  shrink_once and
// strictify_almost must therefore return bitwise the same colorings, W0/W1
// orders and cut costs with no pool and with any pool size.

struct ThreadInstance {
  Graph g;
  std::vector<double> w;
  std::vector<double> pi = splitting_cost_measure(g, 2.0, 2.0);
  std::vector<double> user = testing::weights_for(g, WeightModel::Bimodal, 23);
};

ThreadInstance weighted_tri_mesh() {
  CostParams costs;
  costs.model = CostModel::Uniform;
  costs.hi = 4.0;
  costs.seed = 5;
  Graph g = make_tri_mesh(36, 36, costs);
  std::vector<double> w = testing::weights_for(g, WeightModel::Uniform, 11);
  return {std::move(g), std::move(w)};
}

ThreadInstance random_geometric() {
  Graph g = make_random_geometric(1200, 0.05, {}, 17);
  std::vector<double> w = testing::weights_for(g, WeightModel::Uniform, 13);
  return {std::move(g), std::move(w)};
}

ThreadInstance grid() {
  Graph g = make_grid_cube(2, 36);
  std::vector<double> w = testing::weights_for(g, WeightModel::Uniform, 19);
  return {std::move(g), std::move(w)};
}

/// One shrink_once and one strictify_almost on a fresh Auto splitter (the
/// grid gets best-of(grid, prefix)) with `pool` wired in, or none.
struct ThreadRun {
  ShrinkOutput shrink;
  Coloring strict;
  StrictifyStats stats;
};

ThreadRun run_with_pool(const ThreadInstance& inst, const Coloring& chi,
                        std::span<const MeasureRef> preserve, ThreadPool* pool) {
  const auto splitter = make_default_splitter(inst.g, SplitterKind::Auto);
  splitter->set_thread_pool(pool);
  DecomposeWorkspace ws;
  ThreadRun run;
  run.shrink = shrink_once(inst.g, testing::all_vertices(inst.g), chi, inst.w,
                           inst.pi, *splitter, {}, preserve, &ws);
  run.strict = strictify_almost(inst.g, chi, inst.w, inst.pi, *splitter, {},
                                &run.stats, preserve, &ws);
  return run;
}

void expect_same_run(const ThreadRun& want, const ThreadRun& got,
                     const std::string& where) {
  EXPECT_EQ(got.shrink.chi0.color, want.shrink.chi0.color) << where;
  EXPECT_EQ(got.shrink.chi1.color, want.shrink.chi1.color) << where;
  EXPECT_EQ(got.shrink.w0, want.shrink.w0) << where;
  EXPECT_EQ(got.shrink.w1, want.shrink.w1) << where;
  EXPECT_EQ(got.shrink.cut_cost, want.shrink.cut_cost) << where;
  EXPECT_EQ(got.strict.color, want.strict.color) << where;
  EXPECT_EQ(got.stats.cut_cost, want.stats.cut_cost) << where;
  EXPECT_EQ(got.stats.levels, want.stats.levels) << where;
}

void expect_bit_identical_across_pools(const ThreadInstance& inst) {
  for (const int k : {2, 7, 16}) {
    const std::vector<MeasureRef> refs{MeasureRef(inst.pi), MeasureRef(inst.w)};
    PrefixSplitter balance_splitter;
    const Coloring chi = multibalance(inst.g, k, refs, balance_splitter);
    for (const bool with_preserve : {false, true}) {
      std::vector<MeasureRef> preserve;
      if (with_preserve) preserve.push_back(inst.user);
      const ThreadRun serial = run_with_pool(inst, chi, preserve, nullptr);
      ASSERT_TRUE(balance_report(inst.w, serial.strict).almost_strictly_balanced);
      ASSERT_GE(serial.stats.levels, 2) << "strictify never shrank";
      for (const int threads : {2, 4, 8}) {
        ThreadPool pool(threads);
        const std::string where = "k=" + std::to_string(k) +
                                  " preserve=" + std::to_string(with_preserve) +
                                  " threads=" + std::to_string(threads);
        expect_same_run(serial, run_with_pool(inst, chi, preserve, &pool), where);
      }
    }
  }
}

TEST(StrictifyThreads, WeightedTriMeshBitIdenticalAcrossPools) {
  expect_bit_identical_across_pools(weighted_tri_mesh());
}

TEST(StrictifyThreads, RandomGeometricBitIdenticalAcrossPools) {
  expect_bit_identical_across_pools(random_geometric());
}

TEST(StrictifyThreads, GridCompositeBitIdenticalAcrossPools) {
  expect_bit_identical_across_pools(grid());
}

/// Counts split() calls across a splitter and all of its lanes, answering
/// them with the wrapped splitter and its lanes.
class CountingLaneSplitter final : public ISplitter {
 public:
  explicit CountingLaneSplitter(
      std::unique_ptr<ISplitter> inner,
      std::shared_ptr<std::atomic<long>> calls =
          std::make_shared<std::atomic<long>>(0))
      : inner_(std::move(inner)), calls_(std::move(calls)) {}
  SplitResult split(const SplitRequest& request) override {
    calls_->fetch_add(1, std::memory_order_relaxed);
    return inner_->split(request);
  }
  std::string name() const override { return "counting"; }
  std::unique_ptr<ISplitter> make_lane() override {
    std::unique_ptr<ISplitter> lane = inner_->make_lane();
    if (lane == nullptr) return nullptr;
    return std::make_unique<CountingLaneSplitter>(std::move(lane), calls_);
  }
  long calls() const { return calls_->load(); }

 private:
  std::unique_ptr<ISplitter> inner_;
  std::shared_ptr<std::atomic<long>> calls_;
};

TEST(StrictifyThreads, CertifiedExtractionsSplitAlikeAtEveryPoolSize) {
  // Each class's Corollary 18 extraction stops peeling once Lemma 30's
  // share is certified, a decision made from that class alone: the
  // fanned-out extractions split exactly as often as the serial loop and
  // answer bit for bit the same, with fewer splits than the chunk splits
  // of the full partitions alone.
  const ThreadInstance inst = weighted_tri_mesh();
  const int k = 7;
  PrefixSplitter balance_splitter;
  const Coloring chi =
      recursive_bisection_coloring(inst.g, inst.w, k, balance_splitter);
  const auto all = testing::all_vertices(inst.g);

  struct Counted {
    ShrinkOutput shrink;
    long shrink_calls = 0;
    Coloring strict;
    long strict_calls = 0;
  };
  const auto run = [&](ThreadPool* pool) {
    CountingLaneSplitter splitter(
        make_default_splitter(inst.g, SplitterKind::Auto));
    splitter.set_thread_pool(pool);
    DecomposeWorkspace ws;
    Counted c;
    c.shrink = shrink_once(inst.g, all, chi, inst.w, inst.pi, splitter, {},
                           {}, &ws);
    c.shrink_calls = splitter.calls();
    c.strict = strictify_almost(inst.g, chi, inst.w, inst.pi, splitter, {},
                                nullptr, {}, &ws);
    c.strict_calls = splitter.calls() - c.shrink_calls;
    return c;
  };
  const Counted serial = run(nullptr);

  // The bisection's classes weigh about Psi* each, so steps (2)-(4) move
  // nothing: step (5) extracts from chi's own classes and makes every
  // split of the shrink step.
  long full_chunk_splits = 0;
  const double chunk_weight =
      ShrinkParams{}.eps * set_measure(inst.w, all) / k / 4.0;  // r = 3
  for (int i = 0; i < k; ++i) {
    std::vector<Vertex> cls;
    for (Vertex v : all)
      if (chi[v] == i) cls.push_back(v);
    for (Vertex v : cls)
      ASSERT_TRUE(serial.shrink.chi0[v] == i || serial.shrink.chi1[v] == i);
    CountingLaneSplitter counter(
        make_default_splitter(inst.g, SplitterKind::Auto));
    iterative_partition(inst.g, cls, inst.w, chunk_weight, counter);
    full_chunk_splits += counter.calls();
  }
  EXPECT_LT(serial.shrink_calls, full_chunk_splits);
  EXPECT_GT(serial.shrink_calls, 0);

  for (const int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    const Counted got = run(&pool);
    const std::string where = "threads=" + std::to_string(threads);
    EXPECT_EQ(got.shrink_calls, serial.shrink_calls) << where;
    EXPECT_EQ(got.strict_calls, serial.strict_calls) << where;
    EXPECT_EQ(got.shrink.chi0.color, serial.shrink.chi0.color) << where;
    EXPECT_EQ(got.shrink.chi1.color, serial.shrink.chi1.color) << where;
    EXPECT_EQ(got.shrink.w0, serial.shrink.w0) << where;
    EXPECT_EQ(got.shrink.w1, serial.shrink.w1) << where;
    EXPECT_EQ(got.shrink.cut_cost, serial.shrink.cut_cost) << where;
    EXPECT_EQ(got.strict.color, serial.strict.color) << where;
  }
}

TEST(StrictifyThreads, WarmLanesStayBitIdenticalAcrossCalls) {
  // The second call reuses the lanes and lane workspaces the first one
  // materialized; warm scratch must not leak into the answer.
  const ThreadInstance inst = weighted_tri_mesh();
  const std::vector<MeasureRef> refs{MeasureRef(inst.pi), MeasureRef(inst.w)};
  PrefixSplitter balance_splitter;
  const Coloring chi = multibalance(inst.g, 16, refs, balance_splitter);
  const ThreadRun serial = run_with_pool(inst, chi, {}, nullptr);

  ThreadPool pool(4);
  const auto splitter = make_default_splitter(inst.g, SplitterKind::Auto);
  splitter->set_thread_pool(&pool);
  DecomposeWorkspace ws;
  for (int call = 0; call < 3; ++call) {
    StrictifyStats stats;
    const Coloring out = strictify_almost(inst.g, chi, inst.w, inst.pi,
                                          *splitter, {}, &stats, {}, &ws);
    EXPECT_EQ(out.color, serial.strict.color) << "call " << call;
    EXPECT_EQ(stats.cut_cost, serial.stats.cut_cost) << "call " << call;
    // The deg_W and boundary buffers live only while a call's levels run.
    EXPECT_EQ(ws.shrink.deg_w.capacity(), 0u) << "call " << call;
    EXPECT_EQ(ws.shrink.bnd.capacity(), 0u) << "call " << call;
  }
}

TEST(StrictifyThreads, LanelessSplitterFallsBackToSerial) {
  // Without make_lane the fan-out cannot fork: shrink_once keeps the
  // serial loop, reports LanelessFallback once per splitter (not per
  // shrink step), and answers exactly as with no pool.
  class LanelessSplitter final : public ISplitter {
   public:
    SplitResult split(const SplitRequest& request) override {
      return inner_.split(request);
    }
    std::string name() const override { return "laneless"; }
    // make_lane deliberately not overridden: default returns nullptr.
   private:
    PrefixSplitter inner_;
  };

  const ThreadInstance inst = random_geometric();
  const std::vector<MeasureRef> refs{MeasureRef(inst.pi), MeasureRef(inst.w)};
  PrefixSplitter balance_splitter;
  const Coloring chi = multibalance(inst.g, 7, refs, balance_splitter);
  const auto all = testing::all_vertices(inst.g);

  LanelessSplitter serial_splitter;
  const ShrinkOutput serial_shrink =
      shrink_once(inst.g, all, chi, inst.w, inst.pi, serial_splitter);
  StrictifyStats serial_stats;
  const Coloring serial = strictify_almost(inst.g, chi, inst.w, inst.pi,
                                           serial_splitter, {}, &serial_stats);

  ThreadPool pool(4);
  LanelessSplitter splitter;
  splitter.set_thread_pool(&pool);
  DecomposeDiagnostics diag;
  splitter.set_diagnostics(&diag);
  DecomposeWorkspace ws;
  const ShrinkOutput shrink =
      shrink_once(inst.g, all, chi, inst.w, inst.pi, splitter, {}, {}, &ws);
  EXPECT_EQ(diag.laneless_fallbacks.load(), 1);
  StrictifyStats stats;
  const Coloring out = strictify_almost(inst.g, chi, inst.w, inst.pi, splitter,
                                        {}, &stats, {}, &ws);
  EXPECT_GE(stats.levels, 2) << "the shrink path never ran";
  EXPECT_EQ(diag.laneless_fallbacks.load(), 1);

  EXPECT_EQ(shrink.chi0.color, serial_shrink.chi0.color);
  EXPECT_EQ(shrink.chi1.color, serial_shrink.chi1.color);
  EXPECT_EQ(shrink.w0, serial_shrink.w0);
  EXPECT_EQ(shrink.w1, serial_shrink.w1);
  EXPECT_EQ(shrink.cut_cost, serial_shrink.cut_cost);
  EXPECT_EQ(out.color, serial.color);
  EXPECT_EQ(stats.cut_cost, serial_stats.cut_cost);
}

}  // namespace
}  // namespace mmd
