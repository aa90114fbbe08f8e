// DecomposeContext and ThreadPool: the threaded splitter paths must be
// bit-identical to the serial ones (the ISplitter::set_thread_pool
// contract), and a warm context must never rebuild its splitter or
// OrderingCache after the first call (the ROADMAP cold-vs-warm gap this
// subsystem exists to close).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "core/fast.hpp"
#include "gen/basic.hpp"
#include "gen/geometric.hpp"
#include "gen/grid.hpp"
#include "separators/orderings.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

namespace mmd {
namespace {

using testing::expect_total_coloring;

// ---- ThreadPool unit behavior ------------------------------------------

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  pool.run(257, [&](int i) { ++hits[static_cast<std::size_t>(i)]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SerialFallbacksAndReuse) {
  ThreadPool pool(1);  // no workers: run() is the plain loop
  EXPECT_EQ(pool.num_threads(), 1);
  int sum = 0;
  pool.run(5, [&](int i) { sum += i; });
  EXPECT_EQ(sum, 10);

  ThreadPool pool2(3);
  for (int round = 0; round < 50; ++round) {  // batch reuse, no respawn
    std::atomic<int> count{0};
    pool2.run(8, [&](int) { ++count; });
    ASSERT_EQ(count.load(), 8);
  }
}

TEST(ThreadPool, BackToBackTinyBatches) {
  // Regression: a stale lane re-entering its claim loop after the next
  // batch started must not claim the new batch's indices through the old
  // function pointer.  Tiny tasks in a tight loop make that window hot.
  ThreadPool pool(4);
  for (int round = 0; round < 3000; ++round) {
    std::atomic<int> sum{0};
    pool.run(3, [&](int i) { sum += i + 1; });
    ASSERT_EQ(sum.load(), 6) << "round " << round;
  }
}

TEST(ThreadPool, NestedRunExecutesInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> outer(8), inner(8 * 4);
  for (auto& h : outer) h = 0;
  for (auto& h : inner) h = 0;
  pool.run(8, [&](int i) {
    EXPECT_TRUE(ThreadPool::on_worker_thread());
    ++outer[static_cast<std::size_t>(i)];
    pool.run(4, [&](int j) { ++inner[static_cast<std::size_t>(i * 4 + j)]; });
  });
  for (const auto& h : outer) EXPECT_EQ(h.load(), 1);
  for (const auto& h : inner) EXPECT_EQ(h.load(), 1);
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.run(16,
               [&](int i) {
                 if (i == 7) throw std::runtime_error("boom");
               }),
      std::runtime_error);
  // The pool survives a throwing batch.
  std::atomic<int> count{0};
  pool.run(4, [&](int) { ++count; });
  EXPECT_EQ(count.load(), 4);
}

// ---- bit-identical threaded decomposition ------------------------------

struct Instance {
  std::string name;
  Graph graph;
};

std::vector<Instance> instances() {
  std::vector<Instance> out;
  out.push_back({"grid2d", make_grid_cube(2, 24)});
  out.push_back({"geometric", make_random_geometric(600, 0.07)});
  // 3-D: the Morton candidate's key path, on per-slot and per-lane scratch.
  out.push_back({"geometric3", make_random_geometric3(600, 0.16)});
  out.push_back({"torus", make_torus(20, 30)});
  out.push_back({"tree", make_complete_binary_tree(9)});
  return out;
}

TEST(ContextThreads, BitIdenticalAcrossThreadCounts) {
  for (const Instance& inst : instances()) {
    const Graph& g = inst.graph;
    for (const WeightModel model :
         {WeightModel::Unit, WeightModel::Uniform}) {
      const auto w = testing::weights_for(g, model, 29);
      DecomposeOptions opt;
      opt.k = 8;

      DecomposeContext serial(g, opt);
      const DecomposeResult base = serial.decompose(w);
      expect_total_coloring(g, base.coloring);

      for (const int threads : {2, 8}) {
        DecomposeOptions topt = opt;
        topt.num_threads = threads;
        DecomposeContext ctx(g, topt);
        ASSERT_NE(ctx.thread_pool(), nullptr);
        EXPECT_EQ(ctx.thread_pool()->num_threads(), threads);
        const DecomposeResult res = ctx.decompose(w);
        // Bit-identical: same class for every vertex, not merely equal
        // quality.
        EXPECT_EQ(res.coloring.color, base.coloring.color)
            << inst.name << " threads=" << threads
            << " model=" << weight_model_name(model);
        EXPECT_EQ(res.max_boundary, base.max_boundary) << inst.name;
        EXPECT_EQ(res.avg_boundary, base.avg_boundary) << inst.name;
      }
    }
  }
}

TEST(ContextThreads, ConvenienceOverloadMatchesContext) {
  const Graph g = make_grid_cube(2, 20);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 7);
  DecomposeOptions opt;
  opt.k = 6;
  opt.num_threads = 4;
  const DecomposeResult via_overload = decompose(g, w, opt);
  DecomposeContext ctx(g, opt);
  const DecomposeResult via_context = ctx.decompose(w);
  EXPECT_EQ(via_overload.coloring.color, via_context.coloring.color);
  EXPECT_EQ(via_overload.max_boundary, via_context.max_boundary);

  // And the threaded overload equals the serial overload.
  DecomposeOptions serial = opt;
  serial.num_threads = 1;
  const DecomposeResult via_serial = decompose(g, w, serial);
  EXPECT_EQ(via_overload.coloring.color, via_serial.coloring.color);
}

// ---- warm-path regression: zero rebuilds after the first call ----------

TEST(ContextThreads, SecondWarmCallDoesZeroRebuilds) {
  const Graph g = make_grid_cube(2, 24);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 3);
  DecomposeOptions opt;
  opt.k = 8;
  DecomposeContext ctx(g, opt);

  const DecomposeResult first = ctx.decompose(w);
  EXPECT_EQ(ctx.stats().splitter_builds, 1);
  const long rebinds_after_first = ordering_cache_rebind_count();

  const DecomposeResult second = ctx.decompose(w);
  // The regression ROADMAP flagged: the convenience overload rebuilt the
  // splitter and its OrderingCache per call.  A warm context must not.
  EXPECT_EQ(ctx.stats().splitter_builds, 1);
  EXPECT_EQ(ordering_cache_rebind_count(), rebinds_after_first);
  EXPECT_EQ(ctx.stats().decompose_calls, 2);
  EXPECT_EQ(second.coloring.color, first.coloring.color);
}

TEST(ContextThreads, ReuseAcrossKAndWeights) {
  const Graph g = make_grid_cube(2, 22);
  DecomposeContext ctx(g);

  for (const int k : {4, 9}) {
    for (const std::uint64_t seed : {5ull, 21ull}) {
      const auto w = testing::weights_for(g, WeightModel::Uniform, seed);
      DecomposeOptions opt;
      opt.k = k;
      const DecomposeResult warm = ctx.decompose(w, opt);
      const DecomposeResult cold = decompose(g, w, opt);
      EXPECT_EQ(warm.coloring.color, cold.coloring.color)
          << "k=" << k << " seed=" << seed;
      EXPECT_EQ(warm.max_boundary, cold.max_boundary);
      EXPECT_TRUE(warm.balance.strictly_balanced);
    }
  }
  // Sweeping k and weights must not have rebuilt anything.
  EXPECT_EQ(ctx.stats().splitter_builds, 1);
  EXPECT_EQ(ctx.stats().pool_builds, 0);  // num_threads stayed 1

  // Changing num_threads rebuilds only the pool; the splitter stays.
  DecomposeOptions topt;
  topt.k = 4;
  topt.num_threads = 2;
  const auto w = testing::weights_for(g, WeightModel::Uniform, 5);
  const DecomposeResult threaded = ctx.decompose(w, topt);
  DecomposeOptions sopt;
  sopt.k = 4;
  const DecomposeResult serial = decompose(g, w, sopt);
  EXPECT_EQ(threaded.coloring.color, serial.coloring.color);
  EXPECT_EQ(ctx.stats().pool_builds, 1);
  EXPECT_EQ(ctx.stats().splitter_builds, 1);
}

TEST(ContextThreads, ThreadCountAboveCapIsRejectedBeforeAnyPool) {
  // num_threads comes from outside input (the serve "threads" field,
  // --threads), so a count above kMaxThreads is refused before any pool is
  // built: no request can park thousands of threads in a cached context.
  const Graph g = make_grid_cube(2, 8);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  DecomposeOptions opt;
  opt.k = 4;
  DecomposeOptions over = opt;
  over.num_threads = kMaxThreads + 1;
  FastOptions fopt;
  fopt.inner = opt;
  FastOptions fover;
  fover.inner = over;
  EXPECT_THROW((DecomposeContext{g, over}), std::invalid_argument);
  EXPECT_THROW((FastContext{g, fover}), std::invalid_argument);

  // A warm context refuses it per call and keeps its serial state.
  DecomposeContext ctx(g, opt);
  FastContext fctx(g, fopt);
  EXPECT_THROW(ctx.decompose(w, over), std::invalid_argument);
  EXPECT_THROW(ctx.repartition({}, over), std::invalid_argument);
  EXPECT_THROW(fctx.decompose(w, fover), std::invalid_argument);
  EXPECT_EQ(ctx.thread_pool(), nullptr);
  EXPECT_EQ(ctx.options().num_threads, 1);
  EXPECT_EQ(ctx.stats().pool_builds + ctx.stats().pool_construct_failures, 0);
  EXPECT_EQ(fctx.fine_context().stats().pool_builds +
                fctx.fine_context().stats().pool_construct_failures,
            0);
  expect_total_coloring(g, ctx.decompose(w).coloring);
}

TEST(ContextThreads, MultiDecomposeThreadedMatchesSerial) {
  const Graph g = make_torus(18, 22);
  const auto psi = testing::weights_for(g, WeightModel::Uniform, 2);
  const auto phi = testing::weights_for(g, WeightModel::Uniform, 9);
  const std::vector<MeasureRef> extra{MeasureRef(phi)};
  DecomposeOptions opt;
  opt.k = 5;

  DecomposeContext serial_ctx(g, opt);
  const MultiDecomposeResult base = serial_ctx.decompose_multi(psi, extra);

  DecomposeOptions topt = opt;
  topt.num_threads = 8;
  DecomposeContext ctx(g, topt);
  const MultiDecomposeResult res = ctx.decompose_multi(psi, extra);
  EXPECT_EQ(res.coloring.color, base.coloring.color);
  EXPECT_EQ(res.max_boundary, base.max_boundary);
}

}  // namespace
}  // namespace mmd
