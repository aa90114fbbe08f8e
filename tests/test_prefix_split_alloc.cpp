// Counting-allocator pins for PrefixSplitter::split itself (serial and
// parallel paths, a split from inside a pooled task, both SweepMode
// rules), matching the existing refine / multi_split steady-state
// allocator tests, on a 2-D and a 3-D grid (the Morton candidate's two
// key paths): once the splitter's persistent
// scratch — memberships, order buffers, evaluation slots, SweepEval
// engines — has grown to steady state, the per-call allocation count must
// be flat (the unavoidable result-vector allocations of SplitResult, and
// nothing that creeps per call).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "gen/grid.hpp"
#include "separators/fm_refine.hpp"
#include "separators/prefix_splitter.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

// ---- counting allocator ---------------------------------------------------

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

/// Warm the splitter, then assert the per-split allocation count is flat
/// across repeated identical calls.
void expect_flat_split_allocations(PrefixSplitter& splitter,
                                   const SplitRequest& req) {
  (void)splitter.split(req);
  (void)splitter.split(req);

  const long before_a = g_alloc_count.load();
  const SplitResult a = splitter.split(req);
  const long cost_a = g_alloc_count.load() - before_a;

  const long before_b = g_alloc_count.load();
  const SplitResult b = splitter.split(req);
  const long cost_b = g_alloc_count.load() - before_b;

  EXPECT_EQ(cost_a, cost_b) << "per-split allocation count not flat";
  EXPECT_EQ(a.inside, b.inside);
  EXPECT_EQ(a.boundary_cost, b.boundary_cost);
}

/// A unit-weight split of every vertex of g into halves.
struct SplitInput {
  explicit SplitInput(Graph graph)
      : g(std::move(graph)), vs(testing::all_vertices(g)), w(vs.size(), 1.0) {
    req.g = &g;
    req.w_list = vs;
    req.weights = w;
    req.target = static_cast<double>(vs.size()) / 2.0;
  }

  Graph g;
  std::vector<Vertex> vs;
  std::vector<double> w;
  SplitRequest req;
};

class PrefixSplitAlloc : public ::testing::Test {
 protected:
  PrefixSplitAlloc() {
    inputs_.push_back(std::make_unique<SplitInput>(make_grid_cube(2, 14)));
    inputs_.push_back(std::make_unique<SplitInput>(make_grid_cube(3, 6)));
  }

  std::vector<std::unique_ptr<SplitInput>> inputs_;
};

TEST_F(PrefixSplitAlloc, SerialSteadyStateIsFlat) {
  for (const auto& in : inputs_) {
    SCOPED_TRACE(::testing::Message() << "dim " << in->g.dim());
    for (const SweepMode mode : {SweepMode::BetterOfTwo, SweepMode::WindowMin}) {
      PrefixSplitter splitter;
      splitter.set_sweep_mode(mode);
      expect_flat_split_allocations(splitter, in->req);
    }
  }
}

TEST_F(PrefixSplitAlloc, ParallelSteadyStateIsFlat) {
  for (const auto& in : inputs_) {
    SCOPED_TRACE(::testing::Message() << "dim " << in->g.dim());
    for (const SweepMode mode : {SweepMode::BetterOfTwo, SweepMode::WindowMin}) {
      ThreadPool pool(2);
      PrefixSplitter splitter;
      splitter.set_sweep_mode(mode);
      splitter.set_thread_pool(&pool);
      expect_flat_split_allocations(splitter, in->req);
    }
  }
}

TEST_F(PrefixSplitAlloc, SplitInsidePooledTaskMatchesSerialAndIsFlat) {
  // A split issued from a pooled task (a lane-tree leaf, a strictify
  // extraction) takes the serial, pruned loop on slot 0 instead of fanning
  // its candidates out inline: same answer bit for bit, flat allocations.
  for (const auto& in : inputs_) {
    SCOPED_TRACE(::testing::Message() << "dim " << in->g.dim());
    for (const SweepMode mode : {SweepMode::BetterOfTwo, SweepMode::WindowMin}) {
      PrefixSplitter serial;
      serial.set_sweep_mode(mode);
      const SplitResult want = serial.split(in->req);

      ThreadPool pool(2);
      PrefixSplitter splitter;
      splitter.set_sweep_mode(mode);
      splitter.set_thread_pool(&pool);
      SplitResult got;
      // Two tasks, so the batch really forks; only task 0 splits.
      const auto split_in_task = [&] {
        pool.run(2, [&](int i) {
          if (i == 0) got = splitter.split(in->req);
        });
      };
      split_in_task();
      split_in_task();

      const long before_a = g_alloc_count.load();
      split_in_task();
      const long cost_a = g_alloc_count.load() - before_a;
      EXPECT_EQ(got.inside, want.inside);
      EXPECT_EQ(got.weight, want.weight);
      EXPECT_EQ(got.boundary_cost, want.boundary_cost);

      const long before_b = g_alloc_count.load();
      split_in_task();
      const long cost_b = g_alloc_count.load() - before_b;
      EXPECT_EQ(cost_a, cost_b) << "per-split allocation count not flat";
      EXPECT_EQ(got.inside, want.inside);
    }
  }
}

TEST_F(PrefixSplitAlloc, RefineDisabledSerialEvaluationAllocatesOnlyResult) {
  // Without FM (whose result rebuild path reallocates inside), the warm
  // serial split allocates exactly the SplitResult vector it returns: the
  // whole evaluation pipeline — orders (the 3-D Morton keys included),
  // memberships, sweep scans — runs on persistent scratch.
  for (const auto& in : inputs_) {
    SCOPED_TRACE(::testing::Message() << "dim " << in->g.dim());
    PrefixSplitterOptions opts;
    opts.refine = false;
    PrefixSplitter splitter(opts);
    (void)splitter.split(in->req);
    (void)splitter.split(in->req);

    const long before = g_alloc_count.load();
    const SplitResult res = splitter.split(in->req);
    const long cost = g_alloc_count.load() - before;
    EXPECT_FALSE(res.inside.empty());
    EXPECT_LE(cost, 1) << "warm serial split must allocate at most the "
                          "returned inside vector";
  }
}

TEST_F(PrefixSplitAlloc, FmFrontierIsCallerScratch) {
  // FM's cut-frontier marker is scratch the caller owns (the splitter's,
  // for its own splits), like the W and U markers: once they cover the
  // graph and the result has room for all of W, a refinement that moves
  // vertices allocates nothing at all.
  for (const auto& in : inputs_) {
    SCOPED_TRACE(::testing::Message() << "dim " << in->g.dim());
    const Graph& g = in->g;
    const SubsetWeightStats stats = subset_weight_stats(in->w, in->vs);
    Membership in_w(g.num_vertices()), in_u(g.num_vertices()),
        frontier(g.num_vertices());
    in_w.assign(in->vs);
    // A scattered prefix (a stride permutation of the ids) at a
    // half-integer target, so unit-weight moves fit the 0.5 window: a poor
    // split FM improves on.
    const auto n = static_cast<Vertex>(in->vs.size());
    std::vector<Vertex> scattered;
    for (Vertex i = 0; i < n; ++i) scattered.push_back((i * 7919) % n);
    const double target = in->req.target - 0.5;
    const std::size_t len = best_prefix(scattered, in->w, target, stats.total);
    const SplitResult start = evaluate_split(
        g, in->vs, in->w, std::span<const Vertex>(scattered.data(), len));
    SplitResult res = start;
    res.inside.reserve(in->vs.size());

    const long before = g_alloc_count.load();
    const int moves = fm_refine_split(g, in->vs, in->w, target, res, in_w,
                                      in_u, frontier, stats);
    const long cost = g_alloc_count.load() - before;
    EXPECT_GT(moves, 0);
    EXPECT_LT(res.boundary_cost, start.boundary_cost);
    EXPECT_EQ(cost, 0) << "FM allocated beyond its caller's scratch";
  }
}

}  // namespace
}  // namespace mmd
