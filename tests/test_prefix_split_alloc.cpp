// Counting-allocator pins for PrefixSplitter::split itself (serial and
// parallel paths, a split from inside a pooled task, both SweepMode
// rules), matching the existing refine / multi_split steady-state
// allocator tests: once the splitter's persistent
// scratch — memberships, order buffers, evaluation slots, SweepEval
// engines — has grown to steady state, the per-call allocation count must
// be flat (the unavoidable result-vector allocations of SplitResult, and
// nothing that creeps per call).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "gen/grid.hpp"
#include "separators/prefix_splitter.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

// ---- counting allocator ---------------------------------------------------

namespace {
std::atomic<long> g_alloc_count{0};
}

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

class PrefixSplitAlloc : public ::testing::Test {
 protected:
  PrefixSplitAlloc()
      : g_(make_grid_cube(2, 14)),
        vs_(testing::all_vertices(g_)),
        w_(vs_.size(), 1.0) {
    req_.g = &g_;
    req_.w_list = vs_;
    req_.weights = w_;
    req_.target = static_cast<double>(vs_.size()) / 2.0;
  }

  Graph g_;
  std::vector<Vertex> vs_;
  std::vector<double> w_;
  SplitRequest req_;
};

TEST_F(PrefixSplitAlloc, SerialSteadyStateIsFlat) {
  for (const SweepMode mode : {SweepMode::BetterOfTwo, SweepMode::WindowMin}) {
    PrefixSplitter splitter;
    splitter.set_sweep_mode(mode);
    expect_flat_split_allocations(splitter, req_);
  }
}

TEST_F(PrefixSplitAlloc, ParallelSteadyStateIsFlat) {
  for (const SweepMode mode : {SweepMode::BetterOfTwo, SweepMode::WindowMin}) {
    ThreadPool pool(2);
    PrefixSplitter splitter;
    splitter.set_sweep_mode(mode);
    splitter.set_thread_pool(&pool);
    expect_flat_split_allocations(splitter, req_);
  }
}

TEST_F(PrefixSplitAlloc, SplitInsidePooledTaskMatchesSerialAndIsFlat) {
  // A split issued from a pooled task (a lane-tree leaf, a strictify
  // extraction) takes the serial, pruned loop on slot 0 instead of fanning
  // its candidates out inline: same answer bit for bit, flat allocations.
  for (const SweepMode mode : {SweepMode::BetterOfTwo, SweepMode::WindowMin}) {
    PrefixSplitter serial;
    serial.set_sweep_mode(mode);
    const SplitResult want = serial.split(req_);

    ThreadPool pool(2);
    PrefixSplitter splitter;
    splitter.set_sweep_mode(mode);
    splitter.set_thread_pool(&pool);
    SplitResult got;
    // Two tasks, so the batch really forks; only task 0 splits.
    const auto split_in_task = [&] {
      pool.run(2, [&](int i) {
        if (i == 0) got = splitter.split(req_);
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

TEST_F(PrefixSplitAlloc, RefineDisabledSerialEvaluationAllocatesOnlyResult) {
  // Without FM (whose result rebuild path reallocates inside), the warm
  // serial split allocates exactly the SplitResult vector it returns: the
  // whole evaluation pipeline — orders, memberships, sweep scans — runs
  // on persistent scratch.
  PrefixSplitterOptions opts;
  opts.refine = false;
  PrefixSplitter splitter(opts);
  (void)splitter.split(req_);
  (void)splitter.split(req_);

  const long before = g_alloc_count.load();
  const SplitResult res = splitter.split(req_);
  const long cost = g_alloc_count.load() - before;
  EXPECT_FALSE(res.inside.empty());
  EXPECT_LE(cost, 1) << "warm serial split must allocate at most the "
                        "returned inside vector";
}

}  // namespace
}  // namespace mmd
