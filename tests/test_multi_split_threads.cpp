// multi_split's lane tree: with a thread pool reachable through the
// splitter, the top fork_depth recursion levels run as deterministic
// fork-join batches on per-lane splitter replicas (ISplitter::make_lane)
// and per-lane workspaces, with lane indices assigned by tree position —
// and must stay bit-identical to the serial recursion for every thread
// count and depth.  The pooled lease / lane-workspace / tree-arena
// machinery must also stay allocation-flat in steady state, which the
// counting allocator below asserts directly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/decompose.hpp"
#include "core/multi_split.hpp"
#include "gen/basic.hpp"
#include "gen/geometric.hpp"
#include "gen/grid.hpp"
#include "graph/subgraph.hpp"
#include "separators/prefix_splitter.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

// ---- counting allocator ---------------------------------------------------
// Replacing the global allocator in this test binary lets the steady-state
// test assert heap-allocation counts directly.

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

using testing::all_vertices;

struct Instance {
  std::string name;
  Graph graph;
};

std::vector<Instance> instances() {
  std::vector<Instance> out;
  out.push_back({"grid2d", make_grid_cube(2, 14)});
  out.push_back({"geometric", make_random_geometric(400, 0.09)});
  out.push_back({"torus", make_torus(14, 18)});
  out.push_back({"tree", make_complete_binary_tree(8)});
  return out;
}

std::vector<std::vector<double>> measures_for(const Graph& g, int r) {
  std::vector<std::vector<double>> out;
  for (int j = 0; j < r; ++j)
    out.push_back(testing::weights_for(
        g, testing::weight_models()[static_cast<std::size_t>(j) %
                                    testing::weight_models().size()],
        100 + static_cast<std::uint64_t>(j)));
  return out;
}

TEST(MultiSplitThreads, ForkedHalvesBitIdenticalToSerial) {
  for (const Instance& inst : instances()) {
    const Graph& g = inst.graph;
    const auto vs = all_vertices(g);
    for (const int r : {2, 3, 4}) {
      const auto measures = measures_for(g, r);
      const std::vector<MeasureRef> refs(measures.begin(), measures.end());

      PrefixSplitter serial_splitter;
      const TwoColoring serial = multi_split(g, vs, refs, serial_splitter);

      for (const int threads : {2, 4}) {
        ThreadPool pool(threads);
        PrefixSplitter splitter;
        splitter.set_thread_pool(&pool);
        DecomposeWorkspace ws;
        const TwoColoring par = multi_split(g, vs, refs, splitter, &ws);
        // Bit-identical halves: same vertices in the same order on each
        // side, same accumulated cut cost.
        EXPECT_EQ(par.side[0], serial.side[0])
            << inst.name << " r=" << r << " threads=" << threads;
        EXPECT_EQ(par.side[1], serial.side[1])
            << inst.name << " r=" << r << " threads=" << threads;
        EXPECT_EQ(par.cut_cost, serial.cut_cost) << inst.name << " r=" << r;
      }
    }
  }
}

TEST(MultiSplitThreads, LaneTreeBitIdenticalToSerial) {
  // The full depth matrix: fork_depth 0 (auto from the pool size) and
  // 1/2/3 explicit, across pools of 2/4/8 lanes, on every instance shape.
  // r = 4 measures give the tree three forkable levels, so depth 3 is
  // genuinely reached (deeper requests clamp to the recursion height).
  for (const Instance& inst : instances()) {
    const Graph& g = inst.graph;
    const auto vs = all_vertices(g);
    const auto measures = measures_for(g, 4);
    const std::vector<MeasureRef> refs(measures.begin(), measures.end());

    PrefixSplitter serial_splitter;
    const TwoColoring serial = multi_split(g, vs, refs, serial_splitter);

    for (const int threads : {2, 4, 8}) {
      ThreadPool pool(threads);
      for (const int depth : {0, 1, 2, 3}) {
        PrefixSplitter splitter;
        splitter.set_thread_pool(&pool);
        splitter.set_fork_depth(depth);
        DecomposeWorkspace ws;
        const TwoColoring par = multi_split(g, vs, refs, splitter, &ws);
        EXPECT_EQ(par.side[0], serial.side[0])
            << inst.name << " threads=" << threads << " fork_depth=" << depth;
        EXPECT_EQ(par.side[1], serial.side[1])
            << inst.name << " threads=" << threads << " fork_depth=" << depth;
        EXPECT_EQ(par.cut_cost, serial.cut_cost)
            << inst.name << " threads=" << threads << " fork_depth=" << depth;
      }
    }
  }
}

TEST(MultiSplitThreads, DeepForkDepthClampsToRecursionHeight) {
  // fork_depth far beyond the recursion height (and the auto depth on a
  // pool wider than 2^(r-1) lanes) must clamp, not misbehave.
  const Graph g = make_grid_cube(2, 12);
  const auto vs = all_vertices(g);
  const auto measures = measures_for(g, 2);  // one forkable level only
  const std::vector<MeasureRef> refs(measures.begin(), measures.end());

  PrefixSplitter serial_splitter;
  const TwoColoring serial = multi_split(g, vs, refs, serial_splitter);

  ThreadPool pool(8);
  for (const int depth : {0, 5, 64}) {
    PrefixSplitter splitter;
    splitter.set_thread_pool(&pool);
    splitter.set_fork_depth(depth);
    DecomposeWorkspace ws;
    const TwoColoring par = multi_split(g, vs, refs, splitter, &ws);
    EXPECT_EQ(par.side[0], serial.side[0]) << "fork_depth=" << depth;
    EXPECT_EQ(par.side[1], serial.side[1]) << "fork_depth=" << depth;
  }
}

TEST(MultiSplitThreads, CompositeSplitterLanesBitIdentical) {
  // The Auto stack on a grid is best-of(grid, prefix); its lanes are
  // composites of child lanes sharing each child's immutable cache.
  const Graph g = make_grid_cube(2, 12);
  const auto vs = all_vertices(g);
  const auto measures = measures_for(g, 3);
  const std::vector<MeasureRef> refs(measures.begin(), measures.end());

  const auto serial_splitter = make_default_splitter(g, SplitterKind::Auto);
  const TwoColoring serial = multi_split(g, vs, refs, *serial_splitter);

  ThreadPool pool(4);
  const auto splitter = make_default_splitter(g, SplitterKind::Auto);
  splitter->set_thread_pool(&pool);
  DecomposeWorkspace ws;
  const TwoColoring par = multi_split(g, vs, refs, *splitter, &ws);
  EXPECT_EQ(par.side[0], serial.side[0]);
  EXPECT_EQ(par.side[1], serial.side[1]);
  EXPECT_EQ(par.cut_cost, serial.cut_cost);
}

TEST(MultiSplitThreads, LaneMatchesParentOnEveryRequest) {
  const Graph g = make_grid_cube(2, 12);
  const auto vs = all_vertices(g);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 17);

  for (const SplitterKind kind : {SplitterKind::Prefix, SplitterKind::Auto,
                                  SplitterKind::Grid}) {
    const auto parent = make_default_splitter(g, kind);
    ISplitter* lane = parent->lane(0);
    ASSERT_NE(lane, nullptr) << parent->name();
    // Same lane object comes back (persistent, warm across calls).
    EXPECT_EQ(parent->lane(0), lane);

    SplitRequest req;
    req.g = &g;
    req.w_list = vs;
    req.weights = w;
    req.target = set_measure(std::span<const double>(w), vs) / 2.0;
    const SplitResult a = parent->split(req);
    const SplitResult b = lane->split(req);
    EXPECT_EQ(a.inside, b.inside) << parent->name();
    EXPECT_EQ(a.boundary_cost, b.boundary_cost) << parent->name();
    EXPECT_EQ(a.weight, b.weight) << parent->name();
  }
}

TEST(MultiSplitThreads, LanelessSplitterFallsBackToSerialExplicitly) {
  // A splitter without make_lane must not break the lane-tree path: the
  // fork falls back to the serial recursion (ensure_lanes reports false,
  // logging once) and the result matches the no-pool run exactly.
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

  const Graph g = make_grid_cube(2, 12);
  const auto vs = all_vertices(g);
  const auto measures = measures_for(g, 3);
  const std::vector<MeasureRef> refs(measures.begin(), measures.end());

  LanelessSplitter serial_splitter;
  const TwoColoring serial = multi_split(g, vs, refs, serial_splitter);

  ThreadPool pool(4);
  LanelessSplitter splitter;
  splitter.set_thread_pool(&pool);
  // The fallback must be *observable*: a diagnostics sink wired onto the
  // splitter counts exactly one LanelessFallback (once per splitter, not
  // per call), and the callback sees the event; stderr stays untouched
  // (the library never writes there).
  DecomposeDiagnostics diag;
  int callback_events = 0;
  diag.callback = [&](DiagEvent event, const char* message) {
    EXPECT_EQ(event, DiagEvent::LanelessFallback);
    EXPECT_NE(message, nullptr);
    ++callback_events;
  };
  splitter.set_diagnostics(&diag);
  EXPECT_FALSE(splitter.ensure_lanes(4));
  EXPECT_EQ(diag.laneless_fallbacks.load(), 1);
  EXPECT_EQ(callback_events, 1);
  DecomposeWorkspace ws;
  const TwoColoring par = multi_split(g, vs, refs, splitter, &ws);
  EXPECT_EQ(par.side[0], serial.side[0]);
  EXPECT_EQ(par.side[1], serial.side[1]);
  EXPECT_EQ(par.cut_cost, serial.cut_cost);
  // multi_split's own ensure_lanes round does not re-report.
  EXPECT_EQ(diag.laneless_fallbacks.load(), 1);
}

// ---- steady-state allocation behavior ----------------------------------

TEST(MultiSplitThreads, WarmLeasesMakeNoHeapAllocations) {
  const Graph g = make_grid_cube(2, 14);
  ThreadPool pool(8);
  PrefixSplitter splitter;
  splitter.set_thread_pool(&pool);
  splitter.set_fork_depth(3);  // 8 leaf lanes / lane workspaces
  DecomposeWorkspace ws;
  const auto vs = all_vertices(g);
  const auto measures = measures_for(g, 4);
  const std::vector<MeasureRef> refs(measures.begin(), measures.end());

  // Two warm-up calls grow the lane-tree machinery (tree-arena slots,
  // lane workspaces, splitter lanes and their scratch) to steady state.
  (void)multi_split(g, vs, refs, splitter, &ws);
  (void)multi_split(g, vs, refs, splitter, &ws);

  // The parent workspace's own LIFO pools are not touched by the tree
  // driver (complements live in the tree arena, memberships in the lane
  // workspaces), so one lease round warms them explicitly.
  const auto lease_round = [&] {
    const auto list = ws.vertex_list();
    list->push_back(0);
    const auto member = ws.membership(g.num_vertices());
    member->add(0);
    for (int lane = 0; lane < 8; ++lane) {
      DecomposeWorkspace& lane_ws = ws.lane_workspace(lane);
      const auto lane_list = lane_ws.vertex_list();
      lane_list->push_back(1);
      const auto lane_member = lane_ws.membership(g.num_vertices());
      lane_member->add(1);
    }
  };
  lease_round();

  // The pooled leases themselves are allocation-free once warm — in the
  // parent workspace and in all eight leaf-lane workspaces — and so is
  // re-touching every tree-arena slot.
  const long before = g_alloc_count.load();
  for (int round = 0; round < 64; ++round) {
    lease_round();
    for (std::size_t slot = 0; slot < 14; ++slot)  // 2^4 - 2 tree slots
      ws.tree_list(slot);
  }
  EXPECT_EQ(g_alloc_count.load() - before, 0)
      << "pooled leases allocated in steady state";
}

TEST(MultiSplitThreads, SteadyStateAllocationCountIsStable) {
  // A full multi_split necessarily allocates its result vectors, but in
  // steady state (warm workspace, warm lanes, warm tree arena) the
  // per-call allocation count must be flat — no hidden per-call growth
  // from the batched levels, the lane workspaces, or the splitter
  // replicas.  Pinned at every lane-tree depth the recursion admits,
  // matching the original 2-lane pin at fork_depth 1.
  const Graph g = make_grid_cube(2, 14);
  const auto vs = all_vertices(g);
  const auto measures = measures_for(g, 4);
  const std::vector<MeasureRef> refs(measures.begin(), measures.end());

  for (const int depth : {1, 2, 3}) {
    ThreadPool pool(4);
    PrefixSplitter splitter;
    splitter.set_thread_pool(&pool);
    splitter.set_fork_depth(depth);
    DecomposeWorkspace ws;

    (void)multi_split(g, vs, refs, splitter, &ws);
    (void)multi_split(g, vs, refs, splitter, &ws);

    const long before_a = g_alloc_count.load();
    const TwoColoring a = multi_split(g, vs, refs, splitter, &ws);
    const long cost_a = g_alloc_count.load() - before_a;

    const long before_b = g_alloc_count.load();
    const TwoColoring b = multi_split(g, vs, refs, splitter, &ws);
    const long cost_b = g_alloc_count.load() - before_b;

    EXPECT_EQ(cost_a, cost_b) << "fork_depth=" << depth;
    EXPECT_EQ(a.side[0], b.side[0]) << "fork_depth=" << depth;
    EXPECT_EQ(a.side[1], b.side[1]) << "fork_depth=" << depth;
  }
}

}  // namespace
}  // namespace mmd
