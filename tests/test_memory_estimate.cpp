// Memory accounting (PR 8): the service's context cache evicts by
// memory_estimate_bytes / memory_bytes, so those estimates must track the
// real heap.  This binary overrides operator new/delete with a counting
// allocator (live bytes by malloc_usable_size) and pins the estimates:
//   * Membership / Graph / DecomposeWorkspace heap estimates never exceed
//     the counted live heap their instance retains, and stay within a
//     small factor of it (no wild under- or over-accounting);
//   * DecomposeContext::memory_estimate_bytes grows when the repartition
//     chain adopts state — bound weights, the prior coloring, pending
//     dirty vertices — so cached warm chains are billed for what they keep.
#include <gtest/gtest.h>

#if __has_include(<malloc.h>)
#include <malloc.h>
#define MMD_HAVE_MALLOC_USABLE_SIZE 1
#endif

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/context.hpp"
#include "core/decompose.hpp"
#include "core/workspace.hpp"
#include "gen/grid.hpp"
#include "graph/graph.hpp"
#include "graph/subgraph.hpp"
#include "test_helpers.hpp"

namespace {

std::atomic<std::size_t> g_live_bytes{0};
// High-water mark of g_live_bytes since the last reset_peak(); pins the
// transient footprint of GraphBuilder::build (PR 9 streaming build).
std::atomic<std::size_t> g_peak_bytes{0};

std::size_t usable(void* p) {
#ifdef MMD_HAVE_MALLOC_USABLE_SIZE
  return p != nullptr ? malloc_usable_size(p) : 0;
#else
  (void)p;
  return 0;
#endif
}

}  // namespace

// Counting allocator for this test binary only: every live allocation is
// tracked by its usable size, so a scope's retained heap is the delta of
// g_live_bytes across it.  The replacements stay out of line: inlined,
// they would show the compiler malloc's pointer reaching operator delete,
// or operator new's reaching free() (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  const std::size_t now =
      g_live_bytes.fetch_add(usable(p), std::memory_order_relaxed) + usable(p);
  std::size_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (now > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, now,
                                             std::memory_order_relaxed)) {
  }
  return p;
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(usable(p), std::memory_order_relaxed);
  std::free(p);
}

[[gnu::noinline]] void operator delete[](void* p) noexcept {
  ::operator delete(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  ::operator delete(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace mmd {
namespace {

std::size_t live() { return g_live_bytes.load(std::memory_order_relaxed); }
std::size_t peak() { return g_peak_bytes.load(std::memory_order_relaxed); }
void reset_peak() { g_peak_bytes.store(live(), std::memory_order_relaxed); }

// Allocator metadata / rounding headroom: the estimates count requested
// capacities while the counter sees usable sizes, which glibc rounds up
// per chunk.
constexpr std::size_t kSlack = 16 * 1024;

#ifdef MMD_HAVE_MALLOC_USABLE_SIZE
#define MMD_REQUIRE_COUNTER()
#else
#define MMD_REQUIRE_COUNTER() \
  GTEST_SKIP() << "malloc_usable_size unavailable; counting allocator inert"
#endif

TEST(MemoryEstimate, MembershipEstimatePinnedToCountedHeap) {
  MMD_REQUIRE_COUNTER();
  const std::size_t before = live();
  Membership m;
  m.ensure(1 << 17);
  const std::size_t retained = live() - before;
  // Heap part of the estimate (sizeof(m) lives on the stack here).
  const std::size_t est = m.memory_bytes() - sizeof(m);
  // One-byte stamps: the floor is one byte per vertex...
  EXPECT_GE(est, (std::size_t{1} << 17) * sizeof(std::uint8_t));
  EXPECT_LE(est, retained);
  EXPECT_LE(retained, 2 * est + kSlack);
  // ...and so is the ceiling, so a wider stamp cannot come back unseen:
  // every splitter lane and lane workspace holds n-sized markers.
  EXPECT_LE(retained, (std::size_t{1} << 17) + kSlack);
}

TEST(MemoryEstimate, GraphEstimateNeverExceedsLiveHeap) {
  MMD_REQUIRE_COUNTER();
  const std::size_t before = live();
  const Graph g = make_grid_cube(2, 48, {});
  const std::size_t retained = live() - before;
  const std::size_t est = g.memory_bytes() - sizeof(g);
  // CSR arrays alone put a floor under the estimate (PR 9 compact layout:
  // u32 offsets + one packed 8-byte (to, id) pair per half-edge)...
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto m = static_cast<std::size_t>(g.num_edges());
  EXPECT_GE(est, n * sizeof(std::uint32_t) +
                     2 * m * (sizeof(Vertex) + sizeof(EdgeId)));
  // ...and the estimate is billed against real retained allocations.
  EXPECT_LE(est, retained);
  EXPECT_LE(retained, 2 * est + kSlack);
}

// PR 9 acceptance pin: edge storage of the compact CSR is >= 35% below the
// pre-PR9 layout (int64 xadj; adj_ + eid_ at 8 B/half-edge; a fused
// 16-byte HalfEdge copy per half-edge; etail_/ehead_ + ecost_ per edge =
// 64 B/edge), measured against the real estimate of a built graph.
TEST(MemoryEstimate, CompactCsrCutsBytesPerEdge) {
  const Graph g = make_grid_cube(2, 64, {});
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto m = static_cast<std::size_t>(g.num_edges());
  const std::size_t est = g.memory_bytes() - sizeof(g);
  // Strip the per-vertex attributes (vweight, wdeg, coords) shared by both
  // layouts; what remains is offsets + adjacency + endpoints + costs.
  const std::size_t vert_bytes =
      2 * n * sizeof(double) +
      n * static_cast<std::size_t>(g.dim()) * sizeof(std::int32_t);
  ASSERT_GT(est, vert_bytes);
  const std::size_t edge_bytes = est - vert_bytes;
  const std::size_t new_model =
      (n + 1) * sizeof(std::uint32_t) + 2 * m * 8 + m * 8 + m * 8;
  EXPECT_GE(edge_bytes, new_model);
  EXPECT_LE(edge_bytes, new_model + kSlack);
  const std::size_t old_model = (n + 1) * sizeof(std::int64_t) + 64 * m;
  EXPECT_LE(100 * edge_bytes, 65 * old_model);
}

// The eviction budget must track the heap in both offset widths: a graph
// forced onto 64-bit offsets (the width-switch test hook) is billed like
// its 32-bit twin, just with the wider xadj.
TEST(MemoryEstimate, GraphEstimateTracksHeapInBothWidths) {
  MMD_REQUIRE_COUNTER();
  std::size_t est_by_width[2] = {0, 0};
  for (const bool wide : {false, true}) {
    const std::size_t before = live();
    const Graph g = [&] {
      GraphBuilder b(512);
      for (Vertex v = 0; v < 512; ++v)
        for (Vertex u : {static_cast<Vertex>((v + 1) % 512),
                         static_cast<Vertex>((v * 7 + 3) % 512)})
          if (u != v) b.add_edge(v, u, 1.0);
      b.force_wide_offsets_for_testing(wide);
      return b.build();
    }();
    const std::size_t retained = live() - before;
    ASSERT_EQ(g.wide_offsets(), wide);
    const std::size_t est = g.memory_bytes() - sizeof(g);
    EXPECT_LE(est, retained);
    EXPECT_LE(retained, 2 * est + kSlack);
    est_by_width[wide ? 1 : 0] = est;
    // Leak the comparison values only; g frees here and live() returns to
    // the width-loop baseline.
  }
  // Same graph, wider offsets: the estimate must charge the difference.
  EXPECT_GT(est_by_width[1], est_by_width[0]);
}

// PR 9 acceptance pin: the streaming build's transient footprint is >= 40%
// below the pre-PR9 pipeline, which at its fused-half_ fill stage held —
// beyond the raw edge list it never released — a coalesced `uniq` copy
// (16 B/edge), etail/ehead/ecost (24 B/edge), adj/eid (16 B/edge), the
// 16-byte-per-half fused array (32 B/edge), and deg/xadj/cursor
// (~24 B/vertex): 88m + 24n bytes over the entry heap.
TEST(MemoryEstimate, StreamingBuildPeakCutBelowOldPipeline) {
  MMD_REQUIRE_COUNTER();
  constexpr int side = 128;
  GraphBuilder b(side * side);
  const auto id = [&](int x, int y) {
    return static_cast<Vertex>(x * side + y);
  };
  for (int x = 0; x < side; ++x)
    for (int y = 0; y < side; ++y) {
      if (x + 1 < side) b.add_edge(id(x, y), id(x + 1, y), 1.0);
      if (y + 1 < side) b.add_edge(id(x, y), id(x, y + 1), 1.0);
    }
  const std::size_t n = static_cast<std::size_t>(side) * side;
  const std::size_t m = 2 * static_cast<std::size_t>(side) * (side - 1);
  reset_peak();
  const std::size_t entry = live();
  const Graph g = b.build();
  ASSERT_EQ(static_cast<std::size_t>(g.num_edges()), m);
  const std::size_t peak_delta = peak() - entry;
  const std::size_t old_model = 88 * m + 24 * n;
  EXPECT_LE(100 * peak_delta, 60 * old_model);
}

TEST(MemoryEstimate, WorkspaceEstimateTracksRefinePools) {
  MMD_REQUIRE_COUNTER();
  DecomposeWorkspace ws;
  const std::size_t base_est = ws.memory_bytes();
  const std::size_t before = live();

  // Grow exactly the pools the incremental repartition path uses: the
  // dirty-region seed, the per-class delta-touched flags, and the
  // worklist queue.
  ws.refine.seed.reserve(4096);
  ws.refine.class_dirty.reserve(512);
  ws.refine.queue.reserve(2048);

  const std::size_t grown = live() - before;
  const std::size_t est_delta = ws.memory_bytes() - base_est;
  EXPECT_GE(est_delta,
            4096 * sizeof(Vertex) + 512 * sizeof(std::uint8_t) +
                2048 * sizeof(Vertex));
  EXPECT_LE(est_delta, grown);
  EXPECT_LE(grown, 2 * est_delta + kSlack);
}

TEST(MemoryEstimate, WorkspaceEstimateCoversLanePools) {
  DecomposeWorkspace ws;
  const std::size_t base_est = ws.memory_bytes();
  ws.lane_workspace(3);  // materializes lanes 0..3
  // Each lane workspace is billed recursively (at least its own footprint).
  EXPECT_GE(ws.memory_bytes() - base_est, 4 * sizeof(DecomposeWorkspace));
}

TEST(MemoryEstimate, ContextEstimateGrowsWithRepartitionState) {
  const Graph g = make_grid_cube(2, 24, {});
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const std::vector<double> w(n, 1.0);
  DecomposeOptions opt;
  opt.k = 4;

  DecomposeContext ctx(g, opt);
  const std::size_t unbound = ctx.memory_estimate_bytes();

  // Binding weights retains an n-vector of doubles.
  ctx.set_weights(w);
  const std::size_t bound = ctx.memory_estimate_bytes();
  EXPECT_GE(bound, unbound + n * sizeof(double));

  // The first solve of the chain adopts the prior coloring and per-class
  // weights — warm state the service cache must pay for.
  const DecomposeResult first = ctx.repartition();
  ASSERT_FALSE(first.incremental);
  const std::size_t warm = ctx.memory_estimate_bytes();
  EXPECT_GE(warm, bound + n * sizeof(std::int32_t));

  // Queued deltas (pending dirty vertices) are billed too: estimates are
  // read at checkin, between requests, when a batch may be half-adopted.
  std::vector<WeightDelta> batch;
  for (std::size_t v = 0; v < n / 4; ++v)
    batch.push_back({static_cast<Vertex>(v), 1.05});
  ctx.update_weights(batch);
  EXPECT_GE(ctx.memory_estimate_bytes(), warm);

  // The chain keeps serving after the accounting reads.
  const DecomposeResult next = ctx.repartition();
  EXPECT_EQ(next.coloring.k, opt.k);
}

}  // namespace
}  // namespace mmd
