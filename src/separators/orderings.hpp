// Vertex orderings that seed the prefix splitter.  A prefix of any
// ordering yields the exact ||w||_inf/2 splitting window (better-of-two-
// prefixes rule); the ordering determines the boundary *cost*:
//   * BFS / double-ended BFS orders approximate geodesic sweeps,
//   * lexicographic and per-axis coordinate orders sweep hyperplanes
//     (optimal shape for grids, Lemma 22's monotone prefixes),
//   * Morton (Z-curve) order gives cache-oblivious locality for general
//     geometric instances.
#pragma once

#include <atomic>
#include <mutex>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/subgraph.hpp"

namespace mmd {

/// BFS order from a pseudo-peripheral source of G[W] (double sweep).
std::vector<Vertex> pseudo_peripheral_bfs_order(const Graph& g,
                                                std::span<const Vertex> w_list,
                                                const Membership& in_w);

/// Sort W by coordinates lexicographically (requires coords).
std::vector<Vertex> lexicographic_order(const Graph& g,
                                        std::span<const Vertex> w_list);

/// Sort W by a single coordinate axis (ties by the remaining axes).
std::vector<Vertex> axis_order(const Graph& g, std::span<const Vertex> w_list,
                               int axis);

/// Sort W along the Morton (Z-) curve (requires coords).
std::vector<Vertex> morton_order(const Graph& g, std::span<const Vertex> w_list);

/// Reusable BFS scratch for pseudo_peripheral_bfs_order_into: a tag array
/// doubling as subset-membership and visited marker, plus the FIFO.
struct BfsScratch {
  std::vector<std::uint32_t> state;
  std::uint32_t tag = 0;
  std::vector<Vertex> queue;
};

/// pseudo_peripheral_bfs_order into a caller buffer, reusing scratch (its
/// tag array doubles as the subset marker); no allocation in steady state.
void pseudo_peripheral_bfs_order_into(const Graph& g,
                                      std::span<const Vertex> w_list,
                                      BfsScratch& scratch,
                                      std::vector<Vertex>& out);

/// Radix-sort scratch of OrderingCache's subset queries, owned by the
/// caller: lanes share one cache, so concurrent queries (the thread pool
/// evaluating several sweep orders of one split at once) each pass their
/// own.
struct OrderingScratch {
  // 64-bit interleaved Morton keys (subset_morton_order, 2-D and 3-D).
  std::vector<std::uint64_t> key, buf;
  // 32-bit rank keys (subset_order): ranks are unique permutation ranks
  // < n < 2^31, so 64-bit keys would double the scratch traffic for
  // nothing.
  std::vector<std::uint32_t> key32, buf32;
  // Vertex payload riding along either key array.
  std::vector<Vertex> vbuf;
};

/// Process-wide count of OrderingCache rebinds (instrumentation: a warm
/// DecomposeContext must not rebind after its first decompose call, and
/// the regression test in test_context_threads.cpp pins that down).
long ordering_cache_rebind_count();

/// Per-graph cache of the axis-aligned sweep orders (lexicographic plus
/// one per non-leading axis).  The splitters re-derive subset orders from
/// the cached global ranks in near-linear integer-key time instead of
/// re-running the coordinate comparators on every split — the dominant
/// cost of the seed pipeline.  The Morton order is *not* cached: its
/// quality depends on anchoring the Z-curve at the subset's own bounding
/// box, so subset_morton_order computes it per subset.  In two and three
/// dimensions it builds exact interleaved 64-bit keys and radix-sorts them
/// (the LSD radix subset_order runs on cached ranks); only 3-D boxes
/// spanning 2^21 or more on some axis, and dimensions other than 2 and 3,
/// run morton_order's comparator.
///
/// Thread safety: one cache may be shared by several splitter lanes
/// running concurrent splits on the *same* graph (ISplitter::make_lane).
/// bind() is fully serialized on an internal mutex — an uncontended lock
/// per split is noise next to the per-split work, and it closes every
/// rebind-vs-bind race (including the graph-address-reuse case: uids
/// never recur, see Graph::uid, so the uid compare is authoritative).
/// The subset queries are const and safe to call concurrently once every
/// concurrent caller's bind(g) has returned, as long as each passes a
/// distinct OrderingScratch; rebinding concurrently with queries on
/// another lane is not supported (lanes share one graph by contract).
class OrderingCache {
 public:
  /// Bind to g, computing the global orders once; no-op when already bound
  /// to this graph.  Without coordinates the cache is empty.
  void bind(const Graph& g) {
    std::lock_guard<std::mutex> lock(bind_mu_);
    if (g_.load(std::memory_order_relaxed) == &g && uid_ == g.uid()) return;
    if (g_.load(std::memory_order_relaxed) != nullptr && uid_ == g.uid()) {
      g_.store(&g, std::memory_order_release);  // same immutable content;
      return;                                   // the old instance may be gone
    }
    rebind(g);
  }

  /// Number of cached orders (0 without coordinates, dim() with).
  int num_orders() const { return num_orders_; }

  /// Restriction of cached order `idx` to w_list, into `out` (overwritten).
  /// When `in_w` is non-null it must represent exactly w_list; large
  /// subsets are then gathered by one scan of the cached global order
  /// instead of a sort.  `scratch` holds the radix buffers; concurrent
  /// callers pass distinct ones.
  void subset_order(int idx, std::span<const Vertex> w_list,
                    const Membership* in_w, std::vector<Vertex>& out,
                    OrderingScratch& scratch) const;

  /// Morton (Z-curve) order of w_list anchored at its own bounding box —
  /// the same curve as morton_order(g, w_list), computed with interleaved
  /// keys + radix in 2-D and in 3-D (21 bits per axis); wider 3-D boxes
  /// and other dimensions call morton_order.  Vertices with identical
  /// coordinates keep their w_list order in 2-D (the radix is stable) and
  /// go by vertex id in 3-D, so the 3-D result equals
  /// morton_order(g, w_list) exactly.  A warm keyed call allocates
  /// nothing.  `scratch` as in subset_order.
  void subset_morton_order(std::span<const Vertex> w_list,
                           std::vector<Vertex>& out,
                           OrderingScratch& scratch) const;

 private:
  void rebind(const Graph& g);

  // g_ is the publication point: rebind writes every other field first and
  // stores g_ last (release), so the lock-free acquire loads in the subset
  // queries see fully built orders; all writes happen under bind_mu_.
  std::atomic<const Graph*> g_{nullptr};
  std::mutex bind_mu_;  // serializes bind()/rebind()
  std::uint64_t uid_ = 0;
  Vertex n_ = 0;
  int num_orders_ = 0;
  std::vector<Vertex> perm_;        // num_orders blocks of n (sorted order)
  std::vector<std::int32_t> rank_;  // num_orders blocks of n (inverse perm)
};

}  // namespace mmd
