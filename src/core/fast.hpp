// Fast multilevel mode (practical extension).
//
// The Theorem 4 pipeline is near-linear but its constants add up at large
// n (many splitter invocations per Move/Shrink step).  decompose_fast runs
// the *full* pipeline only on a heavy-edge-coarsened graph, projects the
// coloring back level by level with min-max refinement, and closes the
// strict window on the finest level with binpack2 — so the output still
// carries the exact Definition 1 guarantee (it is re-established at full
// resolution), while the expensive machinery runs on a graph of
// `coarse_target` vertices.  Typical speedup: 5-20x at n ~ 10^5 with a
// small boundary-cost premium (bench E10 quantifies both).
//
// FastContext is the warm path: heavy-edge matching depends only on edge
// costs and the coarsening seed, so the level *structure* (graphs, parent
// maps) is invariant across calls with different vertex weights and is
// cached; only the per-level weight sums are refreshed per call.  A
// FastContext is two warm DecomposeContexts: the fine context, bound to
// the host graph, owns the ThreadPool (FastOptions::inner.num_threads),
// the workspace and the splitter of the finest-level closing pass; a
// coarse context, bound to the coarsest graph, runs the pipeline there on
// the fine context's pool and workspace.  While nothing is coarsened the
// fine context runs the pipeline itself.  After call one a FastContext
// performs zero coarsening, splitter, or OrderingCache rebuilds, and the
// results are bit-identical to serial.
#pragma once

#include "core/context.hpp"
#include "core/decompose.hpp"
#include "core/verify.hpp"

namespace mmd {

struct FastOptions {
  DecomposeOptions inner;        ///< options for the coarse-level pipeline
                                 ///< (inner.num_threads sizes the shared pool)
  int coarse_target = 4096;      ///< stop coarsening below this many vertices
  int max_levels = 24;
  int refine_passes_per_level = 4;
  /// Base RNG seed of the heavy-edge matching (level i uses seed + i).
  /// The default reproduces the historical hardcoded value bit-for-bit.
  std::uint64_t seed = 0xfa57;
};

struct FastResult {
  Coloring coloring;
  BalanceReport balance;
  double max_boundary = 0.0;
  double avg_boundary = 0.0;
  int levels = 0;                ///< coarsening levels used
  double total_seconds = 0.0;
  /// Graceful degradation: when inner.exec's deadline expires *after* the
  /// coarse-level pipeline completed, the call does not throw — it
  /// projects the best complete solution to the finest level (skipping
  /// further refinement and the strict closing pass), sets this flag, and
  /// fills `certificate` so the caller can see exactly which guarantees
  /// the returned coloring still carries.  A deadline hit *during* the
  /// coarse level (no complete solution exists) and a cancellation
  /// (the caller wants out, not best-effort) still throw.
  bool degraded = false;
  /// verify_decomposition certificate; populated only when degraded.
  VerifyReport certificate;
};

/// Instrumentation counters of a FastContext; the warm-path regression
/// test pins every build counter at 1 across repeated calls.  The pool and
/// finest-level splitter builds are the fine context's
/// (fine_context().stats()).
struct FastContextStats {
  long fast_calls = 0;        ///< decompose calls served
  int coarsen_builds = 0;     ///< multilevel hierarchy (re)constructions
  long degraded_calls = 0;    ///< decompose calls that returned degraded
};

/// Reusable fast-multilevel state bound to one graph.
///
/// ```
/// mmd::FastOptions opt;
/// opt.inner.k = 16;
/// opt.inner.num_threads = 4;            // 1 = serial (bit-identical)
/// mmd::FastContext ctx(graph, opt);
/// auto a = ctx.decompose(weights);      // coarsens + builds caches once
/// auto b = ctx.decompose(other_w);      // zero rebuilds, same hierarchy
/// ```
///
/// Thread safety: like DecomposeContext, a FastContext is an exclusive
/// resource — one decompose call at a time; the pool parallelizes inside
/// a call, not across calls.
class FastContext {
 public:
  /// Bind to `g` (borrowed; must outlive the context) and build the fine
  /// context.  The hierarchy is built lazily on the first decompose call
  /// (coarsening weight sums need a weight vector).  `external_ws`
  /// (optional, borrowed) substitutes the fine context's own workspace.
  /// \throws std::invalid_argument when inner.num_threads is outside
  ///         [1, kMaxThreads], before any pool is built
  explicit FastContext(const Graph& g, const FastOptions& options = {},
                       DecomposeWorkspace* external_ws = nullptr);
  ~FastContext();

  FastContext(const FastContext&) = delete;
  FastContext& operator=(const FastContext&) = delete;

  /// Multilevel decomposition with the bound options.
  FastResult decompose(std::span<const double> w);

  /// Same with per-call options, which the context binds except their
  /// inner.exec and inner.diagnostics: that deadline, token and sink apply
  /// to this call only, and calls without options run with the
  /// constructor's (the rule of DecomposeContext).  The hierarchy,
  /// splitters, and pool are rebuilt only if `options` actually
  /// invalidates them (coarsening parameters or seed -> hierarchy;
  /// splitter kind -> splitters; thread count -> pool), so sweeping k,
  /// weights, or tolerances stays warm.
  /// \throws std::invalid_argument when inner.num_threads is outside
  ///         [1, kMaxThreads], before any pool is built
  FastResult decompose(std::span<const double> w, const FastOptions& options);

  const Graph& graph() const { return fine_.graph(); }
  /// The bound options: the last call's, with the constructor's exec and
  /// diagnostics.
  const FastOptions& options() const { return options_; }
  /// The context bound to `graph()` itself.  It owns the thread pool, the
  /// workspace and the splitter of the closing binpack2 pass, and its
  /// stats count their builds.
  DecomposeContext& fine_context() { return fine_; }
  /// The warm context serving the coarsest level: one bound to the
  /// coarsest graph, which borrows the fine context's pool and workspace,
  /// or the fine context itself while no coarsening applies.  The
  /// hierarchy is built lazily by the first decompose call (it needs a
  /// weight vector), so requesting the context before then — or right
  /// after a reconcile invalidated it — throws.
  DecomposeContext& coarse_context();
  const FastContextStats& stats() const { return stats_; }

  /// Estimated heap footprint of the warm state kept between calls: the
  /// cached hierarchy (exact, by capacity) and both contexts' estimates.
  /// Excludes the borrowed host graph.  See
  /// DecomposeContext::memory_estimate_bytes.
  std::size_t memory_estimate_bytes() const;

  /// Claim exclusive use for a multi-call sequence; decompose() claims
  /// internally.  Same contract as DecomposeContext::claim_use.
  ExclusiveUse::Claim claim_use() {
    return ExclusiveUse::Claim(use_, options_.inner.diagnostics,
                               "FastContext entered concurrently");
  }

 private:
  struct Level {
    Graph graph;
    std::vector<double> weights;  ///< summed weights, refreshed per call
    std::vector<Vertex> parent;   ///< mapping from the next finer level
  };

  /// Bind `options` (the fine context keeps the constructor's exec and
  /// diagnostics) and drop what an actual change invalidates.
  void reconcile(const FastOptions& options);
  /// Build the hierarchy (first call / after invalidation) or refresh the
  /// per-level weight sums for `w`, and the coarse context it needs.
  void ensure_levels(std::span<const double> w);

  ExclusiveUse use_;
  FastOptions options_;
  std::vector<Level> levels_;
  bool levels_built_ = false;
  // Declaration order doubles as lifetime order: coarse_ctx_ borrows the
  // coarsest level and the fine context's pool and workspace, so it is
  // declared last (destroyed first).
  DecomposeContext fine_;
  std::unique_ptr<DecomposeContext> coarse_ctx_;  ///< null while no level
  FastContextStats stats_;
};

/// One-shot convenience wrapper: routes through a transient FastContext
/// (one hierarchy + splitter build, torn down on return).  Callers running
/// repeated fast decompositions of one graph should hold a FastContext.
FastResult decompose_fast(const Graph& g, std::span<const double> w,
                          const FastOptions& options,
                          DecomposeWorkspace* ws = nullptr);

}  // namespace mmd
