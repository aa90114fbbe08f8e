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
// cached; only the per-level weight sums are refreshed per call.  The
// coarsest level runs through a warm DecomposeContext and the finest-level
// closing pass through a persistent splitter, so after call one a
// FastContext performs zero coarsening, splitter, or OrderingCache
// rebuilds — and one shared ThreadPool (FastOptions::inner.num_threads)
// drives both levels' splitters with bit-identical-to-serial results.
#pragma once

#include "core/context.hpp"
#include "core/decompose.hpp"
#include "core/verify.hpp"

// Feature probe for sources (tools/bench_runner.cpp) that also compile
// against trees predating the warm multilevel path.
#define MMD_HAS_FAST_CONTEXT 1

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
  /// Vertices that changed class vs the cached prior (-1 when the call had
  /// no prior to migrate from).  See DecomposeResult::migration_cost.
  long migration_cost = -1;
  bool incremental = false;  ///< served by the seeded finest-level path
  bool escalated = false;    ///< prior cached but certificate forced full solve
};

/// Instrumentation counters of a FastContext; the warm-path regression
/// test pins every build counter at 1 (or 0) across repeated calls.
struct FastContextStats {
  long fast_calls = 0;        ///< decompose calls served
  int coarsen_builds = 0;     ///< multilevel hierarchy (re)constructions
  int fine_splitter_builds = 0;  ///< finest-level splitter (re)constructions
  int pool_builds = 0;        ///< shared thread-pool (re)constructions
  int pool_construct_failures = 0;  ///< pool builds that threw; degraded to
                                    ///< serial (see OwnedPool)
  long degraded_calls = 0;    ///< decompose calls that returned degraded
  long repartition_calls = 0;   ///< repartition() calls served
  long incremental_served = 0;  ///< of those, served by the seeded path
  long escalations = 0;         ///< of those, escalated to a full solve
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
  /// Bind to `g` (borrowed; must outlive the context).  The hierarchy is
  /// built lazily on the first decompose call (coarsening weight sums need
  /// a weight vector).  `external_ws` (optional, borrowed) substitutes the
  /// context's own workspace, mirroring DecomposeContext.
  explicit FastContext(const Graph& g, const FastOptions& options = {},
                       DecomposeWorkspace* external_ws = nullptr);
  ~FastContext();

  FastContext(const FastContext&) = delete;
  FastContext& operator=(const FastContext&) = delete;

  /// Multilevel decomposition with the bound options.
  FastResult decompose(std::span<const double> w);

  /// Same with per-call options; the hierarchy, splitters, and pool are
  /// rebuilt only if `options` actually invalidates them (coarsening
  /// parameters or seed -> hierarchy; splitter kind -> splitters; thread
  /// count -> pool), so sweeping k, weights, or tolerances stays warm.
  FastResult decompose(std::span<const double> w, const FastOptions& options);

  /// Repartition chain: bind base weights, drift them with absolute
  /// deltas, and solve seeded from the cached prior.  The chain itself is
  /// the RepartitionChain DecomposeContext holds too, so validation,
  /// atomicity and the faulted-retry contract are the same code (see
  /// core/context.hpp).  The incremental path serves at the *finest* level
  /// (the prior is full-resolution; no projection needed), so the cached
  /// hierarchy is only consulted when the escalation certificate forces a
  /// full multilevel solve.  A degraded (deadline-projected) result is
  /// returned but never adopted as the prior, and the dirty set survives
  /// it: the next call resumes from the last verified prior and serves
  /// what the unfaulted call would have.
  void set_weights(std::span<const double> w);
  bool has_weights() const { return chain_.has_weights(); }
  std::span<const double> weights() const { return chain_.weights(); }
  std::size_t update_weights(std::span<const WeightDelta> deltas);
  FastResult repartition(std::span<const WeightDelta> deltas = {});

  const Graph& graph() const { return *g_; }
  const FastOptions& options() const { return options_; }
  /// Warm context serving the coarsest level (bound to `graph()` itself
  /// while no coarsening applies); its stats expose the coarse-level
  /// splitter builds.  The context is built lazily by the first decompose
  /// call (the hierarchy needs a weight vector), so requesting it before
  /// then — or right after a reconcile invalidated it — throws.
  DecomposeContext& coarse_context() {
    MMD_REQUIRE(coarse_ctx_ != nullptr,
                "coarse_context() needs a prior decompose call");
    return *coarse_ctx_;
  }
  const FastContextStats& stats() const { return stats_; }

  /// Estimated heap footprint of the warm state kept between calls: the
  /// cached hierarchy (exact, by capacity), the coarse context's estimate,
  /// the finest-level splitter estimate, and the owned workspace pools.
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
    Graph graph;  ///< its *embedded* vertex weights are a snapshot of the
                  ///< call that built the hierarchy; `weights` below is
                  ///< the authoritative, per-call-refreshed vector
    std::vector<double> weights;
    std::vector<Vertex> parent;  ///< mapping from the next finer level
  };

  /// Make pool/splitters/hierarchy match `options`, rebuilding only what
  /// an actual change invalidates.
  void reconcile(const FastOptions& options);
  /// Build the hierarchy (first call / after invalidation) or refresh the
  /// per-level weight sums for `w`.
  void ensure_levels(std::span<const double> w);
  /// Coarse-level pipeline options: the bound inner options with
  /// refinement forced on and the pool supplied externally.
  DecomposeOptions coarse_options() const;
  ISplitter& fine_splitter();

  ExclusiveUse use_;
  const Graph* g_;
  FastOptions options_;
  std::vector<Level> levels_;
  bool levels_built_ = false;
  // Declaration order doubles as lifetime order: the workspace and pool
  // are borrowed by coarse_ctx_ / fine_splitter_, so they are declared
  // first (destroyed last).
  DecomposeWorkspace own_ws_;
  DecomposeWorkspace* ws_;
  OwnedPool pool_;                            ///< shared by both levels
  std::unique_ptr<DecomposeContext> coarse_ctx_;
  std::unique_ptr<ISplitter> fine_splitter_;  ///< closing binpack2 pass
  FastContextStats stats_;
  RepartitionChain chain_;
};

/// One-shot convenience wrapper: routes through a transient FastContext
/// (one hierarchy + splitter build, torn down on return).  Callers running
/// repeated fast decompositions of one graph should hold a FastContext.
FastResult decompose_fast(const Graph& g, std::span<const double> w,
                          const FastOptions& options,
                          DecomposeWorkspace* ws = nullptr);

}  // namespace mmd
