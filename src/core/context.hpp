// DecomposeContext: the warm-path entry point for repeated decompositions
// of one graph.
//
// The convenience overload decompose(g, w, options) must build a splitter
// (and, for PrefixSplitter, its OrderingCache of global sweep orders —
// O(n log n) work) on every call; ROADMAP measured that rebuild as the
// whole cold-vs-warm gap.  A DecomposeContext hoists everything that
// depends only on the graph out of the call: it owns the splitter, the
// pooled DecomposeWorkspace arenas, and (when options.num_threads > 1) a
// persistent ThreadPool wired into the splitter, so that after the first
// call every subsequent decompose on the same graph runs with zero
// splitter/OrderingCache rebuilds and no steady-state allocation.
//
// The context is also the ownership story for parallelism: the pool is
// created once, parked between calls, and borrowed by the splitter tree
// via ISplitter::set_thread_pool; results are bit-identical to
// num_threads == 1 by the splitter contract.
//
// Thread safety: a context is an exclusive resource — one decompose call
// at a time (the pool parallelizes *inside* a call, not across calls).
// Use one context per thread for concurrent callers, or serialize access
// the way PartitionService does (rounds never overlap, and a round runs
// each graph's requests back to back in one group).  Every public call
// enters the ExclusiveUse guard below, so a violated contract reports
// ConcurrentContextEntry diagnostics (and throws InvariantViolation in
// Debug builds) instead of silently corrupting the pooled workspace state.
#pragma once

#include <atomic>
#include <memory>
#include <thread>

#include "core/decompose.hpp"
#include "util/thread_pool.hpp"

namespace mmd {

/// Shared-use detector for exclusive resources (the contexts).  A context
/// is one-call-at-a-time by contract; violating that silently corrupts
/// pooled workspace state.  This guard makes the misuse fail loudly
/// instead: every public context call enters it on the way in, and an
/// entry from a second thread while a call is running reports
/// DiagEvent::ConcurrentContextEntry on the caller's diagnostics sink and
/// (in Debug builds, where MMD_ASSERT is live) throws InvariantViolation
/// at the offending entry — the original call keeps its claim and stays
/// valid.  Re-entry from the *owning* thread is legal: it is still
/// exclusive use (a caller-held claim_use() around a batch of calls, or
/// FastContext driving its inner DecomposeContext).
///
/// The check is two relaxed atomics per call — cheap enough to stay
/// compiled in for all build types; only the throw is Debug-gated.
class ExclusiveUse {
 public:
  /// RAII claim; see claim_use() on the contexts.
  class Claim {
   public:
    Claim(ExclusiveUse& use, DecomposeDiagnostics* diag, const char* what)
        : use_(&use) {
      use.enter(diag, what);
    }
    ~Claim() {
      if (use_ != nullptr) use_->exit();
    }
    Claim(Claim&& other) noexcept : use_(other.use_) { other.use_ = nullptr; }
    Claim(const Claim&) = delete;
    Claim& operator=(const Claim&) = delete;
    Claim& operator=(Claim&&) = delete;

   private:
    ExclusiveUse* use_;
  };

  void enter(DecomposeDiagnostics* diag, const char* what) {
    const std::thread::id me = std::this_thread::get_id();
    if (depth_.fetch_add(1, std::memory_order_acq_rel) == 0) {
      owner_.store(me, std::memory_order_relaxed);
    } else if (owner_.load(std::memory_order_relaxed) != me) {
      diag_report(diag, DiagEvent::ConcurrentContextEntry, what);
#ifndef NDEBUG
      // Withdraw the offending claim before failing so the context (and
      // the call legitimately holding it) remain healthy.
      depth_.fetch_sub(1, std::memory_order_release);
      MMD_ASSERT(false,
                 "context entered concurrently: contexts are exclusive "
                 "resources (one call at a time; use one context per "
                 "concurrent caller)");
#endif
    }
  }
  void exit() noexcept { depth_.fetch_sub(1, std::memory_order_release); }

 private:
  std::atomic<int> depth_{0};
  std::atomic<std::thread::id> owner_{};
};

/// The most threads a pool owner accepts (DecomposeOptions::num_threads,
/// PartitionServiceOptions::num_workers); a larger request is refused with
/// std::invalid_argument before any pool is built.  More lanes than this
/// only park: multi_split's lane tree has at most 64 leaves, a split fans
/// out at most dim + 2 candidate orders, and strictify runs min(threads,
/// k) tasks.
inline constexpr int kMaxThreads = 256;

/// Throws std::invalid_argument naming option `name` unless `count` lies
/// in [1, kMaxThreads].
void require_thread_count(int count, const char* name);

/// The pool policy both pool owners share (DecomposeContext, which also
/// owns FastContext's pool, and PartitionService): an owned ThreadPool
/// sized by a requested thread count, rebuilt only when that count
/// changes.  A construction that throws (thread or memory exhaustion)
/// leaves no pool, which degrades the owner to the serial path: results
/// are identical by the splitter contract, only slower.  The failure is
/// counted, reported once as PoolConstructFailed, and not retried until
/// the requested count changes, because the failed count is remembered
/// like a built one.
class OwnedPool {
 public:
  /// True when `num_threads` differs from the count of the last rebuild
  /// (1 before the first), the only change that rebuilds the pool.
  bool stale(int num_threads) const { return num_threads != threads_; }

  /// Drop the pool and build one of `num_threads` lanes (none when
  /// `num_threads` is 1 or less), counting the build in `builds` or the
  /// failure in `failures`.  Owners that lent the old pool out must drop
  /// the borrowers first.
  void rebuild(int num_threads, DecomposeDiagnostics* diag, int& builds,
               int& failures);

  /// The pool, or nullptr while there is none.
  ThreadPool* get() const { return pool_.get(); }

 private:
  std::unique_ptr<ThreadPool> pool_;
  int threads_ = 1;
};

/// The weight-drift chain behind DecomposeContext::repartition: the bound
/// weight vector, the pending dirty set, and the cached prior solution
/// with its baseline, which only the chain reads.  A repartition step
/// updates the weights, tries the chain's seeded attempt, otherwise runs
/// the context's full solve (escalated, with its migration from the
/// prior, when one is cached), and adopts the answer.  The contracts:
///
///   * update_weights validates every delta before mutating anything, and
///     deltas carry absolute weights, so a failed or repeated batch leaves
///     the weights as one clean application would;
///   * a rebind (set_weights after a solve) is one big delta batch: the
///     changed vertices join the pending dirty set;
///   * only adopt() clears the dirty set, and it stages its one allocation
///     before committing, so a solve that throws anywhere before adoption
///     leaves the chain able to serve the same batch again, bit for bit.
class RepartitionChain {
 public:
  explicit RepartitionChain(Vertex num_vertices) : n_(num_vertices) {}

  /// See DecomposeContext::set_weights.
  void set_weights(std::span<const double> w);
  bool has_weights() const { return bound_; }
  std::span<const double> weights() const { return weights_; }
  /// See DecomposeContext::update_weights.
  std::size_t update_weights(std::span<const WeightDelta> deltas);

  /// The seeded attempt: try_incremental_repartition of the cached prior
  /// over the pending dirty set under the bound weights, or std::nullopt
  /// when no prior is cached or the escalation certificate fires.
  /// \throws std::invalid_argument on an invalid k or p (see
  ///         try_incremental_repartition), before anything is adopted
  std::optional<DecomposeResult> try_incremental(
      const Graph& g, const DecomposeOptions& options,
      DecomposeWorkspace* ws) const;

  /// Vertices a full solve's `coloring` moves away from the cached prior,
  /// or -1 while none is cached (the chain's first, cold solve).
  long migration_from_prior(const Coloring& coloring) const;

  /// Adopt a solve's answer as the new prior and clear the dirty set.  A
  /// full solve (`incremental` false) also re-baselines the boundary-growth
  /// envelope.  The coloring copy is staged before anything is committed,
  /// so an allocation failure here leaves the previous prior in place.
  void adopt(const Coloring& coloring, double max_boundary, bool incremental);

  /// Heap bytes retained by the chain (weights, prior, dirty set).
  std::size_t memory_bytes() const;

 private:
  Vertex n_;
  std::vector<double> weights_;
  bool bound_ = false;
  std::vector<Vertex> dirty_;  ///< cleared only by adopt()
  Coloring prior_coloring_;
  bool prior_valid_ = false;
  double prior_max_boundary_ = 0.0;
  double baseline_max_boundary_ = 0.0;  ///< at the last full solve
};

/// Instrumentation counters of a context (see also
/// ordering_cache_rebind_count() for the cache-level view).  The warm-path
/// regression test pins splitter_builds == 1 across repeated calls.
struct DecomposeContextStats {
  long decompose_calls = 0;  ///< decompose + decompose_multi calls served
  int splitter_builds = 0;   ///< internal splitter (re)constructions
  int pool_builds = 0;       ///< thread-pool (re)constructions
  /// Pool constructions that threw (see OwnedPool); each one degraded the
  /// context to the serial path (results identical, slower) and reported
  /// PoolConstructFailed on options.diagnostics.
  int pool_construct_failures = 0;
  long repartition_calls = 0;    ///< repartition() calls served
  long incremental_served = 0;   ///< of those, served by the seeded path
  long escalations = 0;          ///< of those, escalated to a full solve
};

/// Reusable decomposition state bound to one graph.
///
/// ```
/// mmd::DecomposeOptions opt;
/// opt.k = 16;
/// opt.num_threads = 4;                    // 1 = serial (bit-identical)
/// mmd::DecomposeContext ctx(graph, opt);
/// auto a = ctx.decompose(weights);        // builds splitter + pool once
/// auto b = ctx.decompose(other_weights);  // zero rebuilds, zero allocs
/// ```
///
/// Per-call options become the bound options, except their `exec` and
/// `diagnostics`: a call that passes options runs with that deadline,
/// token and sink for that call only, and a call without options runs
/// with the constructor's.  When a call returns or throws, the splitter
/// carries the constructor's again.
class DecomposeContext {
 public:
  /// Bind to `g` (borrowed; must outlive the context) and build the
  /// splitter/pool for `options` eagerly.  `external_ws` (optional,
  /// borrowed) substitutes the context's own workspace — the convenience
  /// overloads use this to honor their caller-supplied workspace.
  /// `external_pool` (optional, borrowed, must outlive the context)
  /// substitutes the context's own pool: the context then never builds
  /// one regardless of options.num_threads and wires the external pool
  /// into its splitter instead — FastContext's coarse context borrows the
  /// fine context's pool this way.
  /// \throws std::invalid_argument when options.num_threads is outside
  ///         [1, kMaxThreads] or options.fork_depth is negative, before
  ///         any pool is built
  explicit DecomposeContext(const Graph& g, const DecomposeOptions& options = {},
                            DecomposeWorkspace* external_ws = nullptr,
                            ThreadPool* external_pool = nullptr);
  ~DecomposeContext();

  DecomposeContext(const DecomposeContext&) = delete;
  DecomposeContext& operator=(const DecomposeContext&) = delete;

  /// Theorem 4 decomposition with the bound options (see decompose.hpp).
  DecomposeResult decompose(std::span<const double> w);

  /// Same with per-call options, which the context binds (their exec and
  /// diagnostics for this call only); the splitter and pool are rebuilt
  /// only if `options` actually changes the splitter kind or the thread
  /// count, so sweeping k, weights, tolerances, or the sweep mode stays on
  /// the warm path.
  DecomposeResult decompose(std::span<const double> w,
                            const DecomposeOptions& options);

  /// Bind (copy) the base weight vector the repartition chain drifts from.
  /// Must be called once before update_weights()/repartition().  Rebinding
  /// later is legal: vertices whose weight changed are appended to the
  /// pending dirty set, so the next repartition treats the rebind as one
  /// big delta batch.
  void set_weights(std::span<const double> w);
  bool has_weights() const { return chain_.has_weights(); }
  /// The current (post-delta) weight vector (valid after set_weights).
  std::span<const double> weights() const { return chain_.weights(); }

  /// Apply absolute weight deltas to the bound weight vector in place,
  /// without rebuilding the splitter, pool, or hierarchy.  Validates every
  /// delta (vertex in range, weight finite and >= 0) before mutating
  /// anything, and the mutation loop itself never throws — so a failed
  /// call leaves the context exactly as it was, and because deltas carry
  /// absolute weights, re-applying the same batch after a mid-call fault
  /// is a no-op on the weights (the retryability contract the fault suite
  /// pins).  The touched vertices accumulate in the pending dirty set,
  /// which only a *successful* repartition() clears.  Returns the number
  /// of deltas applied.
  std::size_t update_weights(std::span<const WeightDelta> deltas);

  /// Solve under the bound weights after applying `deltas`, seeding from
  /// the previous repartition's solution when one is cached: the first
  /// call is a full solve; later calls run the chain's seeded attempt and
  /// escalate to a full solve when the certificate fires (see
  /// try_incremental_repartition).  On success the result is adopted as
  /// the new prior and the pending dirty set is cleared; on a thrown fault
  /// (deadline/cancel/alloc, or an invalid k or p) nothing is adopted,
  /// the dirty set keeps accumulating, and an identical retry returns a
  /// bit-identical result.
  DecomposeResult repartition(std::span<const WeightDelta> deltas = {});

  /// Same with per-call options (reconciled like decompose(w, options)).
  DecomposeResult repartition(std::span<const WeightDelta> deltas,
                              const DecomposeOptions& options);

  /// Multi-balanced variant (Conclusion; see decompose_multi).
  MultiDecomposeResult decompose_multi(
      std::span<const double> psi, std::span<const MeasureRef> extra_measures);
  MultiDecomposeResult decompose_multi(std::span<const double> psi,
                                       std::span<const MeasureRef> extra_measures,
                                       const DecomposeOptions& options);

  const Graph& graph() const { return *g_; }
  /// The bound options: the last call's, with the constructor's exec and
  /// diagnostics.
  const DecomposeOptions& options() const { return options_; }
  /// The owned splitter (stable across calls; scratch and OrderingCache
  /// stay warm inside it).
  ISplitter& splitter() { return *splitter_; }
  /// The workspace every call leases its arenas from.
  DecomposeWorkspace& workspace() { return *ws_; }
  /// The pool the splitter runs on: the borrowed external pool if one was
  /// supplied, else the owned pool (nullptr while num_threads <= 1 or
  /// after a failed build; see OwnedPool).
  ThreadPool* thread_pool() {
    return external_pool_ != nullptr ? external_pool_ : pool_.get();
  }
  const DecomposeContextStats& stats() const { return stats_; }

  /// Estimated heap footprint of the warm state this context keeps alive
  /// between calls: the owned workspace pools (exact, by capacity) plus
  /// the splitter with its OrderingCache and per-lane scratch (a
  /// documented per-vertex estimate — the splitter internals are not
  /// instrumented).  Excludes the borrowed graph and any external
  /// workspace/pool.  PartitionService charges cache entries with this.
  std::size_t memory_estimate_bytes() const;

  /// Claim exclusive use for a multi-call sequence.  Claims nest on the
  /// owning thread; an entry from another thread while any claim is live
  /// is the misuse ExclusiveUse reports.  Every public call takes a claim
  /// internally, so single calls need none.
  ExclusiveUse::Claim claim_use() {
    return ExclusiveUse::Claim(use_, options_.diagnostics,
                               "DecomposeContext entered concurrently");
  }

 private:
  // FastContext's fine context is a DecomposeContext: FastContext
  // reconciles it up front and borrows its splitter for the closing pass.
  friend class FastContext;

  /// Bind `options` (keeping the constructor's exec and diagnostics) and
  /// make the splitter/pool match them, rebuilding only on actual change.
  void reconcile(const DecomposeOptions& options);

  /// Re-stamps the bound options onto the splitter when a call ends, also
  /// when it throws: a call's exec and sink must not outlive the call.
  struct Restamp {
    DecomposeContext& ctx;
    ~Restamp() { stamp_splitter(*ctx.splitter_, ctx.options_); }
  };

  ExclusiveUse use_;
  const Graph* g_;
  DecomposeOptions options_;
  std::unique_ptr<ISplitter> splitter_;
  OwnedPool pool_;
  ThreadPool* external_pool_ = nullptr;
  DecomposeWorkspace own_ws_;
  DecomposeWorkspace* ws_;
  DecomposeContextStats stats_;
  RepartitionChain chain_;
};

}  // namespace mmd
