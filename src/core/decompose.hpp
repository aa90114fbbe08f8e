// Theorem 4: the full min-max boundary decomposition pipeline.
//
//   decompose(G, w, k):
//     1. Proposition 7 with Phi(1) = w, Phi(2) = pi: a w-balanced,
//        pi-balanced coloring with max boundary and max splitting cost
//        O(sigma_p (k^{-1/p} ||c||_p + Delta_c)).
//     2. Proposition 11 (shrink-and-conquer): almost strictly balanced,
//        same bounds up to constants.
//     3. Proposition 12 (binpack2): strictly balanced (Definition 1):
//        every class weight within (1 - 1/k) ||w||_inf of ||w||_1 / k.
//
// The splitter is pluggable: GridSplitter for grid graphs (Theorem 19),
// PrefixSplitter for everything else; sigma_p may be supplied, estimated
// empirically, or defaulted from the grid bound.
#pragma once

#include <memory>
#include <optional>

#include "core/measures.hpp"
#include "core/multibalance.hpp"
#include "core/refine.hpp"
#include "core/strictify.hpp"
#include "graph/coloring.hpp"
#include "separators/sweep_eval.hpp"
#include "util/diagnostics.hpp"
#include "util/exec_control.hpp"

namespace mmd {

/// Which splitting-set engine decompose() builds internally.
enum class SplitterKind {
  Auto,    ///< best-of(GridSplitter, PrefixSplitter) on grids, else Prefix
  Prefix,  ///< PrefixSplitter (general graphs; sweep orders + FM)
  Grid,    ///< GridSplitter (Theorem 19; requires coordinates)
};

/// Initial-coloring strategy for the pipeline.
enum class InitMethod {
  Paper,      ///< Propositions 7/11/12 exactly (worst-case guarantee)
  Bisection,  ///< Simon–Teng recursive bisection warm start, then
              ///< strictification + refinement (often cheaper in practice,
              ///< no worst-case max-boundary guarantee of its own)
  Best,       ///< run both, keep the cheaper strictly balanced coloring
};

/// One vertex-weight update: `weight` is the vertex's NEW absolute weight
/// (not an increment), so applying the same delta twice is a no-op — the
/// idempotence the retry-after-fault contract of the repartition path
/// relies on (see DecomposeContext::update_weights).
struct WeightDelta {
  Vertex v = 0;
  double weight = 0.0;
};

/// A borrowed previous solution, the seed of try_incremental_repartition.
/// Everything here is borrowed and must outlive the call;
/// DecomposeContext's repartition chain assembles one from its cached
/// state (RepartitionChain) — standalone callers can too.  It carries no
/// per-class sums: the balance certificate recomputes them under the
/// current weights.
struct PriorSolution {
  const Coloring* coloring = nullptr;   ///< previous solution (required)
  double max_boundary = 0.0;  ///< ||d chi^-1||_inf of `coloring`
  /// max_boundary recorded at the last FULL solve: the reference the
  /// boundary-growth escalation envelope is measured against (incremental
  /// refinement only ever lowers the boundary, so drift accumulates
  /// relative to this, not to the previous incremental step).
  double baseline_max_boundary = 0.0;
  /// Vertices whose weight changed since `coloring` was produced.  Empty
  /// means "nothing changed" (NOT "unknown"): the seeded refinement then
  /// visits nothing and the call is a cheap no-op returning the prior.
  std::span<const Vertex> dirty;
};

/// Escalation certificate of the incremental repartition path: when any
/// threshold is exceeded try_incremental_repartition abandons the prior and
/// the caller falls back to a full solve (a context's repartition step
/// flags it DecomposeResult::escalated).  The prior must also still fit
/// the Definition 1 window under the new weights, so a served incremental
/// result is always strictly balanced.
///
/// Escalate when the incremental max boundary exceeds this multiple of
/// PriorSolution::baseline_max_boundary.  Defensive envelope: boundary
/// cost is weight-independent and refinement is monotone, so along an
/// incremental chain this rarely fires — balance drift is the operative
/// trigger.
inline constexpr double kMaxBoundaryGrowth = 1.5;
/// Escalate when the dirty region (vertices in delta-touched classes plus
/// their boundary) exceeds this fraction of the graph — past that the
/// seeded refinement approaches a full sweep anyway.
inline constexpr double kMaxDirtyFraction = 0.75;

/// Tuning knobs of the Theorem 4 pipeline.  The defaults reproduce the
/// paper's guarantees; everything else is practical engineering
/// (docs/API.md walks through each knob with examples).
struct DecomposeOptions {
  int k = 2;       ///< number of color classes (>= 1)
  double p = 2.0;  ///< cost-norm exponent of the bound (> 1)
  /// sigma_p used to scale the splitting cost measure pi.  <= 0 means:
  /// grid bound for grid graphs, 2.0 otherwise (only affects the relative
  /// weighting of pi against other measures and the reported bounds, not
  /// correctness).
  double sigma_p = 0.0;
  SplitterKind splitter = SplitterKind::Auto;
  InitMethod init = InitMethod::Paper;
  /// Execution lanes for intra-split parallelism (PrefixSplitter candidate
  /// orders, CompositeSplitter children).  1 (default) = serial; > 1 makes
  /// DecomposeContext (and the convenience overloads, which route through
  /// a transient context) own a persistent ThreadPool wired into the
  /// splitter.  Results are bit-identical for every value: candidates are
  /// index-addressed and reduced in index order (see ISplitter contract).
  /// The one option the overloads taking an external ISplitter& ignore —
  /// the pool is its owner's job: wire one into the splitter yourself via
  /// ISplitter::set_thread_pool.
  int num_threads = 1;
  /// Depth of multi_split's fork-join lane tree: the top fork_depth levels
  /// of the Lemma 8 recursion run as parallel batches over 2^fork_depth
  /// splitter lanes.  0 (default) derives the depth from the pool — the
  /// smallest tree with at least num_threads leaves, so 4/8 lanes on 4/8
  /// threads; explicit values are clamped to the recursion height and to
  /// a hard depth cap of 6 (64 lanes).  Only effective with a pool;
  /// results are bit-identical for every value (index-addressed lanes,
  /// index-order reduction).  Stamped onto the splitter per call (see
  /// stamp_splitter).
  int fork_depth = 0;
  /// Prefix-choice rule stamped onto the splitter per call (see
  /// stamp_splitter): the seed's better-of-two rule (default,
  /// bit-identical to the seed path) or the paper-faithful WindowMin.
  SweepMode sweep_mode = SweepMode::BetterOfTwo;

  // Ablation switches (benches E5/E7 study their effect).
  bool balance_boundary = true;  ///< Prop 7 phase 2 (Psi rebalance)
  bool use_strictify = true;     ///< Prop 11 (else jump to binpack2)
  bool use_binpack2 = true;      ///< Prop 12 (else stop almost-strict)
  bool use_refinement = true;    ///< min-max hill climbing post-pass
                                 ///< (extension; never hurts the bounds)

  RebalanceOptions rebalance;   ///< phase 1 (Prop 7) tuning
  StrictifyParams strictify;    ///< phase 2 (Prop 11) tuning
  MinmaxRefineOptions refine;   ///< phase 4 (refinement) tuning

  /// Execution control: a steady-clock deadline and/or a caller-held
  /// cancellation token, checked at cheap deterministic checkpoints (call
  /// entry, every split() entry, refinement round boundaries, multi_split
  /// batch edges) and surfaced as DeadlineExceeded/Cancelled.  Default:
  /// unlimited.  The checks never perturb the computation — a call that
  /// finishes before its deadline is bit-identical to an unlimited one.
  /// `exec.cancel`, when set, is borrowed and must outlive the call.  A
  /// context applies the exec of per-call options to that call only; its
  /// calls without options run with the constructor's.  See
  /// util/exec_control.hpp and docs/ARCHITECTURE.md ("Error model &
  /// execution control").
  ExecControl exec;
  /// Borrowed diagnostics sink (counters + optional callback) for
  /// conditions the library would otherwise have to log: laneless
  /// fallback, pool construction failure, degraded fast-mode results.
  /// nullptr (default) counts nowhere; the library never writes to
  /// stderr.  Must outlive every call using these options.  Like `exec`,
  /// a context applies the sink of per-call options to that call only;
  /// its calls without options, and its concurrent-entry reports, use
  /// the constructor's.
  DecomposeDiagnostics* diagnostics = nullptr;
};

/// Timing and quality snapshot taken after one pipeline phase.
struct PhaseReport {
  double seconds = 0.0;         ///< wall time of the phase
  double max_boundary = 0.0;    ///< ||d chi^-1||_inf after the phase
  double avg_boundary = 0.0;    ///< ||d chi^-1||_1 / k after the phase
  double max_weight_dev = 0.0;  ///< max |class weight - avg|
};

/// Everything decompose() returns: the coloring plus the diagnostics the
/// benches and tests assert on.
struct DecomposeResult {
  Coloring coloring;           ///< strictly balanced k-coloring (Def. 1)
  double sigma_p = 0.0;        ///< value used
  TheoryBound bound;           ///< Theorem 4 bound skeleton
  BalanceReport balance;       ///< final balance w.r.t. w
  double max_boundary = 0.0;   ///< final ||d chi^-1||_inf
  double avg_boundary = 0.0;   ///< final ||d chi^-1||_1 / k
  PhaseReport phase_multibalance, phase_strictify, phase_binpack, phase_refine;
  MinmaxRefineStats refine_stats;  ///< phase 4 move/round counters
  double total_seconds = 0.0;      ///< end-to-end wall time
  /// Vertices whose class differs from the prior a repartition step
  /// started from, or -1 without one (decompose() and a chain's first
  /// step are cold solves, with no migration to measure).
  long migration_cost = -1;
  bool incremental = false;  ///< served by the seeded-refinement fast path
  bool escalated = false;    ///< prior cached but certificate forced full solve
};

/// Decompose with an externally provided splitter (the low-level core).
///
/// \param g        host graph (borrowed)
/// \param w        vertex weights, one per vertex of g
/// \param options  pipeline knobs, all honored except num_threads: this
///                 overload builds no pool of its own (that is
///                 DecomposeContext's job, and the convenience overload
///                 below, decompose_fast, and FastContext all route
///                 through one) — wire a pool into `splitter` yourself via
///                 ISplitter::set_thread_pool and every pool-aware phase
///                 (splitter candidates, composite children, multi_split's
///                 lane tree) picks it up from the splitter
/// \param splitter splitting-set engine, stamped on entry with the
///                 options' per-call state (stamp_splitter); its scratch
///                 stays warm across calls, which is the main reason to
///                 own one
/// \param ws       optional scratch arenas lent to every phase; reusing
///                 one workspace across repeated calls makes the
///                 steady-state hot path allocation-free
/// \return the strictly balanced coloring plus per-phase diagnostics
/// \throws InvariantViolation on arity/parameter violations
DecomposeResult decompose(const Graph& g, std::span<const double> w,
                          const DecomposeOptions& options, ISplitter& splitter,
                          DecomposeWorkspace* ws = nullptr);

/// Decompose with an internally constructed splitter per options.splitter
/// (and a thread pool when options.num_threads > 1).  Routes through a
/// transient DecomposeContext — callers decomposing one graph repeatedly
/// should hold a DecomposeContext (core/context.hpp) to pay the
/// splitter/cache build exactly once.
DecomposeResult decompose(const Graph& g, std::span<const double> w,
                          const DecomposeOptions& options,
                          DecomposeWorkspace* ws = nullptr);

/// The incremental repartition attempt: seeded worklist refinement of
/// `prior` over its dirty region, or std::nullopt when the escalation
/// certificate fires (prior structurally unusable, no longer within the
/// balance headroom under `w`, dirty region too large, or refined boundary
/// outside the growth envelope).  decompose() always solves cold;
/// DecomposeContext::repartition calls this first and falls back to its
/// full solve, and a standalone caller does the same: call this, and call
/// decompose() when it returns std::nullopt.
/// \throws std::invalid_argument on an invalid k or p, a weight arity
///         mismatch, a null prior coloring or a dirty vertex out of range
std::optional<DecomposeResult> try_incremental_repartition(
    const Graph& g, std::span<const double> w, const PriorSolution& prior,
    const DecomposeOptions& options, DecomposeWorkspace* ws = nullptr);

/// Vertices whose class differs between `prior` and `now` (the
/// migration_cost of a repartition step).
long count_migration(const Coloring& prior, const Coloring& now);

/// What decompose_multi returns: the multi-balanced variant of Theorem 4
/// (Conclusion), a k-coloring that is strictly balanced w.r.t. `psi`,
/// weakly balanced w.r.t. every extra measure (max class measure =
/// O(avg + max)), with the same maximum boundary cost bound.
struct MultiDecomposeResult {
  Coloring coloring;                   ///< strictly psi-balanced k-coloring
  BalanceReport psi_balance;           ///< strict, per Definition 1
  std::vector<double> weak_factors;    ///< per extra measure (see
                                       ///< weak_balance_factor)
  double max_boundary = 0.0;           ///< final ||d chi^-1||_inf
  double avg_boundary = 0.0;           ///< final ||d chi^-1||_1 / k
  TheoryBound bound;                   ///< Theorem 4 bound skeleton
  double sigma_p = 0.0;                ///< value used
};

/// The multi-balanced variant: decompose()'s own pipeline with the extra
/// measures carried through Propositions 7 and 11 — balanced weakly in
/// phase 1 alongside `psi` (and pi), and kept light in every part
/// strictify moves.  Every option is honored as decompose() honors it
/// (num_threads only by the overload without a splitter).  With extra
/// measures, an init other than InitMethod::Paper throws
/// std::invalid_argument: the bisection warm start cannot balance them.
/// With none, the coloring equals decompose(g, psi, options)'s for every
/// init.
/// \throws std::invalid_argument on arity mismatches or the rejected
///         options above
MultiDecomposeResult decompose_multi(const Graph& g, std::span<const double> psi,
                                     std::span<const MeasureRef> extra_measures,
                                     const DecomposeOptions& options,
                                     DecomposeWorkspace* ws = nullptr);

/// decompose_multi with an externally provided splitter, stamped on entry
/// like decompose()'s.
MultiDecomposeResult decompose_multi(const Graph& g, std::span<const double> psi,
                                     std::span<const MeasureRef> extra_measures,
                                     const DecomposeOptions& options,
                                     ISplitter& splitter,
                                     DecomposeWorkspace* ws = nullptr);

/// The splitter decompose() would construct for this graph and kind.
std::unique_ptr<ISplitter> make_default_splitter(const Graph& g,
                                                 SplitterKind kind);

/// The one mapping of options onto splitter state: stamps options.exec,
/// options.diagnostics, options.fork_depth and options.sweep_mode onto
/// `splitter` (propagated to its lanes and composite children), the sink
/// before the mode so an unsupported-mode report reaches it.  decompose()
/// and decompose_multi() call it on entry, and the contexts on reconcile
/// and again with their bound options when a call ends; the thread pool
/// stays its owner's job (ISplitter::set_thread_pool).
void stamp_splitter(ISplitter& splitter, const DecomposeOptions& options);

/// Estimated heap footprint of a warm default splitter for `g`: the
/// OrderingCache's global orders plus the lane-private scratch.  A
/// documented per-vertex estimate (the splitter internals are not
/// instrumented); the contexts' memory_estimate_bytes charge it.
std::size_t splitter_estimate_bytes(const Graph& g);

/// Default sigma_p used when options.sigma_p <= 0 (see DecomposeOptions).
double default_sigma_p(const Graph& g, double p);

}  // namespace mmd
