#include "core/fast.hpp"

#include "core/binpack.hpp"
#include "graph/coarsen.hpp"
#include "util/norms.hpp"
#include "util/timer.hpp"

namespace mmd {

FastContext::FastContext(const Graph& g, const FastOptions& options,
                         DecomposeWorkspace* external_ws)
    : g_(&g), options_(options), ws_(external_ws ? external_ws : &own_ws_) {
  reconcile(options);
}

FastContext::~FastContext() = default;

void FastContext::reconcile(const FastOptions& options) {
  MMD_REQUIRE(options.inner.k >= 1, "k must be >= 1");
  require_thread_count(options.inner.num_threads, "num_threads");
  MMD_REQUIRE(options.inner.fork_depth >= 0, "fork_depth must be >= 0");
  // The hierarchy depends only on edge costs and the coarsening
  // parameters, the pool only on the thread count, the finest-level
  // splitter only on the splitter kind; everything else (k, tolerances,
  // refinement knobs) is per-call state and invalidates nothing.
  const bool hierarchy_stale = options.seed != options_.seed ||
                               options.coarse_target != options_.coarse_target ||
                               options.max_levels != options_.max_levels;
  const bool pool_stale = pool_.stale(options.inner.num_threads);
  const bool fine_splitter_stale =
      options.inner.splitter != options_.inner.splitter;
  // Same rule as DecomposeContext::reconcile: a caller's exec and sink are
  // per-call state, never cached.  `options` may alias options_.
  const ExecControl exec = options_.inner.exec;
  DecomposeDiagnostics* const diagnostics = options_.inner.diagnostics;
  options_ = options;
  options_.inner.exec = exec;
  options_.inner.diagnostics = diagnostics;

  if (hierarchy_stale) {
    levels_built_ = false;
    coarse_ctx_.reset();  // bound to the old coarsest graph
  }
  if (pool_stale) {
    // The coarse context and the fine splitter hold the borrowed pool
    // pointer; drop them before the pool so nothing dangles.
    coarse_ctx_.reset();
    fine_splitter_.reset();
    pool_.rebuild(options.inner.num_threads, options.inner.diagnostics,
                  stats_.pool_builds, stats_.pool_construct_failures);
  }
  if (fine_splitter_stale) fine_splitter_.reset();
  // A surviving coarse context reconciles the remaining inner options
  // itself on the next decompose call (warm for k/weights/tolerance
  // sweeps); a dropped one is rebuilt in ensure_levels.
}

void FastContext::ensure_levels(std::span<const double> w) {
  if (!levels_built_) {
    levels_.clear();
    const Graph* cur = g_;
    std::span<const double> cur_w = w;
    std::uint64_t seed = options_.seed;
    while (cur->num_vertices() > options_.coarse_target &&
           static_cast<int>(levels_.size()) < options_.max_levels) {
      CoarseLevel cl = coarsen_heavy_edge(*cur, cur_w, seed++);
      if (cl.graph.num_vertices() >= cur->num_vertices()) break;
      Level level;
      level.graph = std::move(cl.graph);
      level.weights = std::move(cl.weights);
      level.parent = std::move(cl.parent);
      levels_.push_back(std::move(level));
      cur = &levels_.back().graph;
      cur_w = levels_.back().weights;
    }
    levels_built_ = true;
    ++stats_.coarsen_builds;
    coarse_ctx_.reset();
  } else {
    // The matching (and hence every level's graph and parent map) depends
    // only on edge costs and the seed, so a warm call just refreshes the
    // per-level weight sums — sum_weights_to_parents is the same code
    // coarsen_heavy_edge runs, so a warm call is bit-identical to a cold
    // one on the same weights.
    std::span<const double> cur_w = w;
    for (Level& level : levels_) {
      sum_weights_to_parents(level.parent, cur_w, level.graph.num_vertices(),
                             level.weights);
      cur_w = level.weights;
    }
  }
  if (coarse_ctx_ == nullptr) {
    const Graph& coarsest = levels_.empty() ? *g_ : levels_.back().graph;
    coarse_ctx_ = std::make_unique<DecomposeContext>(
        coarsest, coarse_options(options_.inner), ws_, pool_.get());
  }
}

DecomposeOptions FastContext::coarse_options(const DecomposeOptions& inner) {
  DecomposeOptions out = inner;
  out.use_refinement = true;
  out.num_threads = 1;  // the shared pool is supplied externally
  return out;
}

ISplitter& FastContext::fine_splitter(const DecomposeOptions& inner) {
  // While nothing was coarsened the coarse context is bound to the finest
  // graph already — reuse its splitter instead of building a twin.
  if (levels_.empty()) return coarse_ctx_->splitter();
  if (fine_splitter_ == nullptr) {
    fine_splitter_ = make_default_splitter(*g_, options_.inner.splitter);
    fine_splitter_->set_thread_pool(pool_.get());
    ++stats_.fine_splitter_builds;
  }
  stamp_splitter(*fine_splitter_, inner);  // per-call state
  return *fine_splitter_;
}

FastResult FastContext::decompose(std::span<const double> w) {
  return decompose(w, options_);
}

FastResult FastContext::decompose(std::span<const double> w,
                                  const FastOptions& options) {
  ExclusiveUse::Claim claim = claim_use();
  reconcile(options);
  MMD_REQUIRE(static_cast<Vertex>(w.size()) == g_->num_vertices(),
              "weight arity mismatch");
  // The call's own exec and sink; everything else is the bound options.
  const DecomposeOptions inner = coarse_options(options.inner);
  const ExecControl& exec = inner.exec;
  exec.check();  // an already-expired deadline throws before any work
  Timer timer;
  ++stats_.fast_calls;
  ensure_levels(w);

  FastResult out;
  out.levels = static_cast<int>(levels_.size());
  DecomposeWorkspace& wsr = *ws_;

  // Full pipeline on the coarsest level.  Coarse nodes can be heavy, so
  // the strict window there is loose — re-established at the finest level.
  // A deadline/cancel here propagates: with no complete coarse solution
  // there is nothing to degrade to.
  const std::span<const double> coarse_w =
      levels_.empty() ? w : std::span<const double>(levels_.back().weights);
  Coloring chi = coarse_ctx_->decompose(coarse_w, inner).coloring;

  // Uncoarsen with per-level refinement (loose balance slack on interior
  // levels: coarse nodes are heavy, exactness comes at the end).  `lvl`
  // tracks which graph chi currently colors (levels_[lvl - 1].graph, or
  // the host graph at 0) so the degradation path below knows where the
  // deadline interrupted the climb.
  std::size_t lvl = levels_.size();
  try {
    while (lvl > 0) {
      exec.check();  // level-edge checkpoint
      chi = project_coloring(chi, levels_[lvl - 1].parent);
      --lvl;
      const Graph& level_graph = lvl == 0 ? *g_ : levels_[lvl - 1].graph;
      const std::span<const double> level_w =
          lvl == 0 ? w : std::span<const double>(levels_[lvl - 1].weights);
      MinmaxRefineOptions ro;
      ro.max_passes = options_.refine_passes_per_level;
      ro.balance_slack = lvl == 0 ? 1.0 : 2.0;
      ro.exec = exec;
      minmax_refine(level_graph, chi, level_w, ro, &wsr.refine);
    }

    // Close the strict window at full resolution, through the persistent
    // finest-level splitter (warm OrderingCache, shared pool).
    if (options_.inner.k > 1) {
      exec.check();
      chi = binpack2(*g_, chi, w, fine_splitter(inner), nullptr, &wsr);
      MinmaxRefineOptions ro;
      ro.max_passes = options_.refine_passes_per_level;
      ro.exec = exec;
      minmax_refine(*g_, chi, w, ro, &wsr.refine);
    }
  } catch (const DeadlineExceeded&) {
    // Graceful degradation: the coarse level completed, so a best-effort
    // answer exists.  Finish the projection to the finest level with no
    // further refinement (projection preserves totality and the coarse
    // balance, just not the strict Definition 1 window) and certify
    // exactly what the caller is getting.  Cancellation is *not* caught:
    // a cancelling caller wants out, not best-effort.
    while (lvl > 0) {
      chi = project_coloring(chi, levels_[lvl - 1].parent);
      --lvl;
    }
    out.degraded = true;
    ++stats_.degraded_calls;
    diag_report(inner.diagnostics, DiagEvent::DegradedResult,
                "fast-mode deadline expired after the coarse level; "
                "returning the projected best-effort coloring with a "
                "certificate instead of throwing");
  }

  out.coloring = std::move(chi);
  if (out.degraded) out.certificate = verify_decomposition(*g_, w, out.coloring);
  out.balance = balance_report(w, out.coloring);
  const auto bc = class_boundary_costs(*g_, out.coloring);
  out.max_boundary = norm_inf(bc);
  out.avg_boundary = norm1(bc) / options_.inner.k;
  out.total_seconds = timer.seconds();
  return out;
}

std::size_t FastContext::memory_estimate_bytes() const {
  std::size_t total = sizeof(*this) + own_ws_.memory_bytes();
  for (const Level& level : levels_) {
    total += level.graph.memory_bytes() +
             level.weights.capacity() * sizeof(double) +
             level.parent.capacity() * sizeof(Vertex);
  }
  if (coarse_ctx_ != nullptr) total += coarse_ctx_->memory_estimate_bytes();
  if (fine_splitter_ != nullptr) total += splitter_estimate_bytes(*g_);
  return total;
}

FastResult decompose_fast(const Graph& g, std::span<const double> w,
                          const FastOptions& options, DecomposeWorkspace* ws) {
  // A transient context: one hierarchy + splitter build, torn down on
  // return.  Callers running repeated fast decompositions of one graph
  // should hold a FastContext and pay that build exactly once.
  FastContext ctx(g, options, ws);
  return ctx.decompose(w);
}

}  // namespace mmd
