#include "core/fast.hpp"

#include "core/binpack.hpp"
#include "graph/coarsen.hpp"
#include "util/norms.hpp"
#include "util/timer.hpp"

namespace mmd {

namespace {

/// The coarse context's options: it runs on the fine context's pool, so it
/// asks for one thread and never builds a pool of its own — not even when
/// the fine context has none (one thread, or a failed build).
DecomposeOptions on_borrowed_pool(DecomposeOptions options) {
  options.num_threads = 1;
  return options;
}

}  // namespace

FastContext::FastContext(const Graph& g, const FastOptions& options,
                         DecomposeWorkspace* external_ws)
    : options_(options), fine_(g, options.inner, external_ws) {
  reconcile(options);
}

FastContext::~FastContext() = default;

void FastContext::reconcile(const FastOptions& options) {
  MMD_REQUIRE(options.inner.k >= 1, "k must be >= 1");
  // The hierarchy depends only on edge costs and the coarsening
  // parameters.  The coarse context borrows the coarsest graph and the
  // fine context's pool, so it goes before either does; everything else
  // (k, tolerances, splitter kind) the contexts reconcile themselves.
  const bool hierarchy_stale = options.seed != options_.seed ||
                               options.coarse_target != options_.coarse_target ||
                               options.max_levels != options_.max_levels;
  if (hierarchy_stale ||
      options.inner.num_threads != options_.inner.num_threads)
    coarse_ctx_.reset();
  fine_.reconcile(options.inner);
  if (hierarchy_stale) levels_built_ = false;
  options_ = options;
  options_.inner = fine_.options();
}

void FastContext::ensure_levels(std::span<const double> w) {
  if (!levels_built_) {
    levels_.clear();
    const Graph* cur = &fine_.graph();
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
  if (!levels_.empty() && coarse_ctx_ == nullptr) {
    coarse_ctx_ = std::make_unique<DecomposeContext>(
        levels_.back().graph, on_borrowed_pool(options_.inner),
        &fine_.workspace(), fine_.thread_pool());
  }
}

DecomposeContext& FastContext::coarse_context() {
  MMD_REQUIRE(levels_built_ && (levels_.empty() || coarse_ctx_ != nullptr),
              "coarse_context() needs a prior decompose call");
  return levels_.empty() ? fine_ : *coarse_ctx_;
}

FastResult FastContext::decompose(std::span<const double> w) {
  return decompose(w, options_);
}

FastResult FastContext::decompose(std::span<const double> w,
                                  const FastOptions& options) {
  ExclusiveUse::Claim claim = claim_use();
  reconcile(options);
  const Graph& g = fine_.graph();
  MMD_REQUIRE(static_cast<Vertex>(w.size()) == g.num_vertices(),
              "weight arity mismatch");
  // The call's own exec and sink; everything else is the bound options.
  // The coarse-level pipeline always refines.
  DecomposeOptions inner = options.inner;
  inner.use_refinement = true;
  const ExecControl& exec = inner.exec;
  exec.check();  // an already-expired deadline throws before any work
  Timer timer;
  ++stats_.fast_calls;
  ensure_levels(w);

  FastResult out;
  out.levels = static_cast<int>(levels_.size());
  DecomposeWorkspace& wsr = fine_.workspace();

  // Full pipeline on the coarsest level.  Coarse nodes can be heavy, so
  // the strict window there is loose — re-established at the finest level.
  // A deadline/cancel here propagates: with no complete coarse solution
  // there is nothing to degrade to.
  Coloring chi =
      levels_.empty()
          ? fine_.decompose(w, inner).coloring
          : coarse_ctx_->decompose(levels_.back().weights,
                                   on_borrowed_pool(inner))
                .coloring;

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
      const Graph& level_graph = lvl == 0 ? g : levels_[lvl - 1].graph;
      const std::span<const double> level_w =
          lvl == 0 ? w : std::span<const double>(levels_[lvl - 1].weights);
      MinmaxRefineOptions ro;
      ro.max_passes = options_.refine_passes_per_level;
      ro.balance_slack = lvl == 0 ? 1.0 : 2.0;
      ro.exec = exec;
      minmax_refine(level_graph, chi, level_w, ro, &wsr.refine);
    }

    // Close the strict window at full resolution, through the fine
    // context's splitter (warm OrderingCache, shared pool), stamped with
    // this call's options until the pass ends.
    if (options_.inner.k > 1) {
      exec.check();
      const DecomposeContext::Restamp restamp{fine_};
      stamp_splitter(fine_.splitter(), inner);
      chi = binpack2(g, chi, w, fine_.splitter(), nullptr, &wsr);
      MinmaxRefineOptions ro;
      ro.max_passes = options_.refine_passes_per_level;
      ro.exec = exec;
      minmax_refine(g, chi, w, ro, &wsr.refine);
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
  if (out.degraded) out.certificate = verify_decomposition(g, w, out.coloring);
  out.balance = balance_report(w, out.coloring);
  const auto bc = class_boundary_costs(g, out.coloring);
  out.max_boundary = norm_inf(bc);
  out.avg_boundary = norm1(bc) / options_.inner.k;
  out.total_seconds = timer.seconds();
  return out;
}

std::size_t FastContext::memory_estimate_bytes() const {
  // The fine context's estimate counts its own size, which sizeof(*this)
  // holds already.
  std::size_t total =
      sizeof(*this) - sizeof(fine_) + fine_.memory_estimate_bytes();
  for (const Level& level : levels_) {
    total += level.graph.memory_bytes() +
             level.weights.capacity() * sizeof(double) +
             level.parent.capacity() * sizeof(Vertex);
  }
  if (coarse_ctx_ != nullptr) total += coarse_ctx_->memory_estimate_bytes();
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
