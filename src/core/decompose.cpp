#include "core/decompose.hpp"

#include <algorithm>
#include <cmath>

#include "core/binpack.hpp"
#include "core/bisection.hpp"
#include "core/context.hpp"
#include "separators/composite.hpp"
#include "separators/grid_split.hpp"
#include "separators/prefix_splitter.hpp"
#include "separators/splittability.hpp"
#include "util/norms.hpp"
#include "util/timer.hpp"

namespace mmd {

std::unique_ptr<ISplitter> make_default_splitter(const Graph& g,
                                                 SplitterKind kind) {
  switch (kind) {
    case SplitterKind::Prefix:
      return std::make_unique<PrefixSplitter>();
    case SplitterKind::Grid:
      return std::make_unique<GridSplitter>();
    case SplitterKind::Auto:
      break;
  }
  if (g.has_coords() && g.is_grid_graph()) {
    // Keep Theorem 19's guarantee *and* the sweeps' practical quality.
    std::vector<std::unique_ptr<ISplitter>> children;
    children.push_back(std::make_unique<GridSplitter>());
    children.push_back(std::make_unique<PrefixSplitter>());
    return std::make_unique<CompositeSplitter>(std::move(children));
  }
  return std::make_unique<PrefixSplitter>();
}

void stamp_splitter(ISplitter& splitter, const DecomposeOptions& options) {
  splitter.set_exec_control(options.exec);
  // The sink goes on before the mode, so a splitter that cannot honor the
  // mode reports it to this call's sink.
  splitter.set_diagnostics(options.diagnostics);
  splitter.set_fork_depth(options.fork_depth);
  splitter.set_sweep_mode(options.sweep_mode);
}

std::size_t splitter_estimate_bytes(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const int axes = g.has_coords() ? g.dim() : 0;
  // One perm + rank block of n per cached axis order dominates; the lane
  // scratch (memberships, BFS state, order/radix buffers) is a handful of
  // n-sized integer arrays.  The estimate only has to rank contexts for
  // eviction and sum to the right order of magnitude.
  return static_cast<std::size_t>(axes) * n *
             (sizeof(Vertex) + sizeof(std::int32_t)) +
         8 * n * sizeof(std::int32_t);
}

double default_sigma_p(const Graph& g, double p) {
  if (g.has_coords() && g.is_grid_graph()) {
    const auto costs = g.edge_costs();
    double lo = 0.0, hi = 0.0;
    for (double c : costs) {
      if (c <= 0.0) continue;
      lo = lo == 0.0 ? c : std::min(lo, c);
      hi = std::max(hi, c);
    }
    const double phi = (lo > 0.0) ? hi / lo : 1.0;
    return grid_splittability_bound(g.dim(), phi);
  }
  (void)p;
  return 2.0;
}

long count_migration(const Coloring& prior, const Coloring& now) {
  long moved = 0;
  const std::size_t n = std::min(prior.color.size(), now.color.size());
  for (std::size_t v = 0; v < n; ++v)
    if (prior.color[v] != now.color[v]) ++moved;
  return moved;
}

namespace {

/// A coloring's phase report together with the balance pass behind it:
/// the O(m) boundary pass and the balance pass run once per distinct
/// coloring, and the almost-strict test and the final figures reuse them.
struct PhaseSnapshot {
  PhaseReport report;
  BalanceReport balance;
};

PhaseSnapshot snapshot(const Graph& g, std::span<const double> w,
                       const Coloring& chi) {
  PhaseSnapshot s;
  const auto bc = class_boundary_costs(g, chi);
  s.report.max_boundary = norm_inf(bc);
  s.report.avg_boundary = chi.k > 0 ? norm1(bc) / chi.k : 0.0;
  s.balance = balance_report(w, chi);
  s.report.max_weight_dev = s.balance.max_dev;
  return s;
}

/// What every arm of one request shares: sigma_p, the Theorem 4 bound and
/// the splitting-cost measure pi, computed once per request.
struct RequestInvariants {
  double sigma_p = 0.0;
  TheoryBound bound;
  std::vector<double> pi;
};

/// Phases 1-4 of one init method (not Best) on invariants `inv`.
DecomposeResult run_arm(const Graph& g, std::span<const double> w,
                        std::span<const MeasureRef> extras,
                        const DecomposeOptions& options, ISplitter& splitter,
                        DecomposeWorkspace& wsr, const RequestInvariants& inv) {
  DecomposeResult out;
  out.sigma_p = inv.sigma_p;
  out.bound = inv.bound;
  const std::vector<double>& pi = inv.pi;

  // Each phase's report: a phase that ran is measured afresh; one that did
  // not leaves the coloring alone and keeps the previous report, with its
  // own seconds.
  Timer phase_timer;
  PhaseSnapshot last;
  auto report = [&](PhaseReport& slot, bool ran, const Coloring& chi) {
    const double seconds = phase_timer.seconds();
    if (ran) last = snapshot(g, w, chi);
    last.report.seconds = seconds;
    slot = last.report;
  };

  // Phase 1: Proposition 7 (or plain Lemma 6 when the Psi pass is ablated,
  // or a Simon–Teng warm start when requested).
  Coloring chi;
  if (options.init == InitMethod::Bisection) {
    chi = recursive_bisection_coloring(g, w, options.k, splitter);
  } else {
    // The user measures are w and the extras; without the Psi pass,
    // plain Lemma 6 balances pi alongside them.
    std::vector<MeasureRef> user;
    if (!options.balance_boundary) user.push_back(MeasureRef(pi));
    user.push_back(MeasureRef(w));
    user.insert(user.end(), extras.begin(), extras.end());
    chi = options.balance_boundary
              ? minmax_balance(g, options.k, pi, user, splitter,
                               options.rebalance, nullptr, &wsr)
              : multibalance(g, options.k, user, splitter, options.rebalance,
                             nullptr, &wsr);
  }
  report(out.phase_multibalance, true, chi);

  // Phase 2: Proposition 11.  Its whole purpose is to reach *almost*
  // strict balance; when phase 1 already delivers that (common for the
  // bisection warm start, occasional for benign instances), skipping the
  // shrink-and-conquer recursion is both valid and cheaper.
  options.exec.check();  // phase boundary checkpoint
  phase_timer.reset();
  const bool strictify = options.use_strictify && options.k > 1 &&
                         !last.balance.almost_strictly_balanced;
  if (strictify) {
    chi = strictify_almost(g, chi, w, pi, splitter, options.strictify,
                           nullptr, extras, &wsr);
  }
  report(out.phase_strictify, strictify, chi);

  // Phase 3: Proposition 12.
  options.exec.check();
  phase_timer.reset();
  const bool binpack = options.use_binpack2 && options.k > 1;
  if (binpack) chi = binpack2(g, chi, w, splitter, nullptr, &wsr);
  report(out.phase_binpack, binpack, chi);

  // Phase 4 (extension): min-max hill climbing.  Only applied once the
  // coloring is strictly balanced, so the Definition 1 window it must
  // preserve is the one the caller asked for.
  options.exec.check();
  phase_timer.reset();
  const bool refine = binpack && options.use_refinement;
  if (refine) {
    MinmaxRefineOptions refine_options = options.refine;
    refine_options.exec = options.exec;  // round-boundary checkpoints inside
    out.refine_stats = minmax_refine(g, chi, w, refine_options, &wsr.refine);
  }
  report(out.phase_refine, refine, chi);

  // The final figures are the last report's.
  out.coloring = std::move(chi);
  out.balance = last.balance;
  out.max_boundary = last.report.max_boundary;
  out.avg_boundary = last.report.avg_boundary;
  return out;
}

/// The one Theorem 4 pipeline behind decompose() and decompose_multi():
/// `extras` are the Conclusion's extra measures, balanced weakly in phase
/// 1 and kept light in every part strictify moves (empty for decompose).
/// The entry points have validated the inputs and stamped `splitter`.
DecomposeResult run(const Graph& g, std::span<const double> w,
                    std::span<const MeasureRef> extras,
                    const DecomposeOptions& options, ISplitter& splitter,
                    DecomposeWorkspace* ws) {
  // Checkpoint before doing any work: an already-expired deadline must
  // throw here, not after a phase ran.
  options.exec.check();

  Timer total_timer;
  DecomposeWorkspace local_ws;
  DecomposeWorkspace& wsr = ws ? *ws : local_ws;

  RequestInvariants inv;
  inv.sigma_p = options.sigma_p > 0.0 ? options.sigma_p
                                      : default_sigma_p(g, options.p);
  inv.bound = theorem4_bound(g, options.p, inv.sigma_p, options.k);
  inv.pi = splitting_cost_measure(g, options.p, inv.sigma_p);

  DecomposeResult out;
  if (options.init != InitMethod::Best) {
    out = run_arm(g, w, extras, options, splitter, wsr, inv);
  } else {
    DecomposeOptions paper = options;
    paper.init = InitMethod::Paper;
    DecomposeOptions bisect = options;
    bisect.init = InitMethod::Bisection;
    options.exec.check();  // arm boundary checkpoints
    DecomposeResult a = run_arm(g, w, extras, paper, splitter, wsr, inv);
    options.exec.check();
    DecomposeResult b = run_arm(g, w, extras, bisect, splitter, wsr, inv);
    // Both are strictly balanced (or throw); keep the cheaper boundary.
    out = a.max_boundary <= b.max_boundary ? std::move(a) : std::move(b);
  }
  out.total_seconds = total_timer.seconds();
  return out;
}

/// The argument checks every entry point makes before any work, the
/// seeded attempt included.
void require_valid(const Graph& g, std::span<const double> w,
                   const DecomposeOptions& options) {
  MMD_REQUIRE(options.k >= 1, "k must be >= 1");
  MMD_REQUIRE(options.p > 1.0, "p must exceed 1");
  MMD_REQUIRE(static_cast<Vertex>(w.size()) == g.num_vertices(),
              "weight arity mismatch");
}

/// Entry of decompose() and decompose_multi(): the checks, then the one
/// stamp of `options` onto the splitter tree (propagated to its lanes).
void enter(const Graph& g, std::span<const double> w,
           const DecomposeOptions& options, ISplitter& splitter) {
  require_valid(g, w, options);
  stamp_splitter(splitter, options);
}

}  // namespace

DecomposeResult decompose(const Graph& g, std::span<const double> w,
                          const DecomposeOptions& options, ISplitter& splitter,
                          DecomposeWorkspace* ws) {
  enter(g, w, options, splitter);
  return run(g, w, {}, options, splitter, ws);
}

std::optional<DecomposeResult> try_incremental_repartition(
    const Graph& g, std::span<const double> w, const PriorSolution& prior,
    const DecomposeOptions& options, DecomposeWorkspace* ws) {
  require_valid(g, w, options);
  MMD_REQUIRE(prior.coloring != nullptr, "prior solution has no coloring");
  options.exec.check();

  const Coloring& pc = *prior.coloring;
  const Vertex n = g.num_vertices();
  // Structural certificate: the prior must be a total k-coloring of this
  // exact graph with the requested k (and k > 1 — nothing to refine below
  // that).  Any mismatch escalates rather than throws: a stale prior is a
  // served-request condition, not a caller bug.
  if (pc.k != options.k || options.k <= 1 ||
      static_cast<Vertex>(pc.color.size()) != n || !pc.is_total())
    return std::nullopt;

  // Balance certificate: the prior must still fit kBalanceHeadroom x the
  // Definition 1 window under the NEW weights, recomputed fresh (O(n)):
  // with a headroom of 1.0 every served incremental result is strictly
  // balanced (refinement preserves it).
  constexpr double kBalanceHeadroom = 1.0;
  const BalanceReport pre = balance_report(w, pc);
  if (pre.max_dev > kBalanceHeadroom * pre.strict_bound +
                        1e-9 * std::max(1.0, pre.avg))
    return std::nullopt;

  Timer total_timer;
  DecomposeWorkspace local_ws;
  DecomposeWorkspace& wsr = ws ? *ws : local_ws;
  RefineWorkspace& rw = wsr.refine;

  // Dirty region = every vertex of a delta-touched class plus the foreign
  // vertices adjacent to one (the boundary of those classes).  Class
  // marking is set-union, so duplicate dirty entries are harmless; an
  // empty dirty span marks nothing and the seeded refinement is a no-op.
  if (rw.class_dirty.size() < static_cast<std::size_t>(pc.k))
    rw.class_dirty.resize(static_cast<std::size_t>(pc.k));
  std::fill(rw.class_dirty.begin(), rw.class_dirty.begin() + pc.k,
            std::uint8_t{0});
  for (const Vertex v : prior.dirty) {
    MMD_REQUIRE(v >= 0 && v < n, "dirty vertex out of range");
    rw.class_dirty[static_cast<std::size_t>(pc[v])] = 1;
  }
  rw.seed.clear();
  for (Vertex v = 0; v < n; ++v) {
    bool in = rw.class_dirty[static_cast<std::size_t>(pc[v])] != 0;
    if (!in) {
      for (const HalfEdge& h : g.incidence(v)) {
        if (rw.class_dirty[static_cast<std::size_t>(pc[h.to])] != 0) {
          in = true;
          break;
        }
      }
    }
    if (in) rw.seed.push_back(v);
  }
  if (static_cast<double>(rw.seed.size()) >
      kMaxDirtyFraction * static_cast<double>(n))
    return std::nullopt;

  DecomposeResult out;
  out.sigma_p = options.sigma_p > 0.0 ? options.sigma_p
                                      : default_sigma_p(g, options.p);
  out.bound = theorem4_bound(g, options.p, out.sigma_p, options.k);
  out.coloring = pc;  // refined in place below

  Timer phase_timer;
  MinmaxRefineOptions refine = options.refine;
  refine.exec = options.exec;
  refine.seeded = true;
  refine.seed = std::span<const Vertex>(rw.seed);
  out.refine_stats = minmax_refine(g, out.coloring, w, refine, &rw);
  const double refine_seconds = phase_timer.seconds();
  const PhaseSnapshot last = snapshot(g, w, out.coloring);
  out.phase_refine = last.report;
  out.phase_refine.seconds = refine_seconds;
  out.balance = last.balance;
  out.max_boundary = last.report.max_boundary;
  out.avg_boundary = last.report.avg_boundary;

  // Boundary-growth envelope against the last FULL solve.  Boundary cost
  // is weight-independent and seeded refinement is monotone non-increasing
  // from the prior, so along an incremental chain this fires only when the
  // chain has genuinely drifted past the envelope.
  const double baseline = prior.baseline_max_boundary > 0.0
                              ? prior.baseline_max_boundary
                              : prior.max_boundary;
  if (baseline > 0.0 && out.max_boundary > kMaxBoundaryGrowth * baseline + 1e-9)
    return std::nullopt;

  out.migration_cost = count_migration(pc, out.coloring);
  out.incremental = true;
  out.total_seconds = total_timer.seconds();
  return out;
}

DecomposeResult decompose(const Graph& g, std::span<const double> w,
                          const DecomposeOptions& options,
                          DecomposeWorkspace* ws) {
  // A transient context: one splitter + pool build, torn down on return.
  // Callers that decompose the same graph repeatedly should hold a
  // DecomposeContext instead and get this build cost exactly once.
  DecomposeContext ctx(g, options, ws);
  return ctx.decompose(w);
}

MultiDecomposeResult decompose_multi(const Graph& g, std::span<const double> psi,
                                     std::span<const MeasureRef> extra_measures,
                                     const DecomposeOptions& options,
                                     ISplitter& splitter,
                                     DecomposeWorkspace* ws) {
  for (const MeasureRef& m : extra_measures)
    MMD_REQUIRE(static_cast<Vertex>(m.size()) == g.num_vertices(),
                "extra measure arity mismatch");
  // The bisection warm start does not balance the extra measures, so it
  // may not stand in for Proposition 7.
  MMD_REQUIRE(extra_measures.empty() || options.init == InitMethod::Paper,
              "decompose_multi with extra measures requires init=Paper");
  enter(g, psi, options, splitter);
  DecomposeResult r = run(g, psi, extra_measures, options, splitter, ws);

  MultiDecomposeResult out;
  out.coloring = std::move(r.coloring);
  out.psi_balance = r.balance;
  for (const MeasureRef& m : extra_measures)
    out.weak_factors.push_back(weak_balance_factor(m, out.coloring));
  out.max_boundary = r.max_boundary;
  out.avg_boundary = r.avg_boundary;
  out.bound = r.bound;
  out.sigma_p = r.sigma_p;
  return out;
}

MultiDecomposeResult decompose_multi(const Graph& g, std::span<const double> psi,
                                     std::span<const MeasureRef> extra_measures,
                                     const DecomposeOptions& options,
                                     DecomposeWorkspace* ws) {
  DecomposeContext ctx(g, options, ws);
  return ctx.decompose_multi(psi, extra_measures);
}

}  // namespace mmd
