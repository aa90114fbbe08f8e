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

namespace {

std::unique_ptr<ISplitter> build_splitter(const Graph& g, SplitterKind kind) {
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

}  // namespace

std::unique_ptr<ISplitter> make_default_splitter(const Graph& g,
                                                 SplitterKind kind) {
  return build_splitter(g, kind);
}

std::unique_ptr<ISplitter> make_default_splitter(const Graph& g,
                                                 const DecomposeOptions& options) {
  std::unique_ptr<ISplitter> s = build_splitter(g, options.splitter);
  // Stamp the sweep policy on the splitter itself, whatever its kind.
  // (Historically the window rule was forwarded only into the prefix
  // splitter's options, so the grid/composite — and every
  // coordinate-driven — path silently dropped the request.)
  s->set_sweep_mode(options.sweep_mode);
  return s;
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

namespace {

PhaseReport report_phase(const Graph& g, std::span<const double> w,
                         const Coloring& chi, double seconds) {
  PhaseReport rep;
  rep.seconds = seconds;
  const auto bc = class_boundary_costs(g, chi);
  rep.max_boundary = norm_inf(bc);
  rep.avg_boundary = chi.k > 0 ? norm1(bc) / chi.k : 0.0;
  rep.max_weight_dev = balance_report(w, chi).max_dev;
  return rep;
}

}  // namespace

long count_migration(const Coloring& prior, const Coloring& now) {
  long moved = 0;
  const std::size_t n = std::min(prior.color.size(), now.color.size());
  for (std::size_t v = 0; v < n; ++v)
    if (prior.color[v] != now.color[v]) ++moved;
  return moved;
}

DecomposeResult decompose(const Graph& g, std::span<const double> w,
                          const DecomposeOptions& options, ISplitter& splitter,
                          DecomposeWorkspace* ws) {
  MMD_REQUIRE(options.k >= 1, "k must be >= 1");
  MMD_REQUIRE(options.p > 1.0, "p must exceed 1");
  MMD_REQUIRE(static_cast<Vertex>(w.size()) == g.num_vertices(),
              "weight arity mismatch");
  // Stamp the execution control and diagnostics sink on the splitter tree
  // (they propagate to lanes), then checkpoint before doing any work: an
  // already-expired deadline must throw here, not after a phase ran.
  splitter.set_exec_control(options.exec);
  splitter.set_diagnostics(options.diagnostics);
  options.exec.check();

  if (options.prior != nullptr) {
    // Incremental-first: seeded refinement over the dirty region.  When
    // the escalation certificate fires, fall back to a full solve with the
    // prior stripped — that path is the ordinary pipeline, so it keeps the
    // bit-identical warm/cold/threaded contract — and report the migration
    // the caller is about to pay.
    if (auto inc = try_incremental_repartition(g, w, options, ws)) return *inc;
    DecomposeOptions full = options;
    full.prior = nullptr;
    DecomposeResult out = decompose(g, w, full, splitter, ws);
    out.escalated = true;
    out.migration_cost = count_migration(*options.prior->coloring, out.coloring);
    return out;
  }

  DecomposeWorkspace local_ws;
  DecomposeWorkspace& wsr = ws ? *ws : local_ws;

  if (options.init == InitMethod::Best) {
    DecomposeOptions paper = options;
    paper.init = InitMethod::Paper;
    DecomposeOptions bisect = options;
    bisect.init = InitMethod::Bisection;
    DecomposeResult a = decompose(g, w, paper, splitter, &wsr);
    DecomposeResult b = decompose(g, w, bisect, splitter, &wsr);
    // Both are strictly balanced (or throw); keep the cheaper boundary.
    return a.max_boundary <= b.max_boundary ? a : b;
  }

  DecomposeResult out;
  Timer total_timer;

  out.sigma_p = options.sigma_p > 0.0 ? options.sigma_p
                                      : default_sigma_p(g, options.p);
  out.bound = theorem4_bound(g, options.p, out.sigma_p, options.k);

  const std::vector<double> pi =
      splitting_cost_measure(g, options.p, out.sigma_p);

  // Phase 1: Proposition 7 (or plain Lemma 6 when the Psi pass is ablated,
  // or a Simon–Teng warm start when requested).
  Timer phase_timer;
  Coloring chi;
  if (options.init == InitMethod::Bisection) {
    chi = recursive_bisection_coloring(g, w, options.k, splitter);
  } else {
    const std::vector<MeasureRef> user{MeasureRef(w)};
    if (options.balance_boundary) {
      chi = minmax_balance(g, options.k, pi, user, splitter, options.rebalance,
                           nullptr, &wsr);
    } else {
      std::vector<MeasureRef> ms{MeasureRef(pi), MeasureRef(w)};
      chi = multibalance(g, options.k, ms, splitter, options.rebalance,
                         nullptr, &wsr);
    }
  }
  out.phase_multibalance = report_phase(g, w, chi, phase_timer.seconds());

  // Phase 2: Proposition 11.  Its whole purpose is to reach *almost*
  // strict balance; when phase 1 already delivers that (common for the
  // bisection warm start, occasional for benign instances), skipping the
  // shrink-and-conquer recursion is both valid and cheaper.
  options.exec.check();  // phase boundary checkpoint
  phase_timer.reset();
  if (options.use_strictify && options.k > 1 &&
      !balance_report(w, chi).almost_strictly_balanced) {
    chi = strictify_almost(g, chi, w, pi, splitter, options.strictify,
                           nullptr, {}, &wsr);
  }
  out.phase_strictify = report_phase(g, w, chi, phase_timer.seconds());

  // Phase 3: Proposition 12.
  options.exec.check();
  phase_timer.reset();
  if (options.use_binpack2 && options.k > 1) {
    chi = binpack2(g, chi, w, splitter, nullptr, &wsr);
  }
  out.phase_binpack = report_phase(g, w, chi, phase_timer.seconds());

  // Phase 4 (extension): min-max hill climbing.  Only applied once the
  // coloring is strictly balanced, so the Definition 1 window it must
  // preserve is the one the caller asked for.
  options.exec.check();
  phase_timer.reset();
  if (options.use_refinement && options.use_binpack2 && options.k > 1) {
    MinmaxRefineOptions refine = options.refine;
    refine.exec = options.exec;  // round-boundary checkpoints inside
    out.refine_stats = minmax_refine(g, chi, w, refine, &wsr.refine);
  }
  out.phase_refine = report_phase(g, w, chi, phase_timer.seconds());

  out.coloring = std::move(chi);
  out.balance = balance_report(w, out.coloring);
  const auto bc = class_boundary_costs(g, out.coloring);
  out.max_boundary = norm_inf(bc);
  out.avg_boundary = norm1(bc) / options.k;
  out.total_seconds = total_timer.seconds();
  return out;
}

std::optional<DecomposeResult> try_incremental_repartition(
    const Graph& g, std::span<const double> w, const DecomposeOptions& options,
    DecomposeWorkspace* ws) {
  MMD_REQUIRE(options.prior != nullptr,
              "incremental repartition requires options.prior");
  const PriorSolution& prior = *options.prior;
  MMD_REQUIRE(prior.coloring != nullptr, "prior solution has no coloring");
  MMD_REQUIRE(static_cast<Vertex>(w.size()) == g.num_vertices(),
              "weight arity mismatch");
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

  // Balance certificate: the prior must still fit balance_headroom x the
  // Definition 1 window under the NEW weights, recomputed fresh (O(n)):
  // with the default headroom of 1.0 every served incremental result is
  // strictly balanced (refinement preserves it).
  const BalanceReport pre = balance_report(w, pc);
  if (pre.max_dev > options.incremental.balance_headroom * pre.strict_bound +
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
      options.incremental.max_dirty_fraction * static_cast<double>(n))
    return std::nullopt;

  DecomposeResult out;
  out.sigma_p = options.sigma_p > 0.0 ? options.sigma_p
                                      : default_sigma_p(g, options.p);
  out.bound = theorem4_bound(g, options.p, out.sigma_p, options.k);
  out.coloring = pc;  // refined in place below

  Timer phase_timer;
  MinmaxRefineOptions refine = options.refine;
  refine.exec = options.exec;
  // Seeded mode is a worklist-engine feature; force it so a Sweep-
  // configured caller still gets the localized (and empty-seed no-op)
  // semantics the incremental contract promises.
  refine.engine = RefineEngine::Worklist;
  refine.seeded = true;
  refine.seed = std::span<const Vertex>(rw.seed);
  out.refine_stats = minmax_refine(g, out.coloring, w, refine, &rw);
  out.phase_refine = report_phase(g, w, out.coloring, phase_timer.seconds());

  out.balance = balance_report(w, out.coloring);
  const auto bc = class_boundary_costs(g, out.coloring);
  out.max_boundary = norm_inf(bc);
  out.avg_boundary = norm1(bc) / options.k;

  // Boundary-growth envelope against the last FULL solve.  Boundary cost
  // is weight-independent and seeded refinement is monotone non-increasing
  // from the prior, so along an incremental chain this fires only when the
  // chain has genuinely drifted past the envelope.
  const double baseline = prior.baseline_max_boundary > 0.0
                              ? prior.baseline_max_boundary
                              : prior.max_boundary;
  if (baseline > 0.0 && out.max_boundary >
                            options.incremental.max_boundary_growth * baseline +
                                1e-9)
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
  if (options.prior != nullptr) {
    // The context strips `prior` from its cached options (a borrowed
    // pointer must not outlive this call), so route prior-bearing options
    // through the splitter overload against the context's wired splitter.
    return mmd::decompose(g, w, options, ctx.splitter(), &ctx.workspace());
  }
  return ctx.decompose(w);
}

MultiDecomposeResult decompose_multi(const Graph& g, std::span<const double> psi,
                                     std::span<const MeasureRef> extra_measures,
                                     const DecomposeOptions& options,
                                     ISplitter& splitter,
                                     DecomposeWorkspace* ws) {
  DecomposeWorkspace local_ws;
  DecomposeWorkspace& wsr = ws ? *ws : local_ws;
  MMD_REQUIRE(options.k >= 1, "k must be >= 1");
  MMD_REQUIRE(options.p > 1.0, "p must exceed 1");
  MMD_REQUIRE(static_cast<Vertex>(psi.size()) == g.num_vertices(),
              "psi arity mismatch");
  for (const MeasureRef& m : extra_measures)
    MMD_REQUIRE(static_cast<Vertex>(m.size()) == g.num_vertices(),
                "extra measure arity mismatch");
  splitter.set_exec_control(options.exec);
  splitter.set_diagnostics(options.diagnostics);
  options.exec.check();

  MultiDecomposeResult out;
  out.sigma_p = options.sigma_p > 0.0 ? options.sigma_p
                                      : default_sigma_p(g, options.p);
  out.bound = theorem4_bound(g, options.p, out.sigma_p, options.k);
  const std::vector<double> pi =
      splitting_cost_measure(g, options.p, out.sigma_p);

  // Proposition 7 with the user measures (psi, Phi(1..r)).
  std::vector<MeasureRef> user;
  user.reserve(extra_measures.size() + 1);
  user.push_back(psi);
  user.insert(user.end(), extra_measures.begin(), extra_measures.end());
  Coloring chi = minmax_balance(g, options.k, pi, user, splitter,
                                options.rebalance, nullptr, &wsr);

  // Strictify psi while keeping the extra measures light in moved parts.
  if (options.use_strictify && options.k > 1)
    chi = strictify_almost(g, chi, psi, pi, splitter, options.strictify,
                           nullptr, extra_measures, &wsr);
  if (options.use_binpack2 && options.k > 1)
    chi = binpack2(g, chi, psi, splitter, nullptr, &wsr);
  if (options.use_refinement && options.use_binpack2 && options.k > 1) {
    options.exec.check();
    MinmaxRefineOptions refine = options.refine;
    refine.exec = options.exec;
    minmax_refine(g, chi, psi, refine, &wsr.refine);
  }

  out.coloring = std::move(chi);
  out.psi_balance = balance_report(psi, out.coloring);
  for (const MeasureRef& m : extra_measures)
    out.weak_factors.push_back(weak_balance_factor(m, out.coloring));
  const auto bc = class_boundary_costs(g, out.coloring);
  out.max_boundary = norm_inf(bc);
  out.avg_boundary = norm1(bc) / options.k;
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
