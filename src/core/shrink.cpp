#include "core/shrink.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "graph/subgraph.hpp"
#include "util/thread_pool.hpp"

namespace mmd {

namespace {

/// deg_W measure: degree of v inside G[W] (Section 5 uses it to force the
/// geometric size decrease of condition (c)).
std::vector<double> degree_measure(const Graph& g, std::span<const Vertex> w_list,
                                   DecomposeWorkspace& ws) {
  std::vector<double> deg(static_cast<std::size_t>(g.num_vertices()), 0.0);
  const auto in_w = ws.membership(g.num_vertices());
  in_w->assign(w_list);
  for (Vertex v : w_list) {
    int d = 0;
    for (Vertex u : g.neighbors_unchecked(v))
      if (in_w->contains(u)) ++d;
    deg[static_cast<std::size_t>(v)] = d;
  }
  return deg;
}

/// Boundary measures of all classes in one pass: out[v] = c(delta(v) cap
/// delta(U)) for v in W, U the class of v under `cls_of` (which colors
/// exactly W).  The classes are disjoint, so each entry is the sum the
/// per-class boundary_measure_of forms, over the same edges in the same
/// order; entries outside W are left as they are.
void class_boundary_measures(const Graph& g, std::span<const Vertex> w_list,
                             const Coloring& cls_of, std::vector<double>& out) {
  out.resize(static_cast<std::size_t>(g.num_vertices()), 0.0);
  for (Vertex v : w_list) {
    const std::int32_t c = cls_of[v];
    double s = 0.0;
    for (const HalfEdge& h : g.incidence(v))
      if (cls_of[h.to] != c) s += h.cost;
    out[static_cast<std::size_t>(v)] = s;
  }
}

}  // namespace

ShrinkOutput shrink_once(const Graph& g, std::span<const Vertex> w_list,
                         const Coloring& chi, std::span<const double> w,
                         std::span<const double> pi, ISplitter& splitter,
                         const ShrinkParams& params,
                         std::span<const MeasureRef> preserve,
                         DecomposeWorkspace* ws) {
  DecomposeWorkspace local_ws;
  DecomposeWorkspace& wsr = ws ? *ws : local_ws;
  MMD_REQUIRE(params.eps > 0.0 && params.eps < 1.0, "eps in (0,1)");
  const int k = chi.k;
  MMD_REQUIRE(k >= 1, "coloring must have k >= 1");

  const double total = set_measure(w, w_list);
  const double psi_star = total / k;
  MMD_REQUIRE(psi_star > 0.0, "shrink needs positive total weight");
  const double eps = params.eps;

  // Tentative classes of chi~ restricted to W.
  std::vector<std::vector<Vertex>> cls(static_cast<std::size_t>(k));
  for (Vertex v : w_list) {
    const std::int32_t c = chi[v];
    MMD_REQUIRE(c >= 0 && c < k, "chi must color exactly W");
    cls[static_cast<std::size_t>(c)].push_back(v);
  }
  std::vector<double> cw(static_cast<std::size_t>(k), 0.0);
  for (int i = 0; i < k; ++i) cw[static_cast<std::size_t>(i)] = set_measure(w, cls[static_cast<std::size_t>(i)]);

  // The weak-balance factor M the input is assumed to meet, raised to fit
  // an input that misses it.
  constexpr double kWeakBalanceM = 8.0;
  double big_m = kWeakBalanceM;
  for (double x : cw) big_m = std::max(big_m, 2.0 * x / psi_star + 1.0);

  ShrinkOutput out;
  const std::vector<double> deg_w = degree_measure(g, w_list, wsr);
  std::vector<double> bnd_scratch;  // boundary measure of the current donor
  std::vector<Vertex> bnd_touched;  // entries of bnd_scratch to re-zero
  const auto bnd_membership = wsr.membership(g.num_vertices());

  const auto removed_lease = wsr.membership(g.num_vertices());
  Membership& removed = *removed_lease;
  auto erase_part = [&](int color, std::span<const Vertex> part) {
    removed.assign(part);
    auto& c = cls[static_cast<std::size_t>(color)];
    c = set_difference(c, removed);
    const double pw = set_measure(w, part);
    cw[static_cast<std::size_t>(color)] -= pw;
    return pw;
  };
  auto paint_part = [&](int color, std::vector<Vertex> part) {
    const double pw = set_measure(w, part);
    auto& c = cls[static_cast<std::size_t>(color)];
    c.insert(c.end(), part.begin(), part.end());
    cw[static_cast<std::size_t>(color)] += pw;
  };

  // The three extraction measures of Section 5: Phi(1) = pi, Phi(2) =
  // deg_W, and the boundary measure of the donor class (Cor. 16-18's
  // Phi(r)).
  auto extraction_measures = [&](std::span<const Vertex> donor) {
    boundary_measure_of(g, donor, bnd_scratch, bnd_touched, *bnd_membership);
    std::vector<MeasureRef> ms{pi, deg_w, bnd_scratch};
    ms.insert(ms.end(), preserve.begin(), preserve.end());
    return ms;
  };

  std::vector<std::vector<Vertex>> buffer;

  // Step (2): CutDown heavy classes to <= M/2 * Psi*.
  for (int i = 0; i < k; ++i) {
    int guard = 0;
    while (cw[static_cast<std::size_t>(i)] > big_m / 2.0 * psi_star) {
      MMD_REQUIRE(++guard < 4 * static_cast<int>(w_list.size()) + 16,
                  "CutDown diverged");
      const auto aux = extraction_measures(cls[static_cast<std::size_t>(i)]);
      ExtractedPart x = extract_light_part(g, cls[static_cast<std::size_t>(i)], w,
                                           eps * psi_star, aux, splitter, &wsr);
      out.cut_cost += x.cut_cost;
      if (x.part.empty()) break;
      erase_part(i, x.part);
      buffer.push_back(std::move(x.part));
    }
  }

  // Step (3): AddTo light classes until >= eps * Psi*.
  for (int j = 0; j < k; ++j) {
    int guard = 0;
    while (cw[static_cast<std::size_t>(j)] < eps * psi_star) {
      MMD_REQUIRE(++guard < 4 * static_cast<int>(w_list.size()) + 16,
                  "AddTo diverged");
      std::vector<Vertex> part;
      if (!buffer.empty()) {
        part = std::move(buffer.back());
        buffer.pop_back();
      } else {
        // Donor: the heaviest class (paper: any class >= Psi*/2).
        const int donor = static_cast<int>(
            std::max_element(cw.begin(), cw.end()) - cw.begin());
        MMD_REQUIRE(donor != j && cw[static_cast<std::size_t>(donor)] >= psi_star / 2.0,
                    "AddTo found no donor class");
        const auto aux = extraction_measures(cls[static_cast<std::size_t>(donor)]);
        ExtractedPart x = extract_light_part(g, cls[static_cast<std::size_t>(donor)],
                                             w, eps * psi_star, aux, splitter,
                                             &wsr);
        out.cut_cost += x.cut_cost;
        MMD_REQUIRE(!x.part.empty(), "AddTo donor produced empty part");
        erase_part(donor, x.part);
        part = std::move(x.part);
      }
      paint_part(j, std::move(part));
    }
  }

  // Step (4): ReduceBuffer onto below-average classes.
  while (!buffer.empty()) {
    const int j = static_cast<int>(std::min_element(cw.begin(), cw.end()) -
                                   cw.begin());
    paint_part(j, std::move(buffer.back()));
    buffer.pop_back();
  }

  // Step (5): per-class Corollary 18 extraction -> chi0 on W0.  chi1
  // starts as the classes on all of W; the merge below moves each
  // extracted part over to chi0.
  out.chi0 = Coloring(k, g.num_vertices());
  out.chi1 = Coloring(k, g.num_vertices());
  for (int i = 0; i < k; ++i)
    for (Vertex v : cls[static_cast<std::size_t>(i)]) out.chi1[v] = i;
  // Every entry of W is rewritten, which covers the donor entries steps
  // (2)-(3) left in the scratch; each extraction reads only its class.
  class_boundary_measures(g, w_list, out.chi1, bnd_scratch);
  std::vector<MeasureRef> aux{pi, deg_w, bnd_scratch};
  aux.insert(aux.end(), preserve.begin(), preserve.end());

  // The extractions are independent, so they fan out on the splitter's
  // pool as L = min(pool threads, k) tasks — unless this call already runs
  // inside a pooled task (a nested run() would execute inline anyway) or
  // the splitter has no lanes.  Task 0 runs on this splitter and
  // workspace, task j >= 1 on lane j-1 and lane workspace j-1,
  // materialized here: lane tables must not grow inside the batch.  Tasks
  // claim classes from a shared counter and write only the claimed
  // class's slot; lanes are bit-identical replicas, so the schedule decides
  // who extracts a class, never what is extracted.
  ThreadPool* pool = splitter.thread_pool();
  int tasks = pool != nullptr ? std::min(pool->num_threads(), k) : 1;
  if (tasks >= 2 &&
      (ThreadPool::on_worker_thread() || !splitter.ensure_lanes(tasks - 1)))
    tasks = 1;
  std::vector<ISplitter*> task_splitter{&splitter};
  std::vector<DecomposeWorkspace*> task_ws{&wsr};
  for (int j = 1; j < tasks; ++j) {
    task_splitter.push_back(splitter.lane(j - 1));
    task_ws.push_back(&wsr.lane_workspace(j - 1));
  }
  std::vector<ExtractedPart> parts(static_cast<std::size_t>(k));
  std::atomic<int> next_class{0};
  const auto task = [&](int j) {
    for (int i = next_class.fetch_add(1, std::memory_order_relaxed); i < k;
         i = next_class.fetch_add(1, std::memory_order_relaxed))
      parts[static_cast<std::size_t>(i)] = extract_hitting_part(
          g, cls[static_cast<std::size_t>(i)], w, eps * psi_star, aux,
          *task_splitter[static_cast<std::size_t>(j)],
          task_ws[static_cast<std::size_t>(j)]);
  };
  if (tasks == 1) {
    task(0);
  } else {
    pool->run(tasks, task);
  }

  // Merge in class order, whatever order the extractions finished in:
  // cut costs sum and W0/W1 append exactly as a serial loop would.
  for (int i = 0; i < k; ++i) {
    const ExtractedPart& x = parts[static_cast<std::size_t>(i)];
    out.cut_cost += x.cut_cost;
    for (Vertex v : x.part) {
      out.chi0[v] = i;
      out.chi1[v] = kUncolored;
      out.w0.push_back(v);
    }
    for (Vertex v : cls[static_cast<std::size_t>(i)])
      if (out.chi1[v] == i) out.w1.push_back(v);
  }
  return out;
}

}  // namespace mmd
