#include "core/refine.hpp"

#include <algorithm>
#include <cmath>

#include "util/norms.hpp"

namespace mmd {

namespace {

constexpr double kTol = 1e-12;

/// State of the worklist refinement.  All scratch lives in the
/// RefineWorkspace; nothing here allocates once the workspace is warm.
class Refiner {
 public:
  Refiner(const Graph& g, Coloring& chi, std::span<const double> w,
          const MinmaxRefineOptions& options, RefineWorkspace& ws,
          MinmaxRefineStats& stats)
      : g_(g), chi_(chi), w_(w), opt_(options), ws_(ws), stats_(stats),
        n_(g.num_vertices()), k_(chi.k) {
    grow(ws_.bc, k_);
    grow(ws_.cw, k_);
    grow(ws_.toward, k_);
    grow(ws_.touched, k_);
    if (ws_.class_seen.size() < static_cast<std::size_t>(k_)) {
      ws_.class_seen.assign(static_cast<std::size_t>(k_), 0);
      ws_.class_epoch = 0;
    }
    if (ws_.in_queue.size() < static_cast<std::size_t>(n_)) {
      ws_.in_queue.assign(static_cast<std::size_t>(n_), 0);
      ws_.queue_epoch = 0;
    }

    compute_boundary_costs();
    std::fill_n(ws_.cw.begin(), k_, 0.0);
    for (Vertex v = 0; v < n_; ++v)
      ws_.cw[static_cast<std::size_t>(chi_[v])] += w_[static_cast<std::size_t>(v)];

    recompute_max();
    total_bc_ = 0.0;
    for (int i = 0; i < k_; ++i) total_bc_ += ws_.bc[static_cast<std::size_t>(i)];

    avg_ = norm1(w_) / k_;
    slack_ = opt_.balance_slack * (1.0 - 1.0 / k_) * norm_inf(w_) +
             1e-12 * std::max(1.0, avg_);
  }

  double cur_max() const { return cur_max_; }

  /// Exact maximum boundary recomputed from the graph (absorbs FP drift).
  double exact_max_boundary() {
    compute_boundary_costs();
    double m = 0.0;
    for (int i = 0; i < k_; ++i) m = std::max(m, ws_.bc[static_cast<std::size_t>(i)]);
    return m;
  }

  /// Per round, walk the boundary vertices in ascending id; when a move
  /// is accepted, re-enqueue only its still-ahead neighbors (an id-ordered
  /// heap merged with the seed walk) and leave the ones behind the scan
  /// pointer to the next round's reseed.
  ///
  /// This visits exactly the vertices on which a full sweep pass (try_move
  /// on every vertex in id order) is not a provable no-op, in the sweep's
  /// order: a vertex that was interior at round start and whose
  /// neighborhood has not changed stays interior, and interior vertices
  /// never move.  The trajectory — and therefore the result — is
  /// bit-identical to repeated sweep passes, at the sparse cost of the
  /// boundary neighborhood instead of n evaluations per pass.
  void run() {
    bool dense = false;       // carry dense mode across rounds while it pays
    bool have_cands = false;  // sparse rounds can reseed incrementally
    for (int round = 0; round < opt_.max_passes; ++round) {
      opt_.exec.check();  // round-boundary checkpoint (cancel bound: 1 round)
      if (!dense) {
        // A vertex can only be boundary at this round's start if it was
        // boundary at the previous round's start or a neighbor moved in
        // between — so the previous seeds plus the dirtied vertices cover
        // the new boundary, and the O(n + m) full scan is needed once.
        const bool seeded_round0 = round == 0 && opt_.seeded;
        if (!(have_cands ? seed_from_candidates()
                         : seeded_round0 ? seed_from_span() : seed_full()))
          break;
        dense = ws_.queue.size() * 8 > static_cast<std::size_t>(n_);
        have_cands = false;
      }
      ++stats_.rounds;
      const int moves_before = stats_.moves;
      if (dense) {
        // Dense boundary: a plain sweep pass is the same trajectory
        // without the scheduling overhead (or the boundary scan).
        for (Vertex v = 0; v < n_; ++v) {
          ++stats_.pops;
          try_move(v);
        }
        const int moved = stats_.moves - moves_before;
        if (moved == 0) break;
        // Stay dense while the pass still moves a large fraction;
        // otherwise fall back to seeding the sparse machinery.
        dense = static_cast<std::size_t>(moved) * 16 > static_cast<std::size_t>(n_);
        continue;
      }
      std::vector<Vertex>& heap = ws_.heap;
      heap.clear();
      ws_.dirty.clear();
      std::size_t qi = 0;
      while (qi < ws_.queue.size() || !heap.empty()) {
        Vertex v;
        if (!heap.empty() &&
            (qi == ws_.queue.size() || heap.front() < ws_.queue[qi])) {
          std::pop_heap(heap.begin(), heap.end(), std::greater<>());
          v = heap.back();
          heap.pop_back();
        } else {
          v = ws_.queue[qi++];
        }
        ++stats_.pops;
        if (try_move(v)) {
          // Neighbors ahead of the scan pointer get re-examined this
          // round (as a sweep pass would); the rest are recorded as seed
          // candidates for the next round's incremental reseed.
          for (const HalfEdge& h : g_.incidence(v)) {
            if (ws_.in_queue[static_cast<std::size_t>(h.to)] == ws_.queue_epoch)
              continue;  // already scheduled / recorded this round
            ws_.in_queue[static_cast<std::size_t>(h.to)] = ws_.queue_epoch;
            ws_.dirty.push_back(h.to);
            if (h.to > v) {
              heap.push_back(h.to);
              std::push_heap(heap.begin(), heap.end(), std::greater<>());
            }
          }
        }
      }
      if (stats_.moves == moves_before) break;
      // Next round's candidates: this round's seeds plus every dirtied
      // vertex (the two lists are disjoint — seeds were stamped when
      // seeded, so dirty records only non-seeds).
      std::swap(ws_.cand, ws_.queue);
      ws_.cand.insert(ws_.cand.end(), ws_.dirty.begin(), ws_.dirty.end());
      have_cands = true;
    }
  }

 private:
  template <typename T>
  static void grow(std::vector<T>& v, int size) {
    if (v.size() < static_cast<std::size_t>(size))
      v.resize(static_cast<std::size_t>(size));
  }

  void compute_boundary_costs() {
    std::fill_n(ws_.bc.begin(), k_, 0.0);
    for (Vertex v = 0; v < n_; ++v) {
      const std::int32_t c = chi_[v];
      double cross = 0.0;
      for (const HalfEdge& h : g_.incidence(v))
        if (chi_[h.to] != c) cross += h.cost;
      ws_.bc[static_cast<std::size_t>(c)] += cross;
    }
  }

  void recompute_max() {
    cur_max_ = 0.0;
    for (int i = 0; i < k_; ++i)
      cur_max_ = std::max(cur_max_, ws_.bc[static_cast<std::size_t>(i)]);
    at_max_ = 0;
    for (int i = 0; i < k_; ++i)
      if (ws_.bc[static_cast<std::size_t>(i)] >= cur_max_ - kTol) ++at_max_;
  }

  /// Threshold-counter update of (cur_max_, at_max_) after bc[from]/bc[to]
  /// change.  Accepted moves never raise the max, so the only event to
  /// catch is the last max-level class dropping — then an O(k) recompute.
  void apply_boundary_change(std::int32_t from, double new_from,
                             std::int32_t to, double new_to) {
    auto& bf = ws_.bc[static_cast<std::size_t>(from)];
    auto& bt = ws_.bc[static_cast<std::size_t>(to)];
    if (bf >= cur_max_ - kTol) --at_max_;
    if (bt >= cur_max_ - kTol) --at_max_;
    bf = new_from;
    bt = new_to;
    if (bf >= cur_max_ - kTol) ++at_max_;
    if (bt >= cur_max_ - kTol) ++at_max_;
    if (at_max_ <= 0) recompute_max();
  }

  void bump_epoch() {
    if (++ws_.queue_epoch == 0) {
      std::fill(ws_.in_queue.begin(), ws_.in_queue.end(), 0u);
      ws_.queue_epoch = 1;
    }
  }

  bool is_boundary(Vertex v) const {
    const std::int32_t c = chi_[v];
    for (const HalfEdge& h : g_.incidence(v))
      if (chi_[h.to] != c) return true;
    return false;
  }

  bool seed_full() {
    ws_.queue.clear();
    bump_epoch();
    for (Vertex v = 0; v < n_; ++v)
      if (is_boundary(v)) push(v);
    return !ws_.queue.empty();
  }

  /// Seeded round 0 (MinmaxRefineOptions::seeded): visit only the boundary
  /// members of the caller-supplied span.  Duplicates collapse via the
  /// epoch stamp; the sort restores the sweep's id order.  An empty seed
  /// returns false — the caller asked for "refine nothing".
  bool seed_from_span() {
    ws_.queue.clear();
    bump_epoch();
    for (const Vertex v : opt_.seed)
      if (is_boundary(v)) push(v);
    std::sort(ws_.queue.begin(), ws_.queue.end());
    return !ws_.queue.empty();
  }

  /// Reseed from the previous round's seeds and dirtied vertices; the
  /// candidate list covers the new boundary (see run_worklist), but is
  /// unsorted, so seeds are re-sorted to preserve the sweep's id order.
  bool seed_from_candidates() {
    ws_.queue.clear();
    bump_epoch();
    for (const Vertex v : ws_.cand)
      if (is_boundary(v)) push(v);
    std::sort(ws_.queue.begin(), ws_.queue.end());
    return !ws_.queue.empty();
  }

  void push(Vertex v) {
    auto& mark = ws_.in_queue[static_cast<std::size_t>(v)];
    if (mark == ws_.queue_epoch) return;
    mark = ws_.queue_epoch;
    ws_.queue.push_back(v);
  }

  /// Evaluate v against every class it touches; apply the first accepted
  /// move.  Acceptance is the seed sweep's: strict balance feasibility
  /// plus lexicographic improvement of (max, total) boundary — the
  /// equivalence suite's sweep oracle repeats this arithmetic exactly.
  bool try_move(Vertex v) {
    const std::int32_t from = chi_[v];
    if (++ws_.class_epoch == 0) {
      std::fill(ws_.class_seen.begin(), ws_.class_seen.end(), 0u);
      ws_.class_epoch = 1;
    }
    const std::uint32_t epoch = ws_.class_epoch;

    int ntouch = 0;
    double toward_all = 0.0;
    bool boundary_vertex = false;
    for (const HalfEdge& h : g_.incidence(v)) {
      const std::int32_t c = chi_[h.to];
      // Epoch stamp, not a value sentinel: classes reached only through
      // cost-0 edges are still registered exactly once.
      if (ws_.class_seen[static_cast<std::size_t>(c)] != epoch) {
        ws_.class_seen[static_cast<std::size_t>(c)] = epoch;
        ws_.toward[static_cast<std::size_t>(c)] = 0.0;
        ws_.touched[static_cast<std::size_t>(ntouch++)] = c;
      }
      ws_.toward[static_cast<std::size_t>(c)] += h.cost;
      toward_all += h.cost;
      if (c != from) boundary_vertex = true;
    }
    if (!boundary_vertex) return false;

    const double wv = w_[static_cast<std::size_t>(v)];
    // Balance feasibility of removing v from its class is target-agnostic.
    if (std::abs(ws_.cw[static_cast<std::size_t>(from)] - wv - avg_) > slack_)
      return false;
    const double s_from = ws_.class_seen[static_cast<std::size_t>(from)] == epoch
                              ? ws_.toward[static_cast<std::size_t>(from)]
                              : 0.0;
    const double new_from = ws_.bc[static_cast<std::size_t>(from)] + s_from -
                            (toward_all - s_from);
    std::int32_t best_to = -1;
    double best_new_to = 0.0, best_new_total = 0.0;
    for (int t = 0; t < ntouch; ++t) {
      const std::int32_t to = ws_.touched[static_cast<std::size_t>(t)];
      if (to == from) continue;
      if (std::abs(ws_.cw[static_cast<std::size_t>(to)] + wv - avg_) > slack_)
        continue;
      const double s_to = ws_.toward[static_cast<std::size_t>(to)];
      // Boundary deltas (only `from` and `to` change; third-party classes
      // see v as foreign before and after).
      const double new_to = ws_.bc[static_cast<std::size_t>(to)] +
                            (toward_all - s_to) - s_to;
      const double new_total = total_bc_ +
                               (new_from - ws_.bc[static_cast<std::size_t>(from)]) +
                               (new_to - ws_.bc[static_cast<std::size_t>(to)]);
      // Lexicographic acceptance: the pairwise max must not exceed the
      // current global max, and (max, total) must strictly improve.
      const double pair_max = std::max(new_from, new_to);
      if (pair_max > cur_max_ + kTol) continue;
      const bool improves_max =
          (ws_.bc[static_cast<std::size_t>(from)] >= cur_max_ - kTol ||
           ws_.bc[static_cast<std::size_t>(to)] >= cur_max_ - kTol) &&
          pair_max < cur_max_ - kTol;
      const bool improves_total = new_total < total_bc_ - kTol;
      if (!improves_max && !improves_total) continue;

      best_to = to;
      best_new_to = new_to;
      best_new_total = new_total;
      break;  // seed sweep rule: take the first accepted candidate
    }
    if (best_to < 0) return false;

    chi_[v] = best_to;
    ws_.cw[static_cast<std::size_t>(from)] -= wv;
    ws_.cw[static_cast<std::size_t>(best_to)] += wv;
    apply_boundary_change(from, new_from, best_to, best_new_to);
    total_bc_ = best_new_total;
    ++stats_.moves;
    return true;
  }

  const Graph& g_;
  Coloring& chi_;
  std::span<const double> w_;
  const MinmaxRefineOptions& opt_;
  RefineWorkspace& ws_;
  MinmaxRefineStats& stats_;
  const Vertex n_;
  const int k_;
  double avg_ = 0.0, slack_ = 0.0;
  double total_bc_ = 0.0;
  double cur_max_ = 0.0;
  int at_max_ = 0;
};

}  // namespace

MinmaxRefineStats minmax_refine(const Graph& g, Coloring& chi,
                                std::span<const double> w,
                                const MinmaxRefineOptions& options,
                                RefineWorkspace* ws) {
  validate_coloring(g, chi, /*require_total=*/true);
  MMD_REQUIRE(static_cast<Vertex>(w.size()) == g.num_vertices(),
              "weight arity mismatch");
  MinmaxRefineStats stats;
  RefineWorkspace local;
  RefineWorkspace& scratch = ws != nullptr ? *ws : local;

  Refiner refiner(g, chi, w, options, scratch, stats);
  stats.max_boundary_before = refiner.cur_max();
  if (chi.k <= 1) {
    stats.max_boundary_after = stats.max_boundary_before;
    return stats;
  }

  refiner.run();

  // Recompute exactly to absorb floating-point drift.
  stats.max_boundary_after = refiner.exact_max_boundary();
  return stats;
}

}  // namespace mmd
