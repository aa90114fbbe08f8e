#include "separators/prefix_splitter.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "separators/fm_refine.hpp"
#include "separators/orderings.hpp"
#include "util/thread_pool.hpp"

namespace mmd {

SplitResult PrefixSplitter::split(const SplitRequest& request) {
  split_entry_checkpoint();
  MMD_REQUIRE(request.g != nullptr, "null graph in split request");
  const Graph& g = *request.g;
  in_w_.ensure(g.num_vertices());
  in_w_.assign(request.w_list);
  if (slots_.empty()) slots_.push_back(std::make_unique<EvalSlot>());
  EvalSlot& slot0 = *slots_.front();
  slot0.in_u.ensure(g.num_vertices());

  // w(W) and ||w|W||_inf are invariant across every candidate order of
  // this split: summed once here, consumed by every SweepEval evaluation
  // and by the FM window below.
  const SubsetWeightStats stats =
      subset_weight_stats(request.weights, request.w_list);
  const SweepMode mode = sweep_mode();

  // The candidate family — BFS, then the cached coordinate sweeps, then
  // Morton — is fixed up front so the serial loop and the parallel path
  // enumerate (and tie-break) the exact same indexed sequence.
  int num_sweeps = 0;
  bool morton = false;
  if (options_.use_coordinate_sweeps && g.has_coords()) {
    cache_->bind(g);
    // Same sweep family as the seed: lexicographic, per-axis (cached
    // global orders restricted to W), and — in dimension >= 2, where it
    // differs from lexicographic — Morton anchored at W's bounding box.
    num_sweeps = cache_->num_orders();
    morton = g.dim() >= 2;
  }
  const int candidates =
      (options_.use_bfs ? 1 : 0) + num_sweeps + (morton ? 1 : 0);

  // Candidates fan out only from outside the pool: inside a pooled task
  // (a lane-tree leaf, a strictify extraction) the nested run() executes
  // inline, so the fan-out would merely skip pruning and hold one n-sized
  // slot per candidate on every lane.
  SplitResult best;
  if (thread_pool() != nullptr && candidates >= 2 &&
      !ThreadPool::on_worker_thread()) {
    best = split_parallel(request, stats, num_sweeps, morton);
  } else {
    bool have_best = false;
    auto consider = [&](std::span<const Vertex> order) {
      exec_control().check();  // candidate-boundary checkpoint
      // One fused scan per candidate; once an incumbent exists, a
      // candidate whose partial cost already reaches it is abandoned
      // (it could never win the strictly-cheaper comparison below).
      const double bound = have_best ? best.boundary_cost
                                     : std::numeric_limits<double>::infinity();
      const SweepEvalResult r =
          slot0.sweep.eval(g, order, request.weights, request.target, stats,
                           in_w_, slot0.in_u, mode, bound);
      if (r.pruned) return;
      if (!have_best || r.cost < best.boundary_cost) {
        best.inside.assign(order.begin(),
                           order.begin() + static_cast<std::ptrdiff_t>(r.prefix_len));
        best.weight = r.weight;
        best.boundary_cost = r.cost;
        have_best = true;
      }
    };

    if (options_.use_bfs) {
      pseudo_peripheral_bfs_order_into(g, request.w_list, slot0.bfs,
                                       slot0.order);
      consider(slot0.order);
    }
    for (int idx = 0; idx < num_sweeps; ++idx) {
      cache_->subset_order(idx, request.w_list, &in_w_, slot0.order,
                           slot0.radix);
      consider(slot0.order);
    }
    if (morton) {
      cache_->subset_morton_order(request.w_list, slot0.order, slot0.radix);
      consider(slot0.order);
    }
    if (!have_best) {  // coordinate-free fallback: id order
      consider(request.w_list);
    }
  }

  if (options_.refine && !best.inside.empty() &&
      best.inside.size() < request.w_list.size()) {
    constexpr int kFmMaxPasses = 3;
    FmOptions fm;
    fm.max_passes = kFmMaxPasses;
    fm_refine_split(g, request.w_list, request.weights, request.target, best,
                    fm, in_w_, slot0.in_u, stats);
  }
  return best;
}

SplitResult PrefixSplitter::split_parallel(const SplitRequest& request,
                                           const SubsetWeightStats& stats,
                                           int num_sweeps, bool morton) {
  const Graph& g = *request.g;
  const SweepMode mode = sweep_mode();
  const int bfs = options_.use_bfs ? 1 : 0;
  const int count = bfs + num_sweeps + (morton ? 1 : 0);
  while (slots_.size() < static_cast<std::size_t>(count))
    slots_.push_back(std::make_unique<EvalSlot>());

  // Each candidate writes only its own slot; in_w_ and cache_ are shared
  // read-only (cache_ was bound before the fork, scratch is per slot).
  // No incumbent exists across concurrent evaluations, so slots evaluate
  // unpruned — the reduction below still matches the serial loop's winner
  // because serial pruning only discards candidates with cost >= the
  // incumbent, which the strictly-cheaper reduction rejects anyway.
  thread_pool()->run(count, [&](int i) {
    EvalSlot& slot = *slots_[static_cast<std::size_t>(i)];
    if (i < bfs) {
      pseudo_peripheral_bfs_order_into(g, request.w_list, slot.bfs,
                                       slot.order);
    } else if (i - bfs < num_sweeps) {
      cache_->subset_order(i - bfs, request.w_list, &in_w_, slot.order,
                           slot.radix);
    } else {
      cache_->subset_morton_order(request.w_list, slot.order, slot.radix);
    }
    slot.in_u.ensure(g.num_vertices());
    slot.res = slot.sweep.eval(g, slot.order, request.weights, request.target,
                               stats, in_w_, slot.in_u, mode);
  });

  // Serial reduction in candidate-index order: the first slot of strictly
  // minimal cost wins, exactly the serial loop's accept-if-strictly-less.
  int best_idx = 0;
  for (int i = 1; i < count; ++i)
    if (slots_[static_cast<std::size_t>(i)]->res.cost <
        slots_[static_cast<std::size_t>(best_idx)]->res.cost)
      best_idx = i;

  const EvalSlot& winner = *slots_[static_cast<std::size_t>(best_idx)];
  SplitResult best;
  best.inside.assign(
      winner.order.begin(),
      winner.order.begin() + static_cast<std::ptrdiff_t>(winner.res.prefix_len));
  best.weight = winner.res.weight;
  best.boundary_cost = winner.res.cost;
  return best;
}

}  // namespace mmd
