#include "core/context.hpp"

#include <cmath>

namespace mmd {

void OwnedPool::rebuild(int num_threads, DecomposeDiagnostics* diag,
                        int& builds, int& failures) {
  pool_.reset();
  threads_ = num_threads;
  if (num_threads <= 1) return;
  try {
    pool_ = std::make_unique<ThreadPool>(num_threads);
    ++builds;
  } catch (...) {
    ++failures;
    diag_report(diag, DiagEvent::PoolConstructFailed,
                "ThreadPool construction failed (thread or memory "
                "exhaustion); degraded to the serial path");
  }
}

void RepartitionChain::set_weights(std::span<const double> w) {
  MMD_REQUIRE(static_cast<Vertex>(w.size()) == n_, "weight arity mismatch");
  for (const double x : w)
    MMD_REQUIRE(std::isfinite(x) && x >= 0.0,
                "weights must be finite and non-negative");
  if (prior_valid_) {
    // A rebind is one big delta batch: the changed vertices join the
    // pending dirty set.  Both allocating steps have no effect when they
    // throw, so a failed rebind leaves the old binding intact.
    std::vector<Vertex> changed;
    for (std::size_t v = 0; v < w.size(); ++v)
      if (w[v] != weights_[v]) changed.push_back(static_cast<Vertex>(v));
    dirty_.insert(dirty_.end(), changed.begin(), changed.end());
  }
  weights_.assign(w.begin(), w.end());  // no alloc once bound: same size
  bound_ = true;
}

std::size_t RepartitionChain::update_weights(
    std::span<const WeightDelta> deltas) {
  MMD_REQUIRE(bound_,
              "the repartition chain has no base weight vector (call "
              "set_weights first)");
  // Validate everything, then reserve (the one throwing operation), then
  // apply through a loop that cannot throw: a failed call mutates nothing.
  for (const WeightDelta& d : deltas) {
    MMD_REQUIRE(d.v >= 0 && d.v < n_, "weight delta vertex out of range");
    MMD_REQUIRE(std::isfinite(d.weight) && d.weight >= 0.0,
                "weight delta must be finite and non-negative");
  }
  dirty_.reserve(dirty_.size() + deltas.size());
  for (const WeightDelta& d : deltas) {
    weights_[static_cast<std::size_t>(d.v)] = d.weight;
    dirty_.push_back(d.v);  // no alloc: reserved above
  }
  return deltas.size();
}

const PriorSolution* RepartitionChain::prior() {
  if (!prior_valid_) return nullptr;
  seed_.coloring = &prior_coloring_;
  seed_.dirty = dirty_;
  return &seed_;
}

void RepartitionChain::adopt(const Coloring& coloring, double max_boundary,
                             bool incremental) {
  Coloring staged = coloring;  // the one throwing step, before any commit
  prior_coloring_ = std::move(staged);
  seed_.max_boundary = max_boundary;
  if (!incremental) seed_.baseline_max_boundary = max_boundary;
  prior_valid_ = true;
  dirty_.clear();
}

std::size_t RepartitionChain::memory_bytes() const {
  return weights_.capacity() * sizeof(double) +
         prior_coloring_.color.capacity() * sizeof(std::int32_t) +
         dirty_.capacity() * sizeof(Vertex);
}

DecomposeContext::DecomposeContext(const Graph& g,
                                   const DecomposeOptions& options,
                                   DecomposeWorkspace* external_ws,
                                   ThreadPool* external_pool)
    : g_(&g), options_(options), external_pool_(external_pool),
      ws_(external_ws ? external_ws : &own_ws_), chain_(g.num_vertices()) {
  MMD_REQUIRE(options.num_threads >= 1, "num_threads must be >= 1");
  reconcile(options);
}

DecomposeContext::~DecomposeContext() = default;

void DecomposeContext::reconcile(const DecomposeOptions& options) {
  MMD_REQUIRE(options.num_threads >= 1, "num_threads must be >= 1");
  MMD_REQUIRE(options.fork_depth >= 0, "fork_depth must be >= 0");
  // The sweep mode is runtime splitter state re-stamped below, not a
  // structural property — changing it never forces a splitter rebuild.
  const bool splitter_stale =
      splitter_ == nullptr || options.splitter != options_.splitter;
  // A borrowed external pool overrides the num_threads ownership logic:
  // the caller decides the pool's lifetime and lane count.
  const bool pool_stale =
      external_pool_ == nullptr && pool_.stale(options.num_threads);

  if (pool_stale) {
    pool_.rebuild(options.num_threads, options.diagnostics, stats_.pool_builds,
                  stats_.pool_construct_failures);
  }
  if (splitter_stale) {
    splitter_ = make_default_splitter(*g_, options);
    ++stats_.splitter_builds;
  }
  if (splitter_stale || pool_stale) splitter_->set_thread_pool(thread_pool());
  // Pure scheduling state: changing the lane-tree depth invalidates
  // nothing (results are bit-identical for every value), so it is simply
  // re-stamped on the splitter on every reconcile.
  splitter_->set_fork_depth(options.fork_depth);
  splitter_->set_sweep_mode(options.sweep_mode);
  options_ = options;
  // Never cache a caller's prior pointer: it borrows storage that only has
  // to outlive the one call that carried it.  The context's own repartition
  // chain re-injects its cached prior per call instead.
  options_.prior = nullptr;
}

DecomposeResult DecomposeContext::decompose(std::span<const double> w) {
  ExclusiveUse::Claim claim = claim_use();
  ++stats_.decompose_calls;
  return mmd::decompose(*g_, w, options_, *splitter_, ws_);
}

DecomposeResult DecomposeContext::decompose(std::span<const double> w,
                                            const DecomposeOptions& options) {
  ExclusiveUse::Claim claim = claim_use();
  reconcile(options);
  return decompose(w);
}

void DecomposeContext::set_weights(std::span<const double> w) {
  ExclusiveUse::Claim claim = claim_use();
  chain_.set_weights(w);
}

std::size_t DecomposeContext::update_weights(std::span<const WeightDelta> deltas) {
  ExclusiveUse::Claim claim = claim_use();
  return chain_.update_weights(deltas);
}

DecomposeResult DecomposeContext::do_repartition(
    std::span<const WeightDelta> deltas) {
  chain_.update_weights(deltas);
  ++stats_.repartition_calls;
  // decompose() tries the seeded path first and escalates to a full solve
  // (counting the migration) when the certificate fires.
  DecomposeOptions opt = options_;
  opt.prior = chain_.prior();
  DecomposeResult r =
      mmd::decompose(*g_, chain_.weights(), opt, *splitter_, ws_);
  if (r.incremental) ++stats_.incremental_served;
  if (r.escalated) ++stats_.escalations;
  chain_.adopt(r.coloring, r.max_boundary, r.incremental);
  return r;
}

DecomposeResult DecomposeContext::repartition(
    std::span<const WeightDelta> deltas) {
  ExclusiveUse::Claim claim = claim_use();
  return do_repartition(deltas);
}

DecomposeResult DecomposeContext::repartition(
    std::span<const WeightDelta> deltas, const DecomposeOptions& options) {
  ExclusiveUse::Claim claim = claim_use();
  reconcile(options);
  return do_repartition(deltas);
}

MultiDecomposeResult DecomposeContext::decompose_multi(
    std::span<const double> psi, std::span<const MeasureRef> extra_measures) {
  ExclusiveUse::Claim claim = claim_use();
  ++stats_.decompose_calls;
  return mmd::decompose_multi(*g_, psi, extra_measures, options_, *splitter_,
                              ws_);
}

MultiDecomposeResult DecomposeContext::decompose_multi(
    std::span<const double> psi, std::span<const MeasureRef> extra_measures,
    const DecomposeOptions& options) {
  ExclusiveUse::Claim claim = claim_use();
  reconcile(options);
  return decompose_multi(psi, extra_measures);
}

std::size_t DecomposeContext::memory_estimate_bytes() const {
  return sizeof(*this) + splitter_estimate_bytes(*g_) + chain_.memory_bytes() +
         own_ws_.memory_bytes();
}

}  // namespace mmd
