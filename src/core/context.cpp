#include "core/context.hpp"

#include <cmath>
#include <string>

namespace mmd {

void require_thread_count(int count, const char* name) {
  MMD_REQUIRE(count >= 1 && count <= kMaxThreads,
              std::string(name) + " must be in [1, " +
                  std::to_string(kMaxThreads) + "]");
}

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

std::optional<DecomposeResult> RepartitionChain::try_incremental(
    const Graph& g, const DecomposeOptions& options,
    DecomposeWorkspace* ws) const {
  if (!prior_valid_) return std::nullopt;
  PriorSolution prior;
  prior.coloring = &prior_coloring_;
  prior.max_boundary = prior_max_boundary_;
  prior.baseline_max_boundary = baseline_max_boundary_;
  prior.dirty = dirty_;
  return try_incremental_repartition(g, weights_, prior, options, ws);
}

long RepartitionChain::migration_from_prior(const Coloring& coloring) const {
  return prior_valid_ ? count_migration(prior_coloring_, coloring) : -1;
}

void RepartitionChain::adopt(const Coloring& coloring, double max_boundary,
                             bool incremental) {
  Coloring staged = coloring;  // the one throwing step, before any commit
  prior_coloring_ = std::move(staged);
  prior_max_boundary_ = max_boundary;
  if (!incremental) baseline_max_boundary_ = max_boundary;
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
  reconcile(options);
}

DecomposeContext::~DecomposeContext() = default;

void DecomposeContext::reconcile(const DecomposeOptions& options) {
  require_thread_count(options.num_threads, "num_threads");
  MMD_REQUIRE(options.fork_depth >= 0, "fork_depth must be >= 0");
  // Only the splitter kind is structural; the stamped per-call state
  // (sweep mode, fork depth, exec, diagnostics) never forces a rebuild.
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
    splitter_ = make_default_splitter(*g_, options.splitter);
    ++stats_.splitter_builds;
  }
  if (splitter_stale || pool_stale) splitter_->set_thread_pool(thread_pool());
  // Never cache a caller's exec or sink: its token and sink only have to
  // outlive the one call that carried them.  `options` may alias options_.
  const ExecControl exec = options_.exec;
  DecomposeDiagnostics* const diagnostics = options_.diagnostics;
  options_ = options;
  options_.exec = exec;
  options_.diagnostics = diagnostics;
  // Per-call state invalidates nothing, so it is simply re-stamped; each
  // call stamps its own exec and sink on entry, and Restamp puts the bound
  // ones back when it ends.
  stamp_splitter(*splitter_, options_);
}

DecomposeResult DecomposeContext::decompose(std::span<const double> w) {
  return decompose(w, options_);
}

DecomposeResult DecomposeContext::decompose(std::span<const double> w,
                                            const DecomposeOptions& options) {
  ExclusiveUse::Claim claim = claim_use();
  reconcile(options);
  const Restamp restamp{*this};
  ++stats_.decompose_calls;
  return mmd::decompose(*g_, w, options, *splitter_, ws_);
}

void DecomposeContext::set_weights(std::span<const double> w) {
  ExclusiveUse::Claim claim = claim_use();
  chain_.set_weights(w);
}

std::size_t DecomposeContext::update_weights(std::span<const WeightDelta> deltas) {
  ExclusiveUse::Claim claim = claim_use();
  return chain_.update_weights(deltas);
}

DecomposeResult DecomposeContext::repartition(
    std::span<const WeightDelta> deltas) {
  return repartition(deltas, options_);
}

DecomposeResult DecomposeContext::repartition(
    std::span<const WeightDelta> deltas, const DecomposeOptions& options) {
  ExclusiveUse::Claim claim = claim_use();
  reconcile(options);
  const Restamp restamp{*this};
  chain_.update_weights(deltas);
  ++stats_.repartition_calls;
  std::optional<DecomposeResult> r = chain_.try_incremental(*g_, options, ws_);
  if (r) {
    ++stats_.incremental_served;
  } else {
    r = mmd::decompose(*g_, chain_.weights(), options, *splitter_, ws_);
    // A full solve escalated exactly when a prior was cached.
    r->migration_cost = chain_.migration_from_prior(r->coloring);
    r->escalated = r->migration_cost >= 0;
    if (r->escalated) ++stats_.escalations;
  }
  chain_.adopt(r->coloring, r->max_boundary, r->incremental);
  return std::move(*r);
}

MultiDecomposeResult DecomposeContext::decompose_multi(
    std::span<const double> psi, std::span<const MeasureRef> extra_measures) {
  return decompose_multi(psi, extra_measures, options_);
}

MultiDecomposeResult DecomposeContext::decompose_multi(
    std::span<const double> psi, std::span<const MeasureRef> extra_measures,
    const DecomposeOptions& options) {
  ExclusiveUse::Claim claim = claim_use();
  reconcile(options);
  const Restamp restamp{*this};
  ++stats_.decompose_calls;
  return mmd::decompose_multi(*g_, psi, extra_measures, options, *splitter_,
                              ws_);
}

std::size_t DecomposeContext::memory_estimate_bytes() const {
  return sizeof(*this) + splitter_estimate_bytes(*g_) + chain_.memory_bytes() +
         own_ws_.memory_bytes();
}

}  // namespace mmd
