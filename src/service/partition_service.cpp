#include "service/partition_service.hpp"

#include <algorithm>

#include "io/metis_io.hpp"
#include "util/timer.hpp"

namespace mmd {

const char* to_string(ServiceStatus status) {
  switch (status) {
    case ServiceStatus::Ok: return "ok";
    case ServiceStatus::Degraded: return "degraded";
    case ServiceStatus::BadRequest: return "bad_request";
    case ServiceStatus::NotFound: return "not_found";
    case ServiceStatus::DeadlineExceeded: return "deadline_exceeded";
    case ServiceStatus::Cancelled: return "cancelled";
    case ServiceStatus::ResourceExhausted: return "resource_exhausted";
    case ServiceStatus::InternalError: return "internal_error";
    case ServiceStatus::ShuttingDown: return "shutting_down";
  }
  return "internal_error";
}

PartitionService::PartitionService(const PartitionServiceOptions& options)
    : options_(options), queue_(options.queue_capacity) {
  MMD_REQUIRE(options.num_workers >= 1, "num_workers must be >= 1");
  // The contexts' pool policy (OwnedPool): the serial round loop computes
  // identical responses, so a pool that cannot be built only reports on
  // diag_.  The service keeps no pool counters of its own.
  int builds = 0, failures = 0;
  pool_.rebuild(options.num_workers, &diag_, builds, failures);
}

PartitionService::~PartitionService() { shutdown(); }

void PartitionService::load_graph(const std::string& name, Graph g,
                                  std::vector<double> weights) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  if (weights.empty()) {
    const std::span<const double> embedded = g.vertex_weights();
    if (embedded.size() == n) {
      weights.assign(embedded.begin(), embedded.end());
    } else {
      weights.assign(n, 1.0);
    }
  }
  MMD_REQUIRE(weights.size() == n, "weight arity mismatch for graph '" + name + "'");

  auto state = std::make_shared<GraphState>();
  state->name = name;
  state->graph = std::move(g);
  state->weights = std::move(weights);

  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = graphs_.find(name);
  if (it != graphs_.end()) {
    // Replace: unlink the old state; a round still pinning it keeps it
    // alive (doomed) until checkin.
    cached_bytes_ -= it->second->cached_bytes;
    it->second->doomed = true;
    graphs_.erase(it);
  }
  state->last_use = ++lru_tick_;
  graphs_.emplace(name, std::move(state));
}

void PartitionService::load_graph_file(const std::string& name,
                                       const std::string& path) {
  GraphWithWeights gw = read_metis_file(path);
  load_graph(name, std::move(gw.graph), std::move(gw.weights));
}

bool PartitionService::evict_graph(const std::string& name) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = graphs_.find(name);
  if (it == graphs_.end()) return false;
  cached_bytes_ -= it->second->cached_bytes;
  it->second->doomed = true;  // a pinning round frees it at checkin
  graphs_.erase(it);
  return true;
}

bool PartitionService::has_graph(const std::string& name) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return graphs_.find(name) != graphs_.end();
}

ServiceResponse PartitionService::execute(const ServiceRequest& request) {
  Pending pending;
  pending.request = &request;
  if (!queue_.push(&pending)) {
    pending.response.status = ServiceStatus::ShuttingDown;
    pending.response.error = "mmd: service is shutting down";
    return std::move(pending.response);
  }

  // Combining leader: whoever finds no round in flight drains the whole
  // backlog (its own request included — some leader always picks it up,
  // since draining is serialized under round_mu_) and serves it as one
  // round; everyone else parks until their flag flips.
  std::unique_lock<std::mutex> lock(round_mu_);
  while (!pending.done) {
    if (!leader_active_) {
      std::vector<Pending*> round;
      if (queue_.try_pop_all(round) == 0) {
        round_cv_.wait(lock);
        continue;
      }
      leader_active_ = true;
      lock.unlock();
      try {
        process_round(round);
      } catch (...) {
        // process_round contains every per-request failure; reaching here
        // means the round scaffolding itself failed (e.g. allocation).
        // Responses still at their default InternalError stay that way.
        for (Pending* p : round) {
          if (p->response.error.empty() &&
              p->response.status == ServiceStatus::InternalError) {
            p->response.error = "mmd: round aborted by an unexpected error";
          }
        }
      }
      lock.lock();
      for (Pending* p : round) p->done = true;
      leader_active_ = false;
      round_cv_.notify_all();
    } else {
      round_cv_.wait(lock);
    }
  }
  return std::move(pending.response);
}

void PartitionService::process_round(std::vector<Pending*>& round) {
  // Group by graph, preserving arrival order within each group — the
  // whole point of batching: every request of a group runs back to back
  // on the same warm context.
  std::vector<Group> groups;
  {
    std::unordered_map<std::string, std::size_t> index;
    for (Pending* p : round) {
      auto [it, inserted] = index.emplace(p->request->graph, groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].requests.push_back(p);
    }
  }

  // Resolve + pin every group's graph up front so an evict_graph racing
  // the round unlinks but never destroys a state mid-use.
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    for (Group& g : groups) {
      auto it = graphs_.find(g.requests.front()->request->graph);
      if (it == graphs_.end()) continue;
      g.state = it->second;
      ++g.state->pins;
      g.state->last_use = ++lru_tick_;
    }
  }

  const auto run_group = [&](int gi) {
    Group& g = groups[static_cast<std::size_t>(gi)];
    for (Pending* p : g.requests) execute_one(g.state.get(), *p);
  };
  if (ThreadPool* pool = pool_.get(); pool != nullptr && groups.size() > 1) {
    // execute_one is exception-contained, so nothing reaches the pool's
    // rethrow path in practice; if something ever does, the caller's
    // catch-all keeps the round's other responses intact.
    pool->run(static_cast<int>(groups.size()), run_group);
  } else {
    for (std::size_t gi = 0; gi < groups.size(); ++gi)
      run_group(static_cast<int>(gi));
  }

  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    for (Group& g : groups) {
      if (g.state != nullptr) checkin_locked(*g.state);
    }
    evict_until_within_budget_locked();
  }

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.rounds;
    if (round.size() > 1) {
      stats_.batched_requests += static_cast<long>(round.size());
    }
  }
}

void PartitionService::execute_one(GraphState* gs, Pending& p) {
  const ServiceRequest& req = *p.request;
  ServiceResponse& resp = p.response;
  Timer timer;
  bool warm = false;
  if (gs == nullptr) {
    resp.status = ServiceStatus::NotFound;
    resp.error = "mmd: graph not loaded: '" + req.graph + "'";
  } else try {
    const std::span<const double> w =
        req.weights.empty() ? std::span<const double>(gs->weights)
                            : std::span<const double>(req.weights);
    MMD_REQUIRE(w.size() == static_cast<std::size_t>(gs->graph.num_vertices()),
                "weight arity mismatch for graph '" + req.graph + "'");

    // Per-call options: the service owns the diagnostics sink, and the
    // relative timeout is armed *now* (execution start), combining with
    // any absolute deadline the caller set (earlier wins).  The caller's
    // CancelToken flows through untouched.
    DecomposeOptions opt = req.options;
    opt.diagnostics = &diag_;
    if (req.timeout_ms >= 0) {
      opt.exec.deadline =
          std::min(opt.exec.deadline,
                   ExecControl::with_timeout_ms(req.timeout_ms).deadline);
    }

    if (req.mode == RequestMode::Decompose) {
      warm = gs->ctx != nullptr;
      if (!warm) {
        // Construct without the per-call exec state; the call below
        // reconciles the full options (construction itself is cheap —
        // splitter caches fill lazily inside the first decompose).
        DecomposeOptions copt = opt;
        copt.exec = ExecControl{};
        gs->ctx = std::make_unique<DecomposeContext>(gs->graph, copt);
      }
      DecomposeResult r = gs->ctx->decompose(w, opt);
      resp.coloring = std::move(r.coloring);
      resp.balance = r.balance;
      resp.max_boundary = r.max_boundary;
      resp.avg_boundary = r.avg_boundary;
      resp.status = ServiceStatus::Ok;
    } else if (req.mode == RequestMode::Repartition) {
      MMD_REQUIRE(req.weights.empty(),
                  "repartition expresses drift via deltas; a full weight "
                  "vector is not accepted (use mode decompose, or rebind "
                  "by reloading the graph)");
      warm = gs->ctx != nullptr;
      if (!warm) {
        DecomposeOptions copt = opt;
        copt.exec = ExecControl{};
        gs->ctx = std::make_unique<DecomposeContext>(gs->graph, copt);
      }
      // First repartition on this context: bind the chain's base weights
      // from the graph's registered weights.
      if (!gs->ctx->has_weights()) gs->ctx->set_weights(gs->weights);
      DecomposeResult r = gs->ctx->repartition(req.deltas, opt);
      resp.coloring = std::move(r.coloring);
      resp.balance = r.balance;
      resp.max_boundary = r.max_boundary;
      resp.avg_boundary = r.avg_boundary;
      resp.migration_cost = r.migration_cost;
      resp.incremental = r.incremental;
      resp.escalated = r.escalated;
      resp.status = ServiceStatus::Ok;
    } else {
      warm = gs->fctx != nullptr;
      FastOptions fo;
      fo.inner = opt;
      fo.coarse_target = req.fast_coarse_target;
      fo.max_levels = req.fast_max_levels;
      fo.refine_passes_per_level = req.fast_refine_passes;
      fo.seed = req.fast_seed;
      if (!warm) {
        FastOptions co = fo;
        co.inner.exec = ExecControl{};
        gs->fctx = std::make_unique<FastContext>(gs->graph, co);
      }
      FastResult r = gs->fctx->decompose(w, fo);
      resp.coloring = std::move(r.coloring);
      resp.balance = r.balance;
      resp.max_boundary = r.max_boundary;
      resp.avg_boundary = r.avg_boundary;
      resp.degraded = r.degraded;
      resp.status = r.degraded ? ServiceStatus::Degraded : ServiceStatus::Ok;
    }
    resp.warm = warm;
    resp.error.clear();
  } catch (const DeadlineExceeded& e) {
    resp.status = ServiceStatus::DeadlineExceeded;
    resp.error = e.what();
  } catch (const Cancelled& e) {
    resp.status = ServiceStatus::Cancelled;
    resp.error = e.what();
  } catch (const fault::InjectedFault& e) {
    resp.status = ServiceStatus::InternalError;
    resp.error = e.what();
  } catch (const InvariantViolation& e) {
    resp.status = ServiceStatus::InternalError;
    resp.error = e.what();
  } catch (const std::bad_alloc& e) {
    resp.status = ServiceStatus::ResourceExhausted;
    resp.error = e.what();
  } catch (const std::invalid_argument& e) {
    // ParseError and every MMD_REQUIRE (bad k, weight arity, ...).
    resp.status = ServiceStatus::BadRequest;
    resp.error = e.what();
  } catch (const std::exception& e) {
    resp.status = ServiceStatus::InternalError;
    resp.error = e.what();
  }
  resp.seconds = timer.seconds();

  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.requests;
  if (resp.ok()) {
    ++stats_.ok;
  } else {
    ++stats_.errors;
  }
  if (req.mode == RequestMode::Repartition && resp.ok()) {
    ++stats_.repartitions;
    if (resp.escalated) ++stats_.repartition_escalations;
  }
  if (gs != nullptr) {
    if (warm) {
      ++stats_.cache_hits;
    } else {
      ++stats_.cache_misses;
    }
  }
  latency_.record(resp.seconds);
}

void PartitionService::checkin_locked(GraphState& gs) {
  --gs.pins;
  if (gs.doomed) return;  // unlinked; freed when the last shared_ptr drops
  std::size_t now_bytes = 0;
  if (gs.ctx != nullptr) now_bytes += gs.ctx->memory_estimate_bytes();
  if (gs.fctx != nullptr) now_bytes += gs.fctx->memory_estimate_bytes();
  cached_bytes_ += now_bytes;
  cached_bytes_ -= gs.cached_bytes;
  gs.cached_bytes = now_bytes;
}

void PartitionService::evict_until_within_budget_locked() {
  while (cached_bytes_ > options_.context_budget_bytes) {
    GraphState* coldest = nullptr;
    for (auto& [name, state] : graphs_) {
      if (state->pins > 0 || state->cached_bytes == 0) continue;
      if (coldest == nullptr || state->last_use < coldest->last_use) {
        coldest = state.get();
      }
    }
    if (coldest == nullptr) break;  // everything evictable is gone or pinned
    coldest->ctx.reset();
    coldest->fctx.reset();
    cached_bytes_ -= coldest->cached_bytes;
    coldest->cached_bytes = 0;
    ++evictions_;
  }
}

ServiceStats PartitionService::stats() const {
  ServiceStats out;
  // Lock order: cache_mu_ before stats_mu_, everywhere.
  std::lock_guard<std::mutex> cache_lock(cache_mu_);
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  out = stats_;
  out.context_evictions = evictions_;
  out.cached_bytes = cached_bytes_;
  out.graphs_loaded = graphs_.size();
  out.p50_seconds = latency_.percentile(0.50);
  out.p95_seconds = latency_.percentile(0.95);
  out.p99_seconds = latency_.percentile(0.99);
  return out;
}

void PartitionService::shutdown() {
  queue_.close();
  // Every queued Pending has an owner thread blocked in execute(), so the
  // backlog drains itself; wait for the last round to finish.
  std::unique_lock<std::mutex> lock(round_mu_);
  round_cv_.wait(lock, [&] { return !leader_active_ && queue_.size() == 0; });
}

}  // namespace mmd
