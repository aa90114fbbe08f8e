// PartitionService: a long-lived fleet of warm contexts behind one
// admission queue.
//
// Everything below the service layer is built for exactly this embedding:
// DecomposeContext / FastContext keep splitters, OrderingCaches, and
// coarsening hierarchies warm across calls (PR 2/6), ExecControl gives
// every request a deadline and typed errors that leave the warm state
// reusable (PR 6), and the bit-identity pins (warm == cold == threaded,
// PR 2/3/5) are what make a *shared* context legal at all: a request
// served from a warm context returns exactly the bytes a fresh transient
// call would.  The service adds the three things a single context cannot
// provide:
//
//   * a registry of graphs, each owning at most one DecomposeContext and
//     one FastContext, behind an LRU cache with a byte budget
//     (memory_estimate_bytes ranks contexts; eviction drops *contexts*,
//     never registered graphs — graphs leave only via evict_graph),
//   * bounded admission with request batching: concurrent execute() calls
//     enqueue and one caller becomes the round leader, draining the whole
//     backlog into one round, grouping it by graph (so every request of a
//     group runs on the same warm context back to back — the group-commit
//     shape), and running the groups over an optional worker pool,
//   * per-request isolation: each request's outcome — including
//     DeadlineExceeded, Cancelled, injected faults, and allocation
//     failure — is caught at the request boundary and returned as a typed
//     ServiceResponse; the context the request ran on stays cached and
//     healthy (the PR 6 fault-injection fuzz pins that contexts survive
//     every such exception).
//
// Concurrency shape: contexts are exclusive resources (ExclusiveUse), so
// the service never runs two requests on one graph concurrently — a round
// runs its *groups* in parallel, and requests within a group serially.
// Different rounds never overlap (one leader at a time), which is also
// what lets a round create or rebuild contexts without holding the cache
// lock.  Request-level num_threads still works: a context's own pool
// forks inside the group's lane (on a service worker thread the nested
// pool degrades to the inline serial loop — ThreadPool::on_worker_thread
// — with bit-identical results).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/context.hpp"
#include "core/fast.hpp"
#include "util/bounded_queue.hpp"
#include "util/latency.hpp"

namespace mmd {

/// Typed outcome of one service request.  Every library exception a
/// request can raise maps onto exactly one of these (docs/API.md, "Error
/// model"); the service itself never throws out of execute().
enum class ServiceStatus {
  Ok,                ///< request served; full guarantees
  Degraded,          ///< fast-mode deadline after the coarse level;
                     ///< best-effort coloring + certificate (not an error)
  BadRequest,        ///< invalid_argument / ParseError: caller misuse
  NotFound,          ///< request names a graph that is not loaded
  DeadlineExceeded,  ///< ExecControl deadline hit (retryable)
  Cancelled,         ///< the request's CancelToken fired
  ResourceExhausted, ///< std::bad_alloc during the request
  InternalError,     ///< InvariantViolation / injected fault / unknown
  ShuttingDown,      ///< service closed before the request was admitted
};

/// Stable lowercase identifier ("ok", "bad_request", ...) used by the
/// JSONL protocol and logs.
const char* to_string(ServiceStatus status);

enum class RequestMode {
  Decompose,    ///< full Theorem 4 pipeline (DecomposeContext)
  Fast,         ///< multilevel fast mode (FastContext)
  Repartition,  ///< incremental solve seeded from the graph's cached prior
                ///< (DecomposeContext::repartition; see `deltas`)
};

/// One decomposition request against a registered graph.
struct ServiceRequest {
  std::string graph;  ///< registry name (see PartitionService::load_graph)
  RequestMode mode = RequestMode::Decompose;
  /// Pipeline knobs.  `options.exec.cancel` is honored (borrowed; must
  /// outlive the request); `options.exec.deadline` is honored as an
  /// absolute deadline, and `timeout_ms` below is the relative form.
  /// `options.diagnostics` is ignored — the service wires its own sink.
  DecomposeOptions options;
  /// Relative deadline, armed when the request *starts executing* (not
  /// when it is enqueued), so queueing delay does not eat the budget.
  /// < 0 = none.  Combines with options.exec.deadline: the earlier wins.
  long timeout_ms = -1;
  /// Vertex weights; empty = the graph's registered weights.  Must stay
  /// empty for RequestMode::Repartition (drift is expressed via `deltas`;
  /// mixing both is a BadRequest).
  std::vector<double> weights;
  /// Weight deltas of a Repartition request, applied to the graph's warm
  /// context before solving.  The chain's base weights are bound from the
  /// registered weights on the first repartition.  Deltas carry absolute
  /// weights and the context clears its dirty set only on success, so a
  /// request that fails with a retryable status (deadline, cancel,
  /// resource_exhausted) leaves the chain consistent: re-sending the same
  /// request returns the bit-identical result of an unfaulted first try.
  std::vector<WeightDelta> deltas;
  // Fast-mode knobs (RequestMode::Fast only), defaulting to FastOptions'.
  int fast_coarse_target = FastOptions{}.coarse_target;
  int fast_max_levels = FastOptions{}.max_levels;
  int fast_refine_passes = FastOptions{}.refine_passes_per_level;
  std::uint64_t fast_seed = FastOptions{}.seed;
};

struct ServiceResponse {
  ServiceStatus status = ServiceStatus::InternalError;
  std::string error;  ///< exception what() when !ok()
  // Valid when ok():
  Coloring coloring;
  BalanceReport balance;
  double max_boundary = 0.0;
  double avg_boundary = 0.0;
  bool warm = false;      ///< the serving context existed before this request
  bool degraded = false;  ///< fast-mode best-effort result (status Degraded)
  double seconds = 0.0;   ///< service-side execution time (excludes queueing)
  // Repartition outcome (RequestMode::Repartition only):
  long migration_cost = -1;  ///< vertices that changed class vs the prior
  bool incremental = false;  ///< served by the seeded path
  bool escalated = false;    ///< certificate fired; full solve served

  bool ok() const {
    return status == ServiceStatus::Ok || status == ServiceStatus::Degraded;
  }
};

/// Aggregate counters; stats() returns a consistent snapshot.
struct ServiceStats {
  long requests = 0;        ///< requests executed (admitted and run)
  long ok = 0;              ///< status Ok or Degraded
  long errors = 0;          ///< everything else
  long cache_hits = 0;      ///< requests served by a pre-existing context
  long cache_misses = 0;    ///< requests that had to build their context
  long context_evictions = 0;  ///< contexts dropped by the byte budget
  long rounds = 0;          ///< leader rounds executed
  long batched_requests = 0;   ///< requests that shared a round with others
  long repartitions = 0;           ///< Repartition requests executed
  long repartition_escalations = 0;  ///< of those, escalated to full solves
  std::size_t cached_bytes = 0;   ///< current context-budget usage
  std::size_t graphs_loaded = 0;  ///< registry size
  double p50_seconds = 0.0, p95_seconds = 0.0, p99_seconds = 0.0;

  double hit_rate() const {
    const long total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
  }
};

struct PartitionServiceOptions {
  /// Byte budget for cached contexts (memory_estimate_bytes sum).  When a
  /// finished round pushes the total past the budget, cold (least
  /// recently used, unpinned) graphs lose their contexts until the total
  /// fits; the graphs themselves stay registered.  A single context
  /// larger than the whole budget is still admitted while in use and
  /// evicted at the next opportunity — the budget bounds *retained* warm
  /// state, it never fails a request.
  std::size_t context_budget_bytes = std::size_t(256) << 20;
  /// Admission queue bound: execute() blocks (backpressure) while this
  /// many requests are already queued.
  std::size_t queue_capacity = 256;
  /// Service-level worker lanes for a round's per-graph groups; 1 =
  /// groups run serially on the leader.  Independent of (and composing
  /// with) per-request DecomposeOptions::num_threads.
  int num_workers = 1;
};

/// See the file comment.  Thread safety: every public method may be
/// called from any thread at any time, except the destructor, which
/// requires that no execute() call is in flight (join your clients
/// first — the usual server teardown order).
class PartitionService {
 public:
  explicit PartitionService(const PartitionServiceOptions& options = {});
  ~PartitionService();

  PartitionService(const PartitionService&) = delete;
  PartitionService& operator=(const PartitionService&) = delete;

  /// Register `g` under `name` (replacing any previous graph of that
  /// name, contexts included).  `weights` empty = the graph's embedded
  /// vertex weights, or all-ones if it has none.
  /// \throws std::invalid_argument on a weight arity mismatch
  void load_graph(const std::string& name, Graph g,
                  std::vector<double> weights = {});
  /// read_metis_file + load_graph.  Propagates ParseError untouched.
  void load_graph_file(const std::string& name, const std::string& path);
  /// Unregister `name` (graph + contexts).  A graph pinned by an
  /// in-flight round is unlinked immediately and destroyed when the round
  /// finishes.  Returns false if no such graph was loaded.
  bool evict_graph(const std::string& name);
  bool has_graph(const std::string& name) const;

  /// Execute one request: enqueue (blocking while the admission queue is
  /// full), ride a batching round, return the typed outcome.  Never
  /// throws a library error — see ServiceStatus.  Safe from any number of
  /// client threads.
  ServiceResponse execute(const ServiceRequest& request);

  ServiceStats stats() const;

  /// The service-owned diagnostics sink every request reports into.
  DecomposeDiagnostics& diagnostics() { return diag_; }

  /// Stop admitting (queued and in-flight requests still complete; new
  /// execute() calls return ShuttingDown) and wait for the backlog to
  /// drain.  Idempotent; the destructor calls it.
  void shutdown();

 private:
  /// One registered graph and its (lazily built) warm contexts.
  struct GraphState {
    std::string name;
    Graph graph;
    std::vector<double> weights;  ///< default weights of the graph
    std::unique_ptr<DecomposeContext> ctx;
    std::unique_ptr<FastContext> fctx;
    std::size_t cached_bytes = 0;  ///< last accounted context estimate
    int pins = 0;                  ///< rounds currently using this graph
    std::uint64_t last_use = 0;    ///< LRU tick
    bool doomed = false;           ///< evicted while pinned; free on unpin
  };

  /// A client's parked request (stack-owned by its execute() frame).
  struct Pending {
    const ServiceRequest* request = nullptr;
    ServiceResponse response;
    bool done = false;
  };

  /// A round's per-graph slice: requests in arrival order plus the
  /// resolved (pinned) state; null state = graph not loaded.
  struct Group {
    std::shared_ptr<GraphState> state;
    std::vector<Pending*> requests;
  };

  void process_round(std::vector<Pending*>& round);
  /// Serve one request on `gs` (null = graph not loaded), mapping every
  /// exception to a typed status; never throws.
  void execute_one(GraphState* gs, Pending& p);
  /// Re-account a state's context bytes and run LRU eviction; both under
  /// cache_mu_.
  void checkin_locked(GraphState& gs);
  void evict_until_within_budget_locked();

  const PartitionServiceOptions options_;
  DecomposeDiagnostics diag_;

  // Admission + round leadership.  round_mu_ guards leader_active_ and
  // every Pending::done flag; the queue's closed flag is the shutdown state.
  BoundedQueue<Pending*> queue_;
  mutable std::mutex round_mu_;
  std::condition_variable round_cv_;
  bool leader_active_ = false;
  OwnedPool pool_;  ///< group lanes (num_workers > 1)

  // Graph registry + context cache.
  mutable std::mutex cache_mu_;
  std::unordered_map<std::string, std::shared_ptr<GraphState>> graphs_;
  std::size_t cached_bytes_ = 0;
  std::uint64_t lru_tick_ = 0;
  long evictions_ = 0;

  // Counters + latency reservoir.
  mutable std::mutex stats_mu_;
  ServiceStats stats_;
  LatencyRecorder latency_;
};

}  // namespace mmd
