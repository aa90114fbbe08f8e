// PartitionService single-thread semantics: registry + LRU byte budget,
// bit-identity of service responses to direct context calls, the typed
// error passthrough (deadline / cancel / malformed input / injected
// faults) with the service healthy afterwards, and the
// DecomposeContext/FastContext reentrancy guard this PR adds underneath
// the service (contexts are exclusive resources; a concurrent entry is a
// caller bug that must be *diagnosed*, not silently raced).
//
// The companion suite (test_service_concurrent.cpp) drives the same
// service from many client threads under TSan; everything here is
// deliberately one client, so a failure localizes to semantics rather
// than scheduling.
#include <gtest/gtest.h>

#include <thread>

#include "core/context.hpp"
#include "core/fast.hpp"
#include "gen/grid.hpp"
#include "io/metis_io.hpp"
#include "service/partition_service.hpp"
#include "test_helpers.hpp"
#include "util/bounded_queue.hpp"
#include "util/fault.hpp"
#include "util/latency.hpp"

namespace mmd {
namespace {

std::vector<double> ones(const Graph& g) {
  return std::vector<double>(static_cast<std::size_t>(g.num_vertices()), 1.0);
}

ServiceRequest make_request(const std::string& graph, int k,
                            RequestMode mode = RequestMode::Decompose) {
  ServiceRequest req;
  req.graph = graph;
  req.mode = mode;
  req.options.k = k;
  return req;
}

class Service : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm(); }
};

// ---- registry ---------------------------------------------------------------

TEST_F(Service, LoadEvictNotFoundAndReload) {
  PartitionService service;
  const Graph g = make_grid_cube(2, 5);
  EXPECT_FALSE(service.has_graph("g"));

  service.load_graph("g", Graph(g), ones(g));
  EXPECT_TRUE(service.has_graph("g"));

  ServiceResponse ok = service.execute(make_request("g", 3));
  ASSERT_EQ(ok.status, ServiceStatus::Ok);
  EXPECT_TRUE(ok.balance.strictly_balanced);
  EXPECT_FALSE(ok.warm);

  EXPECT_TRUE(service.evict_graph("g"));
  EXPECT_FALSE(service.has_graph("g"));
  EXPECT_FALSE(service.evict_graph("g"));

  ServiceResponse miss = service.execute(make_request("g", 3));
  EXPECT_EQ(miss.status, ServiceStatus::NotFound);
  EXPECT_FALSE(miss.error.empty());

  // The service stays healthy across the whole cycle: reload and the
  // answer is byte-identical to the pre-evict one (cold context again).
  service.load_graph("g", Graph(g), ones(g));
  ServiceResponse again = service.execute(make_request("g", 3));
  ASSERT_EQ(again.status, ServiceStatus::Ok);
  EXPECT_FALSE(again.warm);
  EXPECT_EQ(again.coloring.color, ok.coloring.color);
}

// ---- bit-identity to direct context calls ----------------------------------

TEST_F(Service, ResponsesBitIdenticalToDirectContextCalls) {
  const Graph g = make_grid_cube(2, 6);
  const auto w = ones(g);
  PartitionService service;
  service.load_graph("g", Graph(g), w);

  for (int k : {2, 3, 5}) {
    ServiceResponse got = service.execute(make_request("g", k));
    ASSERT_EQ(got.status, ServiceStatus::Ok) << got.error;

    DecomposeOptions opt;
    opt.k = k;
    DecomposeContext direct(g, opt);
    const DecomposeResult expect = direct.decompose(w);
    EXPECT_EQ(got.coloring.color, expect.coloring.color) << "k=" << k;
    EXPECT_EQ(got.max_boundary, expect.max_boundary);
    EXPECT_EQ(got.avg_boundary, expect.avg_boundary);
  }

  // Fast mode, warm and cold: same contract against a direct FastContext.
  ServiceResponse cold = service.execute(make_request("g", 4, RequestMode::Fast));
  ServiceResponse warm = service.execute(make_request("g", 4, RequestMode::Fast));
  ASSERT_EQ(cold.status, ServiceStatus::Ok) << cold.error;
  EXPECT_FALSE(cold.warm);
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(warm.coloring.color, cold.coloring.color);

  FastOptions fo;
  fo.inner.k = 4;
  const FastResult expect = decompose_fast(g, w, fo);
  EXPECT_EQ(cold.coloring.color, expect.coloring.color);
  EXPECT_EQ(cold.max_boundary, expect.max_boundary);
}

TEST_F(Service, PerRequestWeightsOverrideTheRegisteredDefault) {
  const Graph g = testing::two_triangles();
  const auto heavy = testing::weights_for(g, WeightModel::Exponential, 7);
  PartitionService service;
  service.load_graph("g", Graph(g));  // default weights

  ServiceRequest req = make_request("g", 2);
  req.weights = heavy;
  ServiceResponse got = service.execute(req);
  ASSERT_EQ(got.status, ServiceStatus::Ok) << got.error;

  DecomposeOptions opt;
  opt.k = 2;
  const DecomposeResult expect = decompose(g, heavy, opt);
  EXPECT_EQ(got.coloring.color, expect.coloring.color);

  // And the default-weight path is unaffected by the custom-weight call
  // having shared the same (warm) context.
  ServiceResponse def = service.execute(make_request("g", 2));
  ASSERT_EQ(def.status, ServiceStatus::Ok);
  EXPECT_TRUE(def.warm);
}

// ---- LRU byte budget --------------------------------------------------------

TEST_F(Service, ByteBudgetEvictsColdContextsInLruOrder) {
  // Three identically shaped graphs => identical context estimates, so a
  // budget of ~2.5 contexts deterministically holds exactly two.
  const Graph g = make_grid_cube(2, 6);

  // Measure one context's estimate through a throwaway service.
  std::size_t one_context_bytes = 0;
  {
    PartitionService probe;
    probe.load_graph("g", Graph(g), ones(g));
    ASSERT_EQ(probe.execute(make_request("g", 3)).status, ServiceStatus::Ok);
    one_context_bytes = probe.stats().cached_bytes;
    ASSERT_GT(one_context_bytes, 0u);
  }

  PartitionServiceOptions so;
  so.context_budget_bytes = one_context_bytes * 5 / 2;
  PartitionService service(so);
  for (const char* name : {"a", "b", "c"})
    service.load_graph(name, Graph(g), ones(g));

  // Warm a and b (fits: 2 <= 2.5 contexts), refresh a, then warm c —
  // the budget forces one eviction and LRU says it must be b.
  EXPECT_FALSE(service.execute(make_request("a", 3)).warm);
  EXPECT_FALSE(service.execute(make_request("b", 3)).warm);
  EXPECT_TRUE(service.execute(make_request("a", 3)).warm);
  EXPECT_FALSE(service.execute(make_request("c", 3)).warm);
  EXPECT_EQ(service.stats().context_evictions, 1);

  EXPECT_TRUE(service.execute(make_request("a", 3)).warm) << "a was hot";
  EXPECT_TRUE(service.execute(make_request("c", 3)).warm) << "c was hot";
  EXPECT_FALSE(service.execute(make_request("b", 3)).warm)
      << "b was the LRU victim";

  // Eviction dropped contexts, never graphs.
  EXPECT_TRUE(service.has_graph("a"));
  EXPECT_TRUE(service.has_graph("b"));
  EXPECT_TRUE(service.has_graph("c"));

  const ServiceStats stats = service.stats();
  EXPECT_LE(stats.cached_bytes, so.context_budget_bytes);
  EXPECT_EQ(stats.graphs_loaded, 3u);
}

TEST_F(Service, UnlimitedBudgetNeverEvicts) {
  const Graph g = make_grid_cube(2, 5);
  PartitionService service;  // default budget: effectively unlimited here
  for (const char* name : {"a", "b", "c"})
    service.load_graph(name, Graph(g), ones(g));
  for (const char* name : {"a", "b", "c"})
    EXPECT_FALSE(service.execute(make_request(name, 2)).warm);
  for (const char* name : {"a", "b", "c"})
    EXPECT_TRUE(service.execute(make_request(name, 2)).warm);
  EXPECT_EQ(service.stats().context_evictions, 0);
  EXPECT_EQ(service.stats().hit_rate(), 0.5);
}

// ---- typed error passthrough ------------------------------------------------

TEST_F(Service, TypedErrorsFlowThroughAndServiceStaysHealthy) {
  const Graph g = make_grid_cube(2, 6);
  PartitionService service;
  service.load_graph("g", Graph(g), ones(g));
  const ServiceResponse reference = service.execute(make_request("g", 3));
  ASSERT_EQ(reference.status, ServiceStatus::Ok);

  // Bad request: k = 0 (caller misuse -> invalid_argument).
  EXPECT_EQ(service.execute(make_request("g", 0)).status,
            ServiceStatus::BadRequest);

  // Bad request: weight arity mismatch.
  {
    ServiceRequest req = make_request("g", 3);
    req.weights = {1.0, 2.0};
    const ServiceResponse resp = service.execute(req);
    EXPECT_EQ(resp.status, ServiceStatus::BadRequest);
    EXPECT_NE(resp.error.find("arity"), std::string::npos);
  }

  // Deadline: an already-expired relative deadline trips the very first
  // checkpoint, deterministically.
  {
    ServiceRequest req = make_request("g", 3);
    req.timeout_ms = 0;
    EXPECT_EQ(service.execute(req).status, ServiceStatus::DeadlineExceeded);
  }

  // Cancellation: the caller's token is borrowed through unchanged.
  {
    CancelToken token;
    token.request_cancel();
    ServiceRequest req = make_request("g", 3);
    req.options.exec.cancel = &token;
    EXPECT_EQ(service.execute(req).status, ServiceStatus::Cancelled);
  }

  // Injected splitter fault: small shapes never enter a splitter (the
  // base cases enumerate directly), so aim the fault at a graph big
  // enough to split.  It surfaces as internal_error, poisons nothing.
  {
    const Graph h = make_grid_cube(2, 9);
    service.load_graph("h", Graph(h), ones(h));
    fault::arm_splitter_fault(0);
    const ServiceResponse resp = service.execute(make_request("h", 3));
    fault::disarm();
    EXPECT_EQ(resp.status, ServiceStatus::InternalError);
  }

  // After every failure above, the same warm context keeps serving the
  // reference answer byte for byte.
  const ServiceResponse after = service.execute(make_request("g", 3));
  ASSERT_EQ(after.status, ServiceStatus::Ok) << after.error;
  EXPECT_TRUE(after.warm);
  EXPECT_EQ(after.coloring.color, reference.coloring.color);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 7);
  EXPECT_EQ(stats.ok, 2);
  EXPECT_EQ(stats.errors, 5);
}

TEST_F(Service, ThreadCountsAboveCapAreRejected) {
  PartitionServiceOptions so;
  so.num_workers = kMaxThreads + 1;
  EXPECT_THROW((PartitionService{so}), std::invalid_argument);

  // A request's num_threads is answered BadRequest in every mode, cold or
  // warm, and the context it would have reached keeps serving.
  PartitionService service;
  const Graph g = make_grid_cube(2, 6);
  service.load_graph("g", Graph(g));
  for (const RequestMode mode : {RequestMode::Decompose, RequestMode::Fast,
                                 RequestMode::Repartition}) {
    ServiceRequest over = make_request("g", 3, mode);
    over.options.num_threads = kMaxThreads + 1;
    EXPECT_EQ(service.execute(over).status, ServiceStatus::BadRequest);
    ASSERT_EQ(service.execute(make_request("g", 3, mode)).status,
              ServiceStatus::Ok);
    EXPECT_EQ(service.execute(over).status, ServiceStatus::BadRequest);
    const ServiceResponse warm = service.execute(make_request("g", 3, mode));
    EXPECT_EQ(warm.status, ServiceStatus::Ok);
    EXPECT_TRUE(warm.warm);
  }
}

TEST_F(Service, MalformedGraphFileSurfacesAsParseErrorAndServiceSurvives) {
  PartitionService service;
  const std::string path = ::testing::TempDir() + "mmd_service_bad.graph";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("3 2 011\nnot numbers here\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(service.load_graph_file("bad", path), ParseError);
  EXPECT_FALSE(service.has_graph("bad"));

  // Healthy afterwards.
  const Graph g = testing::two_triangles();
  service.load_graph("g", Graph(g));
  EXPECT_EQ(service.execute(make_request("g", 2)).status, ServiceStatus::Ok);
  std::remove(path.c_str());
}

TEST_F(Service, ShutdownRejectsNewRequestsIdempotently) {
  const Graph g = testing::two_triangles();
  PartitionService service;
  service.load_graph("g", Graph(g));
  ASSERT_EQ(service.execute(make_request("g", 2)).status, ServiceStatus::Ok);
  service.shutdown();
  service.shutdown();  // idempotent
  EXPECT_EQ(service.execute(make_request("g", 2)).status,
            ServiceStatus::ShuttingDown);
}

// ---- context reentrancy guard (the bugfix this PR ships underneath) --------

TEST_F(Service, ContextSameThreadReentryStaysLegal) {
  const Graph g = testing::two_triangles();
  const auto w = ones(g);
  DecomposeOptions opt;
  opt.k = 2;
  DecomposeContext ctx(g, opt);
  // A claimed context may still be used from the owning thread: FastContext
  // drives its inner DecomposeContext exactly this way.
  ExclusiveUse::Claim claim = ctx.claim_use();
  const DecomposeResult res = ctx.decompose(w);
  testing::expect_total_coloring(g, res.coloring);
}

TEST_F(Service, ContextGuardDiagnosesConcurrentEntry) {
  const Graph g = make_grid_cube(2, 4);
  const auto w = ones(g);
  DecomposeDiagnostics diag;
  DecomposeOptions opt;
  opt.k = 2;
  opt.diagnostics = &diag;
  DecomposeContext ctx(g, opt);

  // Hold the context on this thread, then enter from another: the guard
  // must count the violation on the diagnostics sink, and debug builds
  // (MMD_ASSERT live) must additionally throw InvariantViolation at the
  // offending entry instead of racing.
  bool threw_invariant = false;
  bool completed = false;
  {
    ExclusiveUse::Claim claim = ctx.claim_use();
    std::thread intruder([&] {
      try {
        (void)ctx.decompose(w);
        completed = true;
      } catch (const InvariantViolation&) {
        threw_invariant = true;
      }
    });
    intruder.join();
  }
  EXPECT_EQ(diag.concurrent_context_entries.load(), 1);
#ifdef NDEBUG
  EXPECT_TRUE(completed);
  EXPECT_FALSE(threw_invariant);
#else
  EXPECT_TRUE(threw_invariant);
  EXPECT_FALSE(completed);
#endif

  // The guard rolled the entry back either way: the owner thread's next
  // call succeeds, and so does a call after the claim is released.
  const DecomposeResult res = ctx.decompose(w);
  testing::expect_total_coloring(g, res.coloring);
}

TEST_F(Service, FastContextGuardDiagnosesConcurrentEntry) {
  const Graph g = make_grid_cube(2, 4);
  const auto w = ones(g);
  DecomposeDiagnostics diag;
  FastOptions opt;
  opt.inner.k = 2;
  opt.inner.diagnostics = &diag;
  FastContext ctx(g, opt);

  bool observed = false;
  {
    ExclusiveUse::Claim claim = ctx.claim_use();
    std::thread intruder([&] {
      try {
        (void)ctx.decompose(w);
        observed = true;  // release build: diagnosed but completed
      } catch (const InvariantViolation&) {
        observed = true;  // debug build: thrown at entry
      }
    });
    intruder.join();
  }
  EXPECT_TRUE(observed);
  EXPECT_EQ(diag.concurrent_context_entries.load(), 1);
  testing::expect_total_coloring(g, ctx.decompose(w).coloring);
}

// ---- service-layer primitives ----------------------------------------------

TEST_F(Service, BoundedQueueOrderBackpressureAndClose) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3)) << "capacity 2 must reject the third";

  std::vector<int> drained;
  EXPECT_EQ(q.try_pop_all(drained), 2u);
  EXPECT_EQ(drained, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.size(), 0u);

  EXPECT_TRUE(q.push(7));
  q.close();
  EXPECT_FALSE(q.push(8)) << "closed queue admits nothing";
  auto v = q.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  EXPECT_FALSE(q.pop().has_value()) << "closed and drained";
}

TEST_F(Service, LatencyRecorderExactPercentilesAndBoundedReservoir) {
  LatencyRecorder lat(8);
  for (int i = 1; i <= 100; ++i) lat.record(static_cast<double>(i));
  EXPECT_EQ(lat.count(), 100u);
  EXPECT_EQ(lat.max(), 100.0);
  EXPECT_EQ(lat.total(), 5050.0);
  // Thinned to a uniformly spread subset: percentiles stay in range and
  // ordered even past the cap.
  const double p50 = lat.percentile(0.5);
  const double p99 = lat.percentile(0.99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p99, 100.0);
  EXPECT_LE(p50, p99);

  LatencyRecorder small;
  for (double x : {4.0, 1.0, 3.0, 2.0}) small.record(x);
  EXPECT_EQ(small.percentile(0.0), 1.0);
  EXPECT_EQ(small.percentile(1.0), 4.0);

  LatencyRecorder merged;
  merged.merge(small);
  EXPECT_EQ(merged.count(), 4u);
  EXPECT_EQ(merged.percentile(1.0), 4.0);
}

}  // namespace
}  // namespace mmd
