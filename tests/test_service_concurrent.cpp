// PartitionService under concurrency and faults: N client threads with
// mixed graphs/k/modes (run under TSan in CI), every response replayed
// against a serial oracle and required bit-identical — including while
// graphs are evicted and reloaded underneath the traffic — plus
// deterministic fault sweeps (allocation failure and injected
// cancellation at every index) proving a fault poisons exactly the one
// request it hits and never the cached context serving it.
//
// Like test_oom.cpp, the binary owns a counting operator new that
// consults the process-global fault plan; the library never overrides
// the allocator.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/decompose.hpp"
#include "core/fast.hpp"
#include "gen/grid.hpp"
#include "service/partition_service.hpp"
#include "test_helpers.hpp"
#include "util/fault.hpp"

// ---- counting, fault-consulting allocator (test binary only) ---------------

namespace {
std::atomic<long> g_new_calls{0};
}

// The replacements stay out of line: inlined, they would show the compiler
// malloc's pointer reaching operator delete, or operator new's reaching
// free() (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (mmd::fault::should_fail_alloc()) throw std::bad_alloc();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (mmd::fault::should_fail_alloc()) throw std::bad_alloc();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mmd {
namespace {

std::vector<double> ones(const Graph& g) {
  return std::vector<double>(static_cast<std::size_t>(g.num_vertices()), 1.0);
}

struct TraceItem {
  int graph;
  RequestMode mode;
  int k;
  bool custom_weights;
};

class ServiceConcurrent : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm(); }
};

TEST_F(ServiceConcurrent, MixedTrafficBitIdenticalToSerialOracle) {
  // Three distinct instances so one round can hold several groups (the
  // worker pool actually forks) and the byte budget actually churns.
  std::vector<Graph> graphs;
  graphs.push_back(make_grid_cube(2, 5));
  graphs.push_back(make_grid_cube(2, 6));
  graphs.push_back(make_grid_cube(2, 7));
  std::vector<std::vector<double>> alt_weights;
  for (const Graph& g : graphs)
    alt_weights.push_back(testing::weights_for(g, WeightModel::Exponential, 9));

  // A deterministic trace: every combination a production mix would see.
  std::vector<TraceItem> trace;
  const int ks[] = {2, 3, 4};
  for (int i = 0; i < 36; ++i) {
    TraceItem item;
    item.graph = i % 3;
    item.k = ks[(i / 3) % 3];
    item.mode = i % 7 == 0 ? RequestMode::Fast : RequestMode::Decompose;
    item.custom_weights = i % 5 == 0;
    trace.push_back(item);
  }

  PartitionServiceOptions so;
  so.num_workers = 2;
  // Roomy enough to keep some contexts, tight enough to force evictions
  // (three graphs x two context kinds never all fit).
  so.context_budget_bytes = 64 << 10;
  PartitionService service(so);
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    std::string name = "g";
    name += std::to_string(gi);
    service.load_graph(name, Graph(graphs[gi]), ones(graphs[gi]));
  }

  std::vector<ServiceResponse> responses(trace.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop_chaos{false};

  // Chaos: keep replacing g0 (an atomic evict + reload) under traffic —
  // contexts are dropped and rebuilt mid-run, responses must not notice.
  std::thread chaos([&] {
    while (!stop_chaos.load(std::memory_order_relaxed)) {
      service.load_graph("g0", Graph(graphs[0]), ones(graphs[0]));
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  for (int ci = 0; ci < 4; ++ci) {
    clients.emplace_back([&] {
      while (true) {
        const std::size_t idx = next.fetch_add(1);
        if (idx >= trace.size()) break;
        const TraceItem& item = trace[idx];
        ServiceRequest req;
        req.graph = "g";
        req.graph += std::to_string(item.graph);
        req.mode = item.mode;
        req.options.k = item.k;
        if (item.custom_weights)
          req.weights = alt_weights[static_cast<std::size_t>(item.graph)];
        responses[idx] = service.execute(req);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop_chaos.store(true, std::memory_order_relaxed);
  chaos.join();

  // Serial oracle replay: a fresh transient call per request — no shared
  // contexts, no cache, no threads — must reproduce every response bit
  // for bit.  (Warm == cold == threaded is pinned upstream; this pins
  // that the *service* adds no fourth variant.)
  for (std::size_t idx = 0; idx < trace.size(); ++idx) {
    const TraceItem& item = trace[idx];
    const ServiceResponse& got = responses[idx];
    ASSERT_EQ(got.status, ServiceStatus::Ok)
        << "request " << idx << ": " << got.error;
    const Graph& g = graphs[static_cast<std::size_t>(item.graph)];
    const std::vector<double> w =
        item.custom_weights
            ? alt_weights[static_cast<std::size_t>(item.graph)]
            : ones(g);
    if (item.mode == RequestMode::Decompose) {
      DecomposeOptions opt;
      opt.k = item.k;
      const DecomposeResult expect = decompose(g, w, opt);
      EXPECT_EQ(got.coloring.color, expect.coloring.color) << "request " << idx;
      EXPECT_EQ(got.max_boundary, expect.max_boundary) << "request " << idx;
    } else {
      FastOptions opt;
      opt.inner.k = item.k;
      const FastResult expect = decompose_fast(g, w, opt);
      EXPECT_EQ(got.coloring.color, expect.coloring.color) << "request " << idx;
      EXPECT_EQ(got.max_boundary, expect.max_boundary) << "request " << idx;
    }
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, static_cast<long>(trace.size()));
  EXPECT_EQ(stats.ok, static_cast<long>(trace.size()));
  EXPECT_EQ(stats.errors, 0);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses,
            static_cast<long>(trace.size()));
}

TEST_F(ServiceConcurrent, EvictReloadCyclesUnderTrafficNeverCorruptResults) {
  const Graph g = make_grid_cube(2, 5);
  PartitionService service;
  service.load_graph("g", Graph(g), ones(g));

  DecomposeOptions opt;
  opt.k = 3;
  const DecomposeResult reference = decompose(g, ones(g), opt);

  std::atomic<bool> stop{false};
  std::atomic<long> ok_count{0}, not_found_count{0}, other_count{0};
  std::vector<std::thread> clients;
  for (int ci = 0; ci < 3; ++ci) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ServiceRequest req;
        req.graph = "g";
        req.options.k = 3;
        const ServiceResponse resp = service.execute(req);
        if (resp.status == ServiceStatus::Ok) {
          // Bit-identity survives any interleaving with evict/reload.
          if (resp.coloring.color == reference.coloring.color) ++ok_count;
          else ++other_count;
        } else if (resp.status == ServiceStatus::NotFound) {
          ++not_found_count;  // raced into the evicted window: typed, clean
        } else {
          ++other_count;
        }
      }
    });
  }
  // Hard evict/reload cycles (not atomic replacement): requests race into
  // real not-loaded windows and must come back NotFound, nothing worse.
  for (int cycle = 0; cycle < 25; ++cycle) {
    service.evict_graph("g");
    std::this_thread::yield();
    service.load_graph("g", Graph(g), ones(g));
    std::this_thread::yield();
  }
  // The cycles can end before any client finished a request inside a
  // loaded window; the graph is loaded now, so give the clients (bounded)
  // time to land one, or the Ok check below would race the scheduler.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ok_count.load() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();

  EXPECT_GT(ok_count.load(), 0) << "no request ever succeeded";
  EXPECT_EQ(other_count.load(), 0)
      << "a response was neither bit-identical Ok nor a clean NotFound";
}

TEST_F(ServiceConcurrent, AllocFaultSweepPoisonsOnlyTheFaultedRequest) {
  const Graph g = make_grid_cube(2, 4);
  PartitionService service;
  service.load_graph("g", Graph(g), ones(g));

  ServiceRequest req;
  req.graph = "g";
  req.options.k = 3;

  // Reference + warm-request allocation count (deterministic: same warm
  // context, same request, single thread).
  const ServiceResponse reference = service.execute(req);
  ASSERT_EQ(reference.status, ServiceStatus::Ok);
  const long before = g_new_calls.load();
  const ServiceResponse probe = service.execute(req);
  const long total = g_new_calls.load() - before;
  ASSERT_EQ(probe.coloring.color, reference.coloring.color);
  ASSERT_GT(total, 0);

  long faulted = 0, completed = 0;
  for (long i = 0; i < total + 2; ++i) {
    fault::arm_alloc_failure(i);
    try {
      const ServiceResponse resp = service.execute(req);
      fault::disarm();
      if (resp.status == ServiceStatus::Ok) {
        EXPECT_EQ(resp.coloring.color, reference.coloring.color) << "i=" << i;
        ++completed;
      } else {
        // The injected bad_alloc must surface as a typed error — never a
        // crash, never a wrong answer.  (ResourceExhausted from the
        // request path; InternalError if it hit the round scaffolding.)
        EXPECT_TRUE(resp.status == ServiceStatus::ResourceExhausted ||
                    resp.status == ServiceStatus::InternalError)
            << "i=" << i << " status=" << to_string(resp.status);
        ++faulted;
      }
    } catch (const std::bad_alloc&) {
      // The failure hit admission before the request entered the service
      // (e.g. the queue push itself): acceptable, nothing was admitted.
      fault::disarm();
      ++faulted;
    }
    // Whatever happened, the cached context must be unpoisoned: the very
    // next clean request returns the reference bytes, warm.
    const ServiceResponse clean = service.execute(req);
    ASSERT_EQ(clean.status, ServiceStatus::Ok) << "after fault at i=" << i;
    ASSERT_EQ(clean.coloring.color, reference.coloring.color)
        << "context poisoned by fault at allocation " << i;
  }
  EXPECT_GT(faulted, 0) << "sweep never injected a failure";
  EXPECT_GT(completed, 0) << "sweep indices beyond the call never completed";
}

TEST_F(ServiceConcurrent, CancelFaultSweepPoisonsOnlyTheFaultedRequest) {
  const Graph g = make_grid_cube(2, 4);
  PartitionService service;
  service.load_graph("g", Graph(g), ones(g));

  ServiceRequest req;
  req.graph = "g";
  req.options.k = 3;
  const ServiceResponse reference = service.execute(req);
  ASSERT_EQ(reference.status, ServiceStatus::Ok);

  // Checkpoint count of one warm request: arm an unreachable target so
  // the counter advances without ever firing.
  fault::arm_checkpoint_fault(1L << 40, fault::CheckpointFault::Cancel);
  const ServiceResponse counted = service.execute(req);
  const long checkpoints = fault::checkpoints_seen();
  fault::disarm();
  ASSERT_EQ(counted.status, ServiceStatus::Ok);
  ASSERT_GT(checkpoints, 0);

  for (long i = 0; i < checkpoints + 2; ++i) {
    fault::arm_checkpoint_fault(i, fault::CheckpointFault::Cancel);
    const ServiceResponse resp = service.execute(req);
    fault::disarm();
    if (resp.status == ServiceStatus::Ok) {
      EXPECT_EQ(resp.coloring.color, reference.coloring.color) << "i=" << i;
    } else {
      EXPECT_EQ(resp.status, ServiceStatus::Cancelled) << "i=" << i;
    }
    const ServiceResponse clean = service.execute(req);
    ASSERT_EQ(clean.status, ServiceStatus::Ok);
    ASSERT_EQ(clean.coloring.color, reference.coloring.color)
        << "context poisoned by cancellation at checkpoint " << i;
  }
}

}  // namespace
}  // namespace mmd
