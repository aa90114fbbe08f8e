// Out-of-memory robustness: every single allocation of a cold decompose
// is made to fail, one index at a time, and each run must either throw a
// clean std::bad_alloc (nothing torn, no invariant tripped, no crash) or
// — when the index lies beyond that run's allocations — succeed with the
// exact reference coloring.  After every injected failure, an immediately
// following clean decompose must succeed and match the reference, which
// is what "exception safety" means operationally for this library.
//
// The pool degrade policy is pinned here too: a pool allocation that
// fails while an owner (either context, the service) is constructed must
// degrade that owner to the serial path, report once, and not be retried
// until the thread count changes.
//
// The binary counts allocations itself (like test_prefix_split_alloc.cpp)
// and consults the fault plan: the library never overrides operator new.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/context.hpp"
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

class Oom : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm(); }
};

constexpr long kCountOnly = 1L << 40;

/// Construct an owner with each of its allocations failed in turn (their
/// count probed with fault::allocs_seen()) and return the first one whose
/// construction survived with a failed pool build: the fault landed in
/// ThreadPool construction, the one failure the owner absorbs.  Earlier
/// indices throw std::bad_alloc out of the constructor.
template <typename Owner, typename Make, typename PoolFailed>
std::unique_ptr<Owner> construct_with_failed_pool(Make make,
                                                  PoolFailed pool_failed) {
  fault::arm_alloc_failure(kCountOnly);
  (void)make();
  const long total = fault::allocs_seen();
  fault::disarm();
  for (long i = 0; i < total; ++i) {
    fault::arm_alloc_failure(i);
    try {
      std::unique_ptr<Owner> owner = make();
      fault::disarm();
      if (pool_failed(*owner)) return owner;
    } catch (const std::bad_alloc&) {
    }
    fault::disarm();
  }
  return nullptr;
}

TEST_F(Oom, EveryAllocationIndexOfAColdDecomposeFailsCleanly) {
  const Graph g = make_grid_cube(2, 4);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 41);
  DecomposeOptions opt;
  opt.k = 3;

  // Reference answer and the allocation count of one cold serial call
  // (deterministic: same instance, same options, fresh context each time).
  const DecomposeResult reference = decompose(g, w, opt);
  const long before = g_new_calls.load();
  const DecomposeResult probe = decompose(g, w, opt);
  const long total = g_new_calls.load() - before;
  ASSERT_EQ(probe.coloring.color, reference.coloring.color);
  ASSERT_GT(total, 0);

  // Every in-range index, plus a couple beyond the (deterministic) cold
  // allocation count — those must not fire and must leave the result
  // untouched, proving the counting itself perturbs nothing.
  long failed = 0, completed = 0;
  for (long i = 0; i < total + 2; ++i) {
    fault::arm_alloc_failure(i);
    try {
      const DecomposeResult res = decompose(g, w, opt);
      fault::disarm();
      EXPECT_EQ(res.coloring.color, reference.coloring.color) << "i=" << i;
      ++completed;
    } catch (const std::bad_alloc&) {
      fault::disarm();
      ++failed;
      // Clean retry right after the failure.
      const DecomposeResult retry = decompose(g, w, opt);
      ASSERT_EQ(retry.coloring.color, reference.coloring.color)
          << "retry diverged after injected OOM at allocation " << i;
    }
    // Any other exception (InvariantViolation above all) escapes and
    // fails the test: OOM must never surface as a library bug.
  }
  EXPECT_GT(failed, 0) << "no allocation index actually fired?";
  EXPECT_GT(completed, 0) << "expected some indices beyond the cold run";
}

TEST_F(Oom, WarmContextSurvivesOomAndStaysBitIdentical) {
  // The warm path has far fewer allocation sites (that is what the
  // steady-state allocation pins are about) — fail each of them too, on
  // one long-lived context, and require bit-identical results afterwards.
  const Graph g = make_grid_cube(2, 4);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 41);
  DecomposeOptions opt;
  opt.k = 3;

  DecomposeContext ctx(g, opt);
  const DecomposeResult reference = ctx.decompose(w);
  (void)ctx.decompose(w);  // reach allocation steady state
  const long before = g_new_calls.load();
  (void)ctx.decompose(w);
  const long warm_total = g_new_calls.load() - before;

  long failed = 0;
  for (long i = 0; i < warm_total; ++i) {
    fault::arm_alloc_failure(i);
    try {
      const DecomposeResult res = ctx.decompose(w);
      fault::disarm();
      EXPECT_EQ(res.coloring.color, reference.coloring.color) << "i=" << i;
    } catch (const std::bad_alloc&) {
      fault::disarm();
      ++failed;
      const DecomposeResult retry = ctx.decompose(w);
      ASSERT_EQ(retry.coloring.color, reference.coloring.color)
          << "warm retry diverged after injected OOM at allocation " << i;
    }
  }
  EXPECT_GT(failed, 0);
}

TEST_F(Oom, FailedContextPoolDegradesOnceAndIsNotRetried) {
  const Graph g = make_grid_cube(2, 12);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 43);
  DecomposeDiagnostics diag;
  DecomposeOptions opt;
  opt.k = 4;
  opt.num_threads = 2;
  opt.diagnostics = &diag;
  DecomposeOptions serial = opt;
  serial.num_threads = 1;
  serial.diagnostics = nullptr;
  const DecomposeResult reference = decompose(g, w, serial);

  auto ctx = construct_with_failed_pool<DecomposeContext>(
      [&] { return std::make_unique<DecomposeContext>(g, opt); },
      [](DecomposeContext& c) {
        return c.stats().pool_construct_failures > 0;
      });
  ASSERT_NE(ctx, nullptr) << "no allocation index reached the pool";
  EXPECT_EQ(diag.pool_construct_failures.load(), 1);
  EXPECT_EQ(ctx->thread_pool(), nullptr);

  // Same options again and again: the failed count is remembered, so no
  // call retries the build, and every answer is the serial one.
  EXPECT_EQ(ctx->decompose(w).coloring.color, reference.coloring.color);
  for (int call = 0; call < 3; ++call) {
    EXPECT_EQ(ctx->decompose(w, opt).coloring.color, reference.coloring.color)
        << "call " << call;
  }
  EXPECT_EQ(ctx->stats().pool_builds, 0);
  EXPECT_EQ(ctx->stats().pool_construct_failures, 1);
  EXPECT_EQ(ctx->stats().splitter_builds, 1);
  EXPECT_EQ(diag.pool_construct_failures.load(), 1);
  EXPECT_EQ(ctx->thread_pool(), nullptr);

  // A different thread count is a new request: the pool is built.
  DecomposeOptions four = opt;
  four.num_threads = 4;
  EXPECT_EQ(ctx->decompose(w, four).coloring.color, reference.coloring.color);
  EXPECT_EQ(ctx->stats().pool_builds, 1);
  EXPECT_NE(ctx->thread_pool(), nullptr);
}

TEST_F(Oom, FailedFastContextPoolDegradesOnceAndIsNotRetried) {
  const Graph g = make_grid_cube(2, 16);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 47);
  DecomposeDiagnostics diag;
  FastOptions opt;
  opt.inner.k = 4;
  opt.inner.num_threads = 2;
  opt.inner.diagnostics = &diag;
  opt.coarse_target = 64;  // coarsen, so a coarse context borrows the pool
  FastOptions serial = opt;
  serial.inner.num_threads = 1;
  serial.inner.diagnostics = nullptr;
  const FastResult reference = decompose_fast(g, w, serial);

  auto ctx = construct_with_failed_pool<FastContext>(
      [&] { return std::make_unique<FastContext>(g, opt); },
      [](FastContext& c) {
        return c.fine_context().stats().pool_construct_failures > 0;
      });
  ASSERT_NE(ctx, nullptr) << "no allocation index reached the pool";
  EXPECT_EQ(diag.pool_construct_failures.load(), 1);

  const FastResult first = ctx->decompose(w);
  EXPECT_EQ(first.coloring.color, reference.coloring.color);
  ASSERT_GT(first.levels, 0);
  EXPECT_EQ(ctx->coarse_context().thread_pool(), nullptr);
  EXPECT_EQ(ctx->fine_context().stats().splitter_builds, 1);
  EXPECT_EQ(ctx->coarse_context().stats().decompose_calls, 1);

  // Same options: no pool retry, and neither the coarse context, which
  // borrows the pool, nor the finest-level splitter is rebuilt either.
  for (int call = 0; call < 3; ++call) {
    EXPECT_EQ(ctx->decompose(w, opt).coloring.color, reference.coloring.color)
        << "call " << call;
    EXPECT_EQ(ctx->coarse_context().stats().decompose_calls, call + 2);
  }
  EXPECT_EQ(ctx->fine_context().stats().pool_builds, 0);
  EXPECT_EQ(ctx->fine_context().stats().pool_construct_failures, 1);
  EXPECT_EQ(ctx->fine_context().stats().splitter_builds, 1);
  EXPECT_EQ(ctx->stats().coarsen_builds, 1);
  EXPECT_EQ(diag.pool_construct_failures.load(), 1);

  FastOptions four = opt;
  four.inner.num_threads = 4;
  EXPECT_EQ(ctx->decompose(w, four).coloring.color, reference.coloring.color);
  EXPECT_EQ(ctx->fine_context().stats().pool_builds, 1);
  EXPECT_NE(ctx->coarse_context().thread_pool(), nullptr);
}

TEST_F(Oom, FailedServicePoolDegradesToSerialRounds) {
  const Graph g = make_grid_cube(2, 12);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 53);
  PartitionServiceOptions so;
  so.num_workers = 2;

  auto service = construct_with_failed_pool<PartitionService>(
      [&] { return std::make_unique<PartitionService>(so); },
      [](PartitionService& s) {
        return s.diagnostics().pool_construct_failures.load() > 0;
      });
  ASSERT_NE(service, nullptr) << "no allocation index reached the pool";
  EXPECT_EQ(service->diagnostics().pool_construct_failures.load(), 1);

  DecomposeOptions opt;
  opt.k = 4;
  const DecomposeResult reference = decompose(g, w, opt);
  service->load_graph("a", Graph(g), w);
  service->load_graph("b", Graph(g), w);
  for (const char* name : {"a", "b", "a"}) {
    ServiceRequest req;
    req.graph = name;
    req.options = opt;
    const ServiceResponse resp = service->execute(req);
    ASSERT_EQ(resp.status, ServiceStatus::Ok) << name << ": " << resp.error;
    EXPECT_EQ(resp.coloring.color, reference.coloring.color) << name;
  }
  EXPECT_EQ(service->diagnostics().pool_construct_failures.load(), 1);
}

}  // namespace
}  // namespace mmd
