// Execution-control suite: deadlines, cooperative cancellation, and the
// checkpoint contract across the decompose stack.
//
// The two hard promises under test:
//   * an expired deadline / pre-fired token throws *before any work* —
//     zero splitter entries, zero refinement rounds — and the typed
//     exception identifies which limit fired;
//   * cancellation is honored at the *next* checkpoint, not "eventually":
//     the fault framework's cancel-at-N plan pins that the N-th checkpoint
//     is exactly where the Cancelled escape happens (checkpoints_seen()
//     == N+1), for N swept across a whole serial decompose.
// Plus the graceful-degradation contract of fast mode: a deadline that
// strikes after the coarse level yields a degraded-but-verified result
// instead of a throw, and the same warm context then serves clean calls
// bit-identically.
//
// All checkpoint-fault tests run serial (num_threads = 1): "the N-th
// checkpoint" is only schedule-independent without concurrent lanes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <thread>
#include <vector>

#include "core/context.hpp"
#include "core/decompose.hpp"
#include "core/fast.hpp"
#include "core/verify.hpp"
#include "gen/grid.hpp"
#include "test_helpers.hpp"
#include "util/exec_control.hpp"
#include "util/fault.hpp"

namespace mmd {
namespace {

/// Unreachable fault target: counts sites without ever firing.
constexpr long kCountOnly = 1L << 40;

/// Every fixture disarms on teardown so a failing EXPECT can never leak an
/// armed plan into the next test.
class ExecControlUnit : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm(); }
};
using ExecControlDecompose = ExecControlUnit;
using ExecControlFast = ExecControlUnit;

TEST_F(ExecControlUnit, DefaultIsUnlimitedAndCheckIsANoOp) {
  ExecControl ec;
  EXPECT_TRUE(ec.unlimited());
  EXPECT_NO_THROW(ec.check());
}

TEST_F(ExecControlUnit, ExpiredTimeoutThrowsDeadlineExceeded) {
  const ExecControl ec = ExecControl::with_timeout_ms(0);
  EXPECT_FALSE(ec.unlimited());
  EXPECT_THROW(ec.check(), DeadlineExceeded);
  // LONG_MAX ms overflows the clock's nanoseconds if converted naively;
  // it must saturate to no deadline, not wrap into the past.
  for (const long ms : {60'000L, LONG_MAX}) {
    const ExecControl generous = ExecControl::with_timeout_ms(ms);
    EXPECT_NO_THROW(generous.check()) << ms;
  }
}

TEST_F(ExecControlUnit, CancelTokenFiresAndResets) {
  CancelToken token;
  ExecControl ec;
  ec.cancel = &token;
  EXPECT_FALSE(ec.unlimited());
  EXPECT_NO_THROW(ec.check());
  token.request_cancel();
  EXPECT_TRUE(token.cancel_requested());
  EXPECT_THROW(ec.check(), Cancelled);
  token.reset();
  EXPECT_NO_THROW(ec.check());
}

TEST_F(ExecControlUnit, CancelWinsOverDeadlineAndBothAreRuntimeErrors) {
  CancelToken token;
  token.request_cancel();
  ExecControl ec = ExecControl::with_timeout_ms(0);
  ec.cancel = &token;
  EXPECT_THROW(ec.check(), Cancelled);  // token checked before the clock
  // Both escape hatches are runtime errors (retryable), never logic errors.
  EXPECT_THROW(
      { throw DeadlineExceeded(); }, std::runtime_error);
  EXPECT_THROW(
      { throw Cancelled(); }, std::runtime_error);
}

TEST_F(ExecControlUnit, InjectedCheckpointFaultFiresOnUnlimitedControls) {
  // The fault hook must run before the unlimited() early-out, else the
  // default-options pipeline would have zero testable checkpoints.
  const ExecControl ec;
  fault::arm_checkpoint_fault(1, fault::CheckpointFault::Cancel);
  EXPECT_NO_THROW(ec.check());  // checkpoint 0
  EXPECT_THROW(ec.check(), Cancelled);  // checkpoint 1 = the armed index
  EXPECT_EQ(fault::checkpoints_seen(), 2);
  fault::arm_checkpoint_fault(0, fault::CheckpointFault::Deadline);
  EXPECT_THROW(ec.check(), DeadlineExceeded);
}

// ---- decompose stack --------------------------------------------------------

struct Fixture {
  Graph g;
  std::vector<double> w;
  DecomposeOptions opt;
};

Fixture small_grid_fixture() {
  Fixture f;
  f.g = make_grid_cube(2, 8);
  f.w = testing::weights_for(f.g, WeightModel::Uniform, 17);
  f.opt.k = 5;
  return f;
}

TEST_F(ExecControlDecompose, ExpiredDeadlineStopsBeforeAnyWork) {
  const Fixture f = small_grid_fixture();
  DecomposeOptions opt = f.opt;
  opt.exec = ExecControl::with_timeout_ms(0);
  // Count splitter entries through the fault framework without firing.
  fault::arm_splitter_fault(kCountOnly);
  EXPECT_THROW(decompose(f.g, f.w, opt), DeadlineExceeded);
  EXPECT_EQ(fault::splits_seen(), 0)
      << "an expired deadline must be detected at entry, before any split";
  fault::disarm();
  // The same options minus the deadline must still work.
  opt.exec = ExecControl{};
  const DecomposeResult res = decompose(f.g, f.w, opt);
  EXPECT_TRUE(res.balance.strictly_balanced);
}

TEST_F(ExecControlDecompose, PreCancelledTokenStopsBeforeAnyWork) {
  const Fixture f = small_grid_fixture();
  CancelToken token;
  token.request_cancel();
  DecomposeOptions opt = f.opt;
  opt.exec.cancel = &token;
  fault::arm_splitter_fault(kCountOnly);
  EXPECT_THROW(decompose(f.g, f.w, opt), Cancelled);
  EXPECT_EQ(fault::splits_seen(), 0);
  fault::disarm();
  token.reset();
  EXPECT_NO_THROW(decompose(f.g, f.w, opt));
}

TEST_F(ExecControlDecompose, MultiDecomposeHonorsTheDeadlineAtEntry) {
  const Fixture f = small_grid_fixture();
  std::vector<double> extra(f.w.size(), 1.0);
  const std::vector<MeasureRef> refs{MeasureRef(extra)};
  DecomposeOptions opt = f.opt;
  opt.exec = ExecControl::with_timeout_ms(0);
  fault::arm_splitter_fault(kCountOnly);
  EXPECT_THROW(decompose_multi(f.g, f.w, refs, opt), DeadlineExceeded);
  EXPECT_EQ(fault::splits_seen(), 0);
}

/// Runs `call` with `base` plus a fresh cancel token, then fires the token
/// and lets it go out of scope: a context that kept the call's exec would
/// throw Cancelled on its next call, or read a dead token.
template <class Call>
void with_spent_token(DecomposeOptions base, Call call) {
  CancelToken token;
  base.exec.cancel = &token;
  call(base);
  token.request_cancel();
}

TEST_F(ExecControlDecompose, PerCallExecDoesNotOutliveItsCall) {
  // A call's exec applies to that call only: the calls without options
  // after it run with the constructor's (unlimited) exec and answer like
  // a twin context that never saw a limit.
  const Fixture f = small_grid_fixture();
  std::vector<double> extra(f.w.size(), 1.0);
  const std::vector<MeasureRef> refs{MeasureRef(extra)};
  const std::vector<WeightDelta> drift{{3, 2.0}, {40, 0.5}};
  DecomposeContext ctx(f.g, f.opt);
  DecomposeContext twin(f.g, f.opt);
  ctx.set_weights(f.w);
  twin.set_weights(f.w);

  DecomposeOptions expired = f.opt;
  expired.exec = ExecControl::with_timeout_ms(0);
  EXPECT_THROW(ctx.decompose(f.w, expired), DeadlineExceeded);
  EXPECT_EQ(ctx.decompose(f.w).coloring.color,
            twin.decompose(f.w).coloring.color);

  with_spent_token(f.opt, [&](const DecomposeOptions& o) {
    ctx.decompose(f.w, o);
  });
  EXPECT_EQ(ctx.decompose(f.w).coloring.color,
            twin.decompose(f.w).coloring.color);

  with_spent_token(f.opt, [&](const DecomposeOptions& o) {
    ctx.repartition({}, o);
  });
  twin.repartition();
  EXPECT_EQ(ctx.repartition(drift).coloring.color,
            twin.repartition(drift).coloring.color);

  with_spent_token(f.opt, [&](const DecomposeOptions& o) {
    ctx.decompose_multi(f.w, refs, o);
  });
  EXPECT_EQ(ctx.decompose_multi(f.w, refs).coloring.color,
            twin.decompose_multi(f.w, refs).coloring.color);
}

TEST_F(ExecControlDecompose, PerCallSinkDoesNotOutliveItsCall) {
  // A call's diagnostics sink is per-call state like its exec: the context
  // keeps the constructor's, and its splitter carries the constructor's
  // sink and exec again as soon as a call ends, also when it throws.
  const Fixture f = small_grid_fixture();
  DecomposeDiagnostics bound, call;
  CancelToken token;
  DecomposeOptions opt = f.opt;
  opt.diagnostics = &bound;
  DecomposeContext ctx(f.g, opt);
  ctx.set_weights(f.w);
  DecomposeOptions carry = f.opt;
  carry.diagnostics = &call;
  carry.exec.cancel = &token;
  DecomposeOptions expired = carry;
  expired.exec = ExecControl::with_timeout_ms(0);
  expired.exec.cancel = &token;
  const auto expect_bound = [&](const char* after) {
    EXPECT_EQ(ctx.splitter().diagnostics(), &bound) << after;
    EXPECT_EQ(ctx.splitter().exec_control().cancel, nullptr) << after;
  };

  ctx.decompose(f.w, carry);
  EXPECT_EQ(ctx.options().diagnostics, &bound);
  expect_bound("decompose");
  EXPECT_THROW(ctx.decompose(f.w, expired), DeadlineExceeded);
  expect_bound("a throwing decompose");
  ctx.decompose(f.w);
  EXPECT_EQ(ctx.splitter().diagnostics(), &bound);

  ctx.repartition({}, carry);
  EXPECT_EQ(ctx.options().diagnostics, &bound);
  expect_bound("repartition");
  ctx.repartition();
  EXPECT_EQ(ctx.splitter().diagnostics(), &bound);

  ctx.decompose_multi(f.w, {}, carry);
  expect_bound("decompose_multi");
  EXPECT_THROW(ctx.decompose_multi(f.w, {}, expired), DeadlineExceeded);
  expect_bound("a throwing decompose_multi");
}

TEST_F(ExecControlDecompose, CancelFiresExactlyAtTheArmedCheckpoint) {
  // The cancellation-latency bound, measured: for any checkpoint index N,
  // injecting a cancel at N terminates the call at exactly checkpoint N —
  // no checkpoint is skipped and none runs after the escape.
  const Fixture f = small_grid_fixture();

  fault::arm_checkpoint_fault(kCountOnly, fault::CheckpointFault::Cancel);
  const DecomposeResult reference = decompose(f.g, f.w, f.opt);
  const long total = fault::checkpoints_seen();
  fault::disarm();
  ASSERT_GT(total, 20) << "serial decompose hit suspiciously few checkpoints";

  for (const long n : {0L, 1L, total / 4, total / 2, total - 1}) {
    fault::arm_checkpoint_fault(n, fault::CheckpointFault::Cancel);
    EXPECT_THROW(decompose(f.g, f.w, f.opt), Cancelled) << "n=" << n;
    EXPECT_EQ(fault::checkpoints_seen(), n + 1)
        << "cancel armed at checkpoint " << n
        << " was not honored at that exact checkpoint";
    fault::disarm();
  }

  // Disarmed, the pipeline is untouched by all that aborting.
  const DecomposeResult again = decompose(f.g, f.w, f.opt);
  EXPECT_EQ(again.coloring.color, reference.coloring.color);
}

TEST_F(ExecControlDecompose, WarmContextStaysReusableAfterEveryEscape) {
  // The context-reuse-after-failure guarantee: a Cancelled or
  // DeadlineExceeded escape leaves splitter scratch, ordering caches, and
  // workspaces in a state where the next call is bit-identical to a fresh
  // context's answer.
  const Fixture f = small_grid_fixture();
  const DecomposeResult reference = decompose(f.g, f.w, f.opt);

  DecomposeContext ctx(f.g, f.opt);
  fault::arm_checkpoint_fault(kCountOnly, fault::CheckpointFault::Cancel);
  (void)ctx.decompose(f.w);
  const long total = fault::checkpoints_seen();
  fault::disarm();

  for (const long n : {1L, total / 3, total / 2, (3 * total) / 4}) {
    fault::arm_checkpoint_fault(n, fault::CheckpointFault::Cancel);
    EXPECT_THROW(ctx.decompose(f.w), Cancelled) << "n=" << n;
    fault::disarm();
    const DecomposeResult retry = ctx.decompose(f.w);
    ASSERT_EQ(retry.coloring.color, reference.coloring.color)
        << "warm retry diverged after cancel at checkpoint " << n;

    fault::arm_checkpoint_fault(n, fault::CheckpointFault::Deadline);
    EXPECT_THROW(ctx.decompose(f.w), DeadlineExceeded) << "n=" << n;
    fault::disarm();
    const DecomposeResult retry2 = ctx.decompose(f.w);
    ASSERT_EQ(retry2.coloring.color, reference.coloring.color)
        << "warm retry diverged after deadline at checkpoint " << n;
  }
}

TEST_F(ExecControlDecompose, MidRunCancellationFromAnotherThreadTerminates) {
  // Liveness smoke with a real token and real threads: whatever the
  // schedule, the call either finishes before the cancel lands or throws
  // Cancelled — and the next call succeeds either way.  (The *latency*
  // bound is pinned deterministically above; this checks the cross-thread
  // plumbing end to end.)
  const Fixture f = small_grid_fixture();
  CancelToken token;
  DecomposeOptions opt = f.opt;
  opt.exec.cancel = &token;

  std::atomic<bool> cancelled_seen{false};
  std::atomic<bool> completed{false};
  std::thread worker([&] {
    try {
      (void)decompose(f.g, f.w, opt);
      completed.store(true);
    } catch (const Cancelled&) {
      cancelled_seen.store(true);
    }
  });
  token.request_cancel();
  worker.join();
  EXPECT_TRUE(cancelled_seen.load() || completed.load());
  token.reset();
  EXPECT_NO_THROW(decompose(f.g, f.w, opt));
}

// ---- fast mode: graceful degradation ---------------------------------------

TEST_F(ExecControlFast, DeadlineSweepDegradesGracefullyAfterTheCoarseLevel) {
  // Inject a deadline at every possible checkpoint of a serial fast
  // decompose.  Three outcomes are legal, and each must uphold its
  // contract:
  //   * thrown DeadlineExceeded — the deadline struck at entry or during
  //     the coarse level, where no complete solution exists yet;
  //   * degraded result — struck during uncoarsening: the coloring must
  //     still be total, carry a populated verify certificate, and the
  //     degraded_calls counter must tick;
  //   * complete result — the armed index lies beyond the run's
  //     checkpoints; must be bit-identical to the unfaulted reference.
  const Graph g = make_grid_cube(2, 6);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 23);
  FastOptions opt;
  opt.inner.k = 4;
  opt.coarse_target = 12;  // force several coarsening levels on 64 vertices

  FastContext ctx(g, opt);
  const FastResult reference = ctx.decompose(w);
  ASSERT_FALSE(reference.degraded);
  ASSERT_GT(reference.levels, 0) << "fixture must actually coarsen";

  fault::arm_checkpoint_fault(kCountOnly, fault::CheckpointFault::Deadline);
  (void)ctx.decompose(w);
  const long total = fault::checkpoints_seen();
  fault::disarm();
  ASSERT_GT(total, 10);

  long threw = 0, degraded = 0, complete = 0;
  const long step = total > 300 ? total / 150 : 1;
  for (long n = 0; n < total; n += step) {
    fault::arm_checkpoint_fault(n, fault::CheckpointFault::Deadline);
    try {
      const FastResult res = ctx.decompose(w);
      fault::disarm();
      if (res.degraded) {
        ++degraded;
        testing::expect_total_coloring(g, res.coloring);
        EXPECT_TRUE(res.certificate.total)
            << "degraded result at n=" << n << " lost coloring totality";
        // The degraded coloring must agree with its own certificate when
        // re-verified from scratch.
        const VerifyReport recheck = verify_decomposition(g, w, res.coloring);
        EXPECT_EQ(recheck.total, res.certificate.total);
        EXPECT_EQ(recheck.strictly_balanced, res.certificate.strictly_balanced);
      } else {
        ++complete;
        EXPECT_EQ(res.coloring.color, reference.coloring.color)
            << "unfired fault at n=" << n << " perturbed the result";
      }
    } catch (const DeadlineExceeded&) {
      fault::disarm();
      ++threw;
    }
    // Warm reuse after every single outcome.
    const FastResult clean = ctx.decompose(w);
    ASSERT_FALSE(clean.degraded) << "n=" << n;
    ASSERT_EQ(clean.coloring.color, reference.coloring.color) << "n=" << n;
  }

  EXPECT_GT(threw, 0) << "no index hit the coarse level?";
  EXPECT_GT(degraded, 0) << "no index hit the uncoarsening path?";
  EXPECT_EQ(ctx.stats().degraded_calls, degraded);
}

TEST_F(ExecControlFast, CancellationNeverDegradesItAlwaysThrows) {
  // Cancellation means "the caller wants out", not "best effort, please":
  // even where a deadline would degrade, a cancel must throw.
  const Graph g = make_grid_cube(2, 6);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 23);
  FastOptions opt;
  opt.inner.k = 4;
  opt.coarse_target = 12;
  FastContext ctx(g, opt);
  const FastResult reference = ctx.decompose(w);

  fault::arm_checkpoint_fault(kCountOnly, fault::CheckpointFault::Cancel);
  (void)ctx.decompose(w);
  const long total = fault::checkpoints_seen();
  fault::disarm();

  long threw = 0;
  const long step = total > 120 ? total / 60 : 1;
  for (long n = 0; n < total; n += step) {
    fault::arm_checkpoint_fault(n, fault::CheckpointFault::Cancel);
    try {
      const FastResult res = ctx.decompose(w);
      EXPECT_FALSE(res.degraded)
          << "cancel at n=" << n << " produced a degraded result";
    } catch (const Cancelled&) {
      ++threw;
    }
    fault::disarm();
  }
  EXPECT_GT(threw, 0);
  const FastResult clean = ctx.decompose(w);
  EXPECT_EQ(clean.coloring.color, reference.coloring.color);
}

TEST_F(ExecControlFast, PerCallExecDoesNotOutliveItsCall) {
  // FastContext follows DecomposeContext's rule.
  const Graph g = make_grid_cube(2, 12);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 29);
  FastOptions opt;
  opt.inner.k = 4;
  opt.coarse_target = 40;
  FastContext ctx(g, opt);
  FastContext twin(g, opt);
  with_spent_token(opt.inner, [&](const DecomposeOptions& inner) {
    FastOptions o = opt;
    o.inner = inner;
    ctx.decompose(w, o);
  });
  EXPECT_EQ(ctx.decompose(w).coloring.color, twin.decompose(w).coloring.color);
}

TEST_F(ExecControlFast, PerCallSinkDoesNotOutliveItsCall) {
  // The sink follows the exec rule too, down to the coarse-level context,
  // and neither level's splitter keeps a call's sink or token once the
  // call ends, also when it throws.
  const Graph g = make_grid_cube(2, 12);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 29);
  DecomposeDiagnostics bound, call;
  CancelToken token;
  FastOptions opt;
  opt.inner.k = 4;
  opt.coarse_target = 40;
  opt.inner.diagnostics = &bound;
  FastContext ctx(g, opt);
  FastOptions carry = opt;
  carry.inner.diagnostics = &call;
  carry.inner.exec.cancel = &token;
  const auto expect_bound = [&](const char* after) {
    for (DecomposeContext* level :
         {&ctx.fine_context(), &ctx.coarse_context()}) {
      EXPECT_EQ(level->splitter().diagnostics(), &bound) << after;
      EXPECT_EQ(level->splitter().exec_control().cancel, nullptr) << after;
    }
  };

  ASSERT_GT(ctx.decompose(w, carry).levels, 0) << "fixture must coarsen";
  EXPECT_EQ(ctx.options().inner.diagnostics, &bound);
  EXPECT_EQ(ctx.coarse_context().options().diagnostics, &bound);
  expect_bound("a carrying call");
  // A deadline a few checkpoints in strikes inside the coarse-level
  // pipeline, after its splitter was stamped with the call's options.
  fault::arm_checkpoint_fault(3, fault::CheckpointFault::Deadline);
  EXPECT_THROW(ctx.decompose(w, carry), DeadlineExceeded);
  fault::disarm();
  expect_bound("a throwing call");
  ctx.decompose(w);
  EXPECT_EQ(ctx.coarse_context().splitter().diagnostics(), &bound);
}

TEST_F(ExecControlFast, ExpiredWallClockDeadlineAtEntryThrows) {
  const Graph g = make_grid_cube(2, 6);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 23);
  FastOptions opt;
  opt.inner.k = 4;
  opt.coarse_target = 12;
  opt.inner.exec = ExecControl::with_timeout_ms(0);
  FastContext ctx(g, opt);
  EXPECT_THROW(ctx.decompose(w), DeadlineExceeded);
  // Warm reuse with the deadline lifted.
  FastOptions clean = opt;
  clean.inner.exec = ExecControl{};
  const FastResult res = ctx.decompose(w, clean);
  EXPECT_FALSE(res.degraded);
  testing::expect_total_coloring(g, res.coloring);
}

}  // namespace
}  // namespace mmd
