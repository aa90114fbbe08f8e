// Drift-trajectory differential fuzzing of the repartition chain (PR 8),
// in the PR 5 mold: random instances x random weight-drift trajectories
// x threads {1,2,4,8} x fork depths {1,2,3}, every step's output passing
// verify_decomposition and every thread shape producing bit-identical
// colorings — the incremental path is refine-only (thread-invariant by
// the worklist contract) and the escalated path is a full solve (thread-
// invariant by the splitter contract), so the whole chain must be.
//
// Plus the fault half: alloc / cancel / deadline faults armed inside
// update_weights and repartition calls.  A faulted call must fail typed
// and leave the chain retryable — deltas carry absolute weights and the
// dirty set is cleared only on success, so re-sending the same batch on
// the same warm context must return the bit-identical result of an
// unfaulted first try.
//
// This test binary overrides operator new to consult the fault plan; the
// library itself never does (see util/fault.hpp).
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "core/decompose.hpp"
#include "core/verify.hpp"
#include "service/partition_service.hpp"
#include "test_helpers.hpp"
#include "util/fault.hpp"
#include "util/prng.hpp"

// ---- fault-consulting allocator (test binary only) -------------------------

// The replacements stay out of line: inlined, they would show the compiler
// malloc's pointer reaching operator delete, or operator new's reaching
// free() (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (mmd::fault::should_fail_alloc()) throw std::bad_alloc();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
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

constexpr long kCountOnly = 1L << 40;
constexpr int kSteps = 5;

struct DriftInstance {
  Graph graph;
  std::vector<double> weights;  ///< base weights of the chain
  int k;
  /// One delta batch per step; absolute weights, reproducible.
  std::vector<std::vector<WeightDelta>> trajectory;
};

/// Random connected-ish instance plus a drift trajectory mixing the
/// regimes on purpose: most steps are gentle localized nudges (the
/// incremental diet), some are scattered or violent (certificate food).
DriftInstance random_drift_instance(std::uint64_t seed) {
  Rng rng(seed);
  const int n = static_cast<int>(rng.uniform_int(8, 100));
  const int m = static_cast<int>(rng.uniform_int(n, 4 * n));
  GraphBuilder builder(static_cast<Vertex>(n));
  // A path backbone keeps the graph connected so boundaries are nontrivial.
  for (int v = 0; v + 1 < n; ++v)
    builder.add_edge(static_cast<Vertex>(v), static_cast<Vertex>(v + 1),
                     rng.uniform(0.1, 10.0));
  for (int i = 0; i < m; ++i) {
    const auto u =
        static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
    const auto v =
        static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    builder.add_edge(u, v, rng.log_uniform(0.1, 100.0));
  }
  DriftInstance inst;
  inst.graph = builder.build();
  inst.weights.assign(static_cast<std::size_t>(n), 1.0);
  for (auto& w : inst.weights) w = rng.uniform(0.5, 2.0);
  inst.k = static_cast<int>(rng.uniform_int(2, n > 16 ? 8 : 2));

  std::vector<double> w = inst.weights;
  for (int step = 0; step < kSteps; ++step) {
    std::vector<WeightDelta> batch;
    const auto kind = rng.next_below(4);
    if (kind == 0) {
      // Violent: one vertex spikes hard (balance-certificate food).
      const auto v =
          static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
      const double nw = rng.uniform(5.0, 20.0);
      batch.push_back({v, nw});
      w[static_cast<std::size_t>(v)] = nw;
    } else if (kind == 1) {
      // Scattered: a few vertices anywhere (dirty-fraction food).
      const int count = static_cast<int>(rng.uniform_int(1, 6));
      for (int j = 0; j < count; ++j) {
        const auto v =
            static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
        const double nw = std::clamp(
            w[static_cast<std::size_t>(v)] * std::exp(rng.uniform(-0.3, 0.3)),
            0.25, 4.0);
        batch.push_back({v, nw});
        w[static_cast<std::size_t>(v)] = nw;
      }
    } else {
      // Gentle contiguous strip (the incremental diet); kind 3 repeats a
      // vertex inside the batch, pinning later-delta-wins semantics.
      const int count = std::max(1, n / 20);
      const int start = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(n - count + 1)));
      for (int v = start; v < start + count; ++v) {
        const double nw = std::clamp(
            w[static_cast<std::size_t>(v)] * std::exp(rng.uniform(-0.1, 0.1)),
            0.5, 2.0);
        batch.push_back({static_cast<Vertex>(v), nw});
        w[static_cast<std::size_t>(v)] = nw;
      }
      if (kind == 3 && !batch.empty()) {
        batch.push_back(batch.front());  // duplicate: idempotent re-apply
      }
    }
    inst.trajectory.push_back(std::move(batch));
  }
  return inst;
}

void expect_verified(const DriftInstance& inst, std::span<const double> w,
                     const Coloring& chi, const std::string& what) {
  const VerifyReport rep = verify_decomposition(inst.graph, w, chi);
  EXPECT_TRUE(rep.ok) << what << ": "
                      << (rep.failures.empty() ? "(no failure note)"
                                               : rep.failures.front());
}

/// Replay the whole trajectory on a fresh context; returns the coloring
/// (plus flags) of every step.
struct StepResult {
  Coloring coloring;
  bool incremental = false;
  bool escalated = false;
  long migration_cost = -1;
};

std::vector<StepResult> replay(const DriftInstance& inst,
                               const DecomposeOptions& opt) {
  DecomposeContext ctx(inst.graph, opt);
  ctx.set_weights(inst.weights);
  std::vector<StepResult> out;
  DecomposeResult base = ctx.repartition();
  out.push_back({base.coloring, base.incremental, base.escalated,
                 base.migration_cost});
  for (const auto& batch : inst.trajectory) {
    DecomposeResult r = ctx.repartition(batch);
    out.push_back({r.coloring, r.incremental, r.escalated, r.migration_cost});
  }
  return out;
}

class DriftFuzz : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { fault::disarm(); }
};

TEST_P(DriftFuzz, TrajectoryBitIdenticalAcrossThreadShapes) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 77351ull + 13;
  const DriftInstance inst = random_drift_instance(seed);
  SCOPED_TRACE("seed " + std::to_string(seed) + " n=" +
               std::to_string(inst.graph.num_vertices()) + " k=" +
               std::to_string(inst.k));

  DecomposeOptions opt;
  opt.k = inst.k;
  const std::vector<StepResult> reference = replay(inst, opt);

  // Every step verifies under the weights in force at that step, and the
  // escalated steps match a cold solve of the same weights exactly.
  {
    std::vector<double> w = inst.weights;
    for (std::size_t step = 0; step < reference.size(); ++step) {
      if (step > 0)
        for (const WeightDelta& d : inst.trajectory[step - 1])
          w[static_cast<std::size_t>(d.v)] = d.weight;
      const std::string what = "serial step " + std::to_string(step);
      expect_verified(inst, w, reference[step].coloring, what);
      if (!reference[step].incremental) {
        const DecomposeResult cold = decompose(inst.graph, w, opt);
        EXPECT_EQ(reference[step].coloring.color, cold.coloring.color)
            << what << ": full-solve step diverged from a cold solve";
      }
    }
  }

  for (const int threads : {2, 4, 8}) {
    for (const int depth : {1, 2, 3}) {
      DecomposeOptions topt = opt;
      topt.num_threads = threads;
      topt.fork_depth = depth;
      const std::vector<StepResult> got = replay(inst, topt);
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t step = 0; step < got.size(); ++step) {
        EXPECT_EQ(got[step].incremental, reference[step].incremental)
            << "threads=" << threads << " depth=" << depth << " step=" << step;
        EXPECT_EQ(got[step].escalated, reference[step].escalated)
            << "threads=" << threads << " depth=" << depth << " step=" << step;
        EXPECT_EQ(got[step].migration_cost, reference[step].migration_cost)
            << "threads=" << threads << " depth=" << depth << " step=" << step;
        ASSERT_EQ(got[step].coloring.color, reference[step].coloring.color)
            << "threads=" << threads << " depth=" << depth << " step=" << step;
      }
    }
  }
}

enum class Plan { Alloc, Cancel, Deadline };
constexpr Plan kPlans[] = {Plan::Alloc, Plan::Cancel, Plan::Deadline};

const char* plan_name(Plan p) {
  switch (p) {
    case Plan::Alloc: return "alloc";
    case Plan::Cancel: return "cancel";
    case Plan::Deadline: return "deadline";
  }
  return "?";
}

void arm(Plan p, long nth) {
  switch (p) {
    case Plan::Alloc: fault::arm_alloc_failure(nth); break;
    case Plan::Cancel:
      fault::arm_checkpoint_fault(nth, fault::CheckpointFault::Cancel);
      break;
    case Plan::Deadline:
      fault::arm_checkpoint_fault(nth, fault::CheckpointFault::Deadline);
      break;
  }
}

std::vector<long> sample_indices(long total) {
  std::vector<long> idx{0};
  if (total > 1) idx.push_back(total / 2);
  if (total > 2) idx.push_back(total - 1);
  idx.push_back(total + 7);  // beyond every site: must complete untouched
  return idx;
}

TEST_P(DriftFuzz, FaultedRepartitionFailsTypedAndRetriesBitIdentical) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 50587ull + 7;
  const DriftInstance inst = random_drift_instance(seed);
  SCOPED_TRACE("seed " + std::to_string(seed) + " n=" +
               std::to_string(inst.graph.num_vertices()) + " k=" +
               std::to_string(inst.k));

  DecomposeOptions opt;
  opt.k = inst.k;
  const std::vector<StepResult> expected = replay(inst, opt);

  // The faulted step: the middle of the trajectory, a warm chain with a
  // live prior on both sides.
  const std::size_t fstep = inst.trajectory.size() / 2;
  const auto& batch = inst.trajectory[fstep];

  // Probe the site count of the faulted step's repartition on a clean
  // replica (arming an unreachable target: counters advance, nothing
  // fires, the replica is discarded).
  auto make_chain_at_fstep = [&] {
    auto ctx = std::make_unique<DecomposeContext>(inst.graph, opt);
    ctx->set_weights(inst.weights);
    (void)ctx->repartition();
    for (std::size_t s = 0; s < fstep; ++s)
      (void)ctx->repartition(inst.trajectory[s]);
    return ctx;
  };

  for (const Plan plan : kPlans) {
    long sites = 0;
    {
      auto probe = make_chain_at_fstep();
      arm(plan, kCountOnly);
      (void)probe->repartition(batch);
      switch (plan) {
        case Plan::Alloc: sites = fault::allocs_seen(); break;
        case Plan::Cancel:
        case Plan::Deadline: sites = fault::checkpoints_seen(); break;
      }
      fault::disarm();
    }
    if (sites == 0) continue;

    for (const long nth : sample_indices(sites)) {
      auto ctx = make_chain_at_fstep();
      arm(plan, nth);
      bool faulted = false;
      try {
        const DecomposeResult res = ctx->repartition(batch);
        fault::disarm();
        // Nothing fired: the result is the unfaulted step, exactly.
        ASSERT_EQ(res.coloring.color, expected[fstep + 1].coloring.color)
            << plan_name(plan) << " nth=" << nth << " (unfired)";
      } catch (const std::bad_alloc&) {
        faulted = true;
      } catch (const Cancelled&) {
        faulted = true;
      } catch (const DeadlineExceeded&) {
        faulted = true;
      }
      // Anything else (InvariantViolation, invalid_argument, a raw crash)
      // escapes and fails the test — that is the contract.
      fault::disarm();
      if (faulted) {
        // Retry the SAME batch on the SAME warm context: absolute deltas
        // re-apply as a no-op and the dirty set survived the fault, so
        // the retry must serve the unfaulted step bit for bit.
        const DecomposeResult retry = ctx->repartition(batch);
        ASSERT_EQ(retry.coloring.color, expected[fstep + 1].coloring.color)
            << plan_name(plan) << " nth=" << nth << ": retry diverged";
        ASSERT_EQ(retry.migration_cost, expected[fstep + 1].migration_cost)
            << plan_name(plan) << " nth=" << nth;
        // And the chain keeps going: the rest of the trajectory matches.
        for (std::size_t s = fstep + 1; s < inst.trajectory.size(); ++s) {
          const DecomposeResult rest = ctx->repartition(inst.trajectory[s]);
          ASSERT_EQ(rest.coloring.color, expected[s + 1].coloring.color)
              << plan_name(plan) << " nth=" << nth << " tail step " << s;
        }
      }
    }
  }
}

TEST_P(DriftFuzz, FaultedUpdateWeightsLeavesChainRetryable) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 28051ull + 3;
  const DriftInstance inst = random_drift_instance(seed);
  SCOPED_TRACE("seed " + std::to_string(seed));

  DecomposeOptions opt;
  opt.k = inst.k;
  const std::vector<StepResult> expected = replay(inst, opt);

  // Arm an allocation failure at every plausible index of the first
  // batch's update_weights (its only throwing operation is the dirty-set
  // reserve, so indices are few); a fresh chain per armed index keeps
  // each run a first application of the batch.
  const auto& batch = inst.trajectory[0];
  for (long nth = 0; nth < 4; ++nth) {
    DecomposeContext ctx(inst.graph, opt);
    ctx.set_weights(inst.weights);
    (void)ctx.repartition();

    arm(Plan::Alloc, nth);
    try {
      (void)ctx.update_weights(batch);
      fault::disarm();
      // Applied cleanly (index beyond the call's allocations): the
      // deltas are in force and marked dirty, so a solve-only
      // repartition must serve the expected step.
      const DecomposeResult r = ctx.repartition();
      ASSERT_EQ(r.coloring.color, expected[1].coloring.color)
          << "nth=" << nth << " (update applied, solve-only repartition)";
    } catch (const std::bad_alloc&) {
      fault::disarm();
      // Rejected atomically (or applied then faulted — absolute deltas
      // make the re-apply a no-op either way): re-sending the same batch
      // must serve the unfaulted step bit for bit.
      const DecomposeResult r = ctx.repartition(batch);
      ASSERT_EQ(r.coloring.color, expected[1].coloring.color)
          << "nth=" << nth << " (update faulted, retry)";
    }
    fault::disarm();
  }
}

TEST_P(DriftFuzz, ServiceRepartitionSurvivesFaultsAndRetries) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 91121ull + 29;
  const DriftInstance inst = random_drift_instance(seed);
  SCOPED_TRACE("seed " + std::to_string(seed));

  DecomposeOptions opt;
  opt.k = inst.k;
  const std::vector<StepResult> expected = replay(inst, opt);

  // Fault the first drift step at a handful of checkpoint indices: the
  // service must return a typed retryable status, keep the context
  // cached, and serve the bit-identical unfaulted result on re-send.  A
  // fresh service per armed index keeps every run a first application.
  // (Checkpoint plans only: they fire strictly inside the decompose call,
  // so the typed-response boundary is guaranteed; alloc faults on the
  // whole service would also hit the admission machinery of this very
  // test binary.)
  for (const Plan plan : {Plan::Cancel, Plan::Deadline}) {
    for (const long nth : {0L, 5L}) {
      PartitionService service;
      service.load_graph("drift", Graph(inst.graph), inst.weights);
      ServiceRequest req;
      req.graph = "drift";
      req.mode = RequestMode::Repartition;
      req.options.k = inst.k;
      const ServiceResponse base = service.execute(req);
      ASSERT_EQ(base.status, ServiceStatus::Ok);
      ASSERT_EQ(base.coloring.color, expected[0].coloring.color);

      ServiceRequest drift = req;
      drift.deltas = inst.trajectory[0];
      arm(plan, nth);
      const ServiceResponse faulted = service.execute(drift);
      fault::disarm();
      if (faulted.ok()) {
        // The armed index lay beyond the request's sites.
        ASSERT_EQ(faulted.coloring.color, expected[1].coloring.color)
            << plan_name(plan) << " nth=" << nth << " (unfired)";
      } else {
        EXPECT_TRUE(faulted.status == ServiceStatus::Cancelled ||
                    faulted.status == ServiceStatus::DeadlineExceeded)
            << plan_name(plan) << " nth=" << nth << " status "
            << to_string(faulted.status);
        const ServiceResponse retry = service.execute(drift);
        ASSERT_EQ(retry.status, ServiceStatus::Ok)
            << plan_name(plan) << " nth=" << nth;
        ASSERT_EQ(retry.coloring.color, expected[1].coloring.color)
            << plan_name(plan) << " nth=" << nth << ": retry diverged";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DriftFuzz, ::testing::Range(0, 5));

}  // namespace
}  // namespace mmd
