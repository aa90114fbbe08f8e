// Incremental repartitioning: the prior-solution seed threaded through
// decompose -> contexts -> service (PR 8).
//
// The contract under test, layer by layer:
//   * DecomposeContext::repartition — the first call of a chain is a full
//     solve bit-identical to a cold decompose; a no-delta follow-up is a
//     cheap incremental no-op returning the prior; small localized drift
//     rides the seeded path and stays strictly balanced; drift past the
//     certificate escalates to a full solve bit-identical to a cold one.
//   * update_weights — validates every delta before mutating anything, so
//     a rejected batch leaves the chain exactly as it was.
//   * PartitionService — the `repartition` request mode: weights alongside
//     deltas is a BadRequest, unknown graphs are NotFound, and a served
//     chain matches a local context replaying the same deltas bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "core/context.hpp"
#include "core/decompose.hpp"
#include "core/verify.hpp"
#include "gen/grid.hpp"
#include "service/partition_service.hpp"
#include "test_helpers.hpp"

namespace mmd {
namespace {

/// The drift workhorse: a 2-D grid whose row-major ids make contiguous id
/// windows spatial strips, so localized deltas touch few classes and the
/// dirty-fraction certificate stays quiet.
Graph drift_grid(int side) {
  CostParams costs;
  costs.model = CostModel::Uniform;
  costs.lo = 1.0;
  costs.hi = 8.0;
  costs.seed = 0x8ee7;
  return make_grid_cube(2, side, costs);
}

/// A gentle contiguous drift batch: `count` vertices from `start` nudged
/// multiplicatively, clamped near 1 so the strict window survives.
std::vector<WeightDelta> gentle_band(std::span<const double> w, int start,
                                     int count, double factor) {
  std::vector<WeightDelta> d;
  for (int v = start; v < start + count; ++v) {
    const double nw =
        std::clamp(w[static_cast<std::size_t>(v)] * factor, 0.8, 1.25);
    d.push_back({static_cast<Vertex>(v), nw});
  }
  return d;
}

void expect_verified(const Graph& g, std::span<const double> w,
                     const Coloring& chi, const char* what) {
  const VerifyReport rep = verify_decomposition(g, w, chi);
  EXPECT_TRUE(rep.ok) << what << ": "
                      << (rep.failures.empty() ? "(no failure note)"
                                               : rep.failures.front());
}

TEST(Repartition, FirstCallIsFullSolveBitIdenticalToCold) {
  const Graph g = drift_grid(16);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  DecomposeOptions opt;
  opt.k = 4;

  const DecomposeResult cold = decompose(g, w, opt);

  DecomposeContext ctx(g, opt);
  EXPECT_FALSE(ctx.has_weights());
  ctx.set_weights(w);
  EXPECT_TRUE(ctx.has_weights());
  const DecomposeResult first = ctx.repartition();

  EXPECT_FALSE(first.incremental);
  EXPECT_FALSE(first.escalated);
  EXPECT_EQ(first.migration_cost, -1);  // no prior: nothing to migrate from
  EXPECT_EQ(first.coloring.color, cold.coloring.color);
  EXPECT_DOUBLE_EQ(first.max_boundary, cold.max_boundary);
  EXPECT_EQ(ctx.stats().repartition_calls, 1);
  EXPECT_EQ(ctx.stats().incremental_served, 0);
}

TEST(Repartition, NoDeltaFollowUpIsIncrementalNoop) {
  const Graph g = drift_grid(16);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  DecomposeOptions opt;
  opt.k = 4;
  DecomposeContext ctx(g, opt);
  ctx.set_weights(w);
  const DecomposeResult first = ctx.repartition();

  const DecomposeResult again = ctx.repartition();
  EXPECT_TRUE(again.incremental);
  EXPECT_FALSE(again.escalated);
  EXPECT_EQ(again.migration_cost, 0);
  EXPECT_EQ(again.coloring.color, first.coloring.color);
  EXPECT_EQ(ctx.stats().incremental_served, 1);
  EXPECT_EQ(ctx.stats().escalations, 0);
}

TEST(Repartition, SmallLocalDriftRidesSeededPathAndStaysStrict) {
  const Graph g = drift_grid(32);
  const int n = g.num_vertices();
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  DecomposeOptions opt;
  opt.k = 8;
  DecomposeContext ctx(g, opt);
  ctx.set_weights(w);
  (void)ctx.repartition();

  // One ~1% strip drifting by ~5%: well inside every certificate.
  const auto deltas = gentle_band(w, n / 3, n / 100, 1.05);
  for (const WeightDelta& d : deltas)
    w[static_cast<std::size_t>(d.v)] = d.weight;
  const DecomposeResult inc = ctx.repartition(deltas);

  EXPECT_TRUE(inc.incremental);
  EXPECT_FALSE(inc.escalated);
  EXPECT_GE(inc.migration_cost, 0);
  expect_verified(g, w, inc.coloring, "incremental result");
  // The context's weight view advanced with the deltas.
  ASSERT_EQ(ctx.weights().size(), w.size());
  for (const WeightDelta& d : deltas)
    EXPECT_DOUBLE_EQ(ctx.weights()[static_cast<std::size_t>(d.v)], d.weight);
}

TEST(Repartition, BalanceDriftEscalatesBitIdenticalToFullSolve) {
  const Graph g = drift_grid(16);
  const int n = g.num_vertices();
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  DecomposeOptions opt;
  opt.k = 4;
  DecomposeContext ctx(g, opt);
  ctx.set_weights(w);
  (void)ctx.repartition();

  // One strip spikes 8x: the prior's class sums blow the Definition 1
  // window, the balance certificate fires, and the full pipeline serves.
  std::vector<WeightDelta> deltas;
  for (int v = 0; v < n / 8; ++v) {
    deltas.push_back({static_cast<Vertex>(v), 8.0});
    w[static_cast<std::size_t>(v)] = 8.0;
  }
  const DecomposeResult esc = ctx.repartition(deltas);

  EXPECT_FALSE(esc.incremental);
  EXPECT_TRUE(esc.escalated);
  EXPECT_GE(esc.migration_cost, 0);
  expect_verified(g, w, esc.coloring, "escalated result");

  // Escalation strips the prior: the result may not differ in any byte
  // from a solve that never had one.
  const DecomposeResult cold = decompose(g, w, opt);
  EXPECT_EQ(esc.coloring.color, cold.coloring.color);
  EXPECT_DOUBLE_EQ(esc.max_boundary, cold.max_boundary);
  EXPECT_EQ(ctx.stats().escalations, 1);
}

TEST(Repartition, ScatteredDriftTripsDirtyFractionCertificate) {
  const Graph g = drift_grid(16);
  const int n = g.num_vertices();
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  DecomposeOptions opt;
  opt.k = 4;
  DecomposeContext ctx(g, opt);
  ctx.set_weights(w);
  (void)ctx.repartition();

  // A tiny nudge on one vertex per class: every class is delta-touched,
  // the dirty region is the whole graph, and the certificate escalates
  // even though balance barely moved.
  std::vector<WeightDelta> deltas;
  for (int c = 0; c < 4; ++c) {
    const auto v = static_cast<Vertex>(c * (n / 4) + n / 8);
    deltas.push_back({v, 1.01});
    w[static_cast<std::size_t>(v)] = 1.01;
  }
  const DecomposeResult esc = ctx.repartition(deltas);
  EXPECT_TRUE(esc.escalated);
  expect_verified(g, w, esc.coloring, "dirty-fraction escalation");
}

TEST(Repartition, UpdateWeightsValidatesBeforeMutating) {
  const Graph g = drift_grid(8);
  const int n = g.num_vertices();
  const std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  DecomposeOptions opt;
  opt.k = 4;
  DecomposeContext ctx(g, opt);

  // Chain not bound yet: misuse.
  EXPECT_THROW((void)ctx.update_weights({}), std::invalid_argument);

  ctx.set_weights(w);
  const DecomposeResult base = ctx.repartition();

  // A batch with one bad delta anywhere must apply nothing: good deltas
  // ahead of the bad one included.
  const std::vector<WeightDelta> out_of_range{{0, 2.0},
                                              {static_cast<Vertex>(n), 1.0}};
  EXPECT_THROW((void)ctx.update_weights(out_of_range), std::invalid_argument);
  const std::vector<WeightDelta> negative{{1, 2.0}, {2, -0.5}};
  EXPECT_THROW((void)ctx.update_weights(negative), std::invalid_argument);
  const std::vector<WeightDelta> non_finite{
      {3, std::numeric_limits<double>::infinity()}};
  EXPECT_THROW((void)ctx.update_weights(non_finite), std::invalid_argument);

  for (int v = 0; v < n; ++v)
    EXPECT_DOUBLE_EQ(ctx.weights()[static_cast<std::size_t>(v)], 1.0)
        << "rejected batch mutated vertex " << v;

  // The chain is untouched: a clean no-delta call still serves the prior.
  const DecomposeResult after = ctx.repartition();
  EXPECT_TRUE(after.incremental);
  EXPECT_EQ(after.coloring.color, base.coloring.color);
}

TEST(Repartition, SetWeightsRebindActsAsOneBigDeltaBatch) {
  const Graph g = drift_grid(16);
  const int n = g.num_vertices();
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  DecomposeOptions opt;
  opt.k = 4;
  DecomposeContext ctx(g, opt);
  ctx.set_weights(w);
  (void)ctx.repartition();

  // Rebind with a gently drifted copy of the whole vector; the changed
  // vertices become the pending dirty set of the next call.
  for (int v = n / 4; v < n / 4 + n / 50; ++v)
    w[static_cast<std::size_t>(v)] = 1.1;
  ctx.set_weights(w);
  const DecomposeResult res = ctx.repartition();
  expect_verified(g, w, res.coloring, "rebind result");
  if (res.escalated) {
    const DecomposeResult cold = decompose(g, w, opt);
    EXPECT_EQ(res.coloring.color, cold.coloring.color);
  }
}

TEST(Repartition, ServiceRequestFlowMatchesLocalChain) {
  const Graph g = drift_grid(16);
  const int n = g.num_vertices();
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);

  PartitionService service;
  service.load_graph("drift", Graph(g), w);

  ServiceRequest req;
  req.graph = "drift";
  req.mode = RequestMode::Repartition;
  req.options.k = 4;

  // Weights alongside a repartition request: caller misuse, typed.
  ServiceRequest bad = req;
  bad.weights = w;
  const ServiceResponse rejected = service.execute(bad);
  EXPECT_EQ(rejected.status, ServiceStatus::BadRequest);

  // Unknown graph: NotFound, not an exception.
  ServiceRequest missing = req;
  missing.graph = "no-such-graph";
  EXPECT_EQ(service.execute(missing).status, ServiceStatus::NotFound);

  // The chain itself, raced against a local context fed the same deltas.
  DecomposeOptions opt;
  opt.k = 4;
  DecomposeContext local(g, opt);
  local.set_weights(w);

  const ServiceResponse first = service.execute(req);
  ASSERT_EQ(first.status, ServiceStatus::Ok);
  EXPECT_FALSE(first.incremental);
  const DecomposeResult lfirst = local.repartition();
  EXPECT_EQ(first.coloring.color, lfirst.coloring.color);

  ServiceRequest drift = req;
  drift.deltas = gentle_band(w, n / 3, n / 100, 1.05);
  for (const WeightDelta& d : drift.deltas)
    w[static_cast<std::size_t>(d.v)] = d.weight;
  const ServiceResponse second = service.execute(drift);
  ASSERT_EQ(second.status, ServiceStatus::Ok);
  const DecomposeResult lsecond = local.repartition(drift.deltas);
  EXPECT_EQ(second.incremental, lsecond.incremental);
  EXPECT_EQ(second.escalated, lsecond.escalated);
  EXPECT_EQ(second.migration_cost, lsecond.migration_cost);
  EXPECT_EQ(second.coloring.color, lsecond.coloring.color);
  expect_verified(g, w, second.coloring, "service repartition");

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.repartitions, 2);
  // The rejected/missing requests must not have counted.
  EXPECT_EQ(stats.errors, 2);
}

TEST(Repartition, InvalidKOrPThrowsBeforeAnythingIsAdopted) {
  // The seeded attempt checks k and p itself: with a prior cached, a bad
  // value throws std::invalid_argument instead of being served (and
  // adopted) incrementally, and the chain then answers like a twin that
  // never saw the bad calls.
  const Graph g = drift_grid(16);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  DecomposeOptions opt;
  opt.k = 4;
  DecomposeContext ctx(g, opt);
  DecomposeContext twin(g, opt);
  ctx.set_weights(w);
  twin.set_weights(w);
  ctx.repartition();
  twin.repartition();

  const std::vector<WeightDelta> drift{{5, 1.5}, {77, 0.5}};
  DecomposeOptions bad_k = opt;
  bad_k.k = 0;
  DecomposeOptions bad_p = opt;
  bad_p.p = 1.0;
  EXPECT_THROW(ctx.repartition(drift, bad_k), std::invalid_argument);
  EXPECT_THROW(ctx.repartition(drift, bad_p), std::invalid_argument);

  const DecomposeResult r = ctx.repartition(drift, opt);
  const DecomposeResult t = twin.repartition(drift);
  EXPECT_EQ(r.coloring.color, t.coloring.color);
  EXPECT_EQ(r.incremental, t.incremental);
  EXPECT_EQ(r.migration_cost, t.migration_cost);
}

TEST(Repartition, StandalonePriorSolutionThroughConvenienceOverload) {
  // The PriorSolution plumbing is usable without a context: assemble one
  // by hand, try the seeded attempt, and fall back to the convenience
  // decompose overload when the certificate fires.
  const Graph g = drift_grid(16);
  const int n = g.num_vertices();
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  DecomposeOptions opt;
  opt.k = 4;
  const DecomposeResult base = decompose(g, w, opt);

  std::vector<Vertex> dirty;
  for (int v = n / 3; v < n / 3 + n / 100; ++v) {
    w[static_cast<std::size_t>(v)] = 1.05;
    dirty.push_back(static_cast<Vertex>(v));
  }

  PriorSolution prior;
  prior.coloring = &base.coloring;
  prior.max_boundary = base.max_boundary;
  prior.baseline_max_boundary = base.max_boundary;
  prior.dirty = dirty;

  const std::optional<DecomposeResult> inc =
      try_incremental_repartition(g, w, prior, opt);
  const DecomposeResult res = inc ? *inc : decompose(g, w, opt);
  EXPECT_EQ(res.incremental, inc.has_value());
  if (inc) {
    EXPECT_EQ(res.migration_cost, count_migration(base.coloring, res.coloring));
  }
  expect_verified(g, w, res.coloring, "standalone prior");
}

}  // namespace
}  // namespace mmd
