// trace_replay — synthetic production trace against PartitionService.
//
//   trace_replay [out.json] [--label <s>] [--requests <n>] [--clients <n>]
//                [--graphs <n>] [--workers <n>] [--budget-kb <kb>]
//                [--zipf <alpha>] [--seed <s>]
//   trace_replay [out.json] --drift [--steps <n>] [--label <s>] [--seed <s>]
//
// Drives the service the way a real embedding would and measures what a
// real embedding cares about:
//
//   * a fleet of 2-D grid graphs with mixed edge-cost models, popularity
//     Zipf(alpha)-distributed — a few hot graphs dominate, a long tail of
//     cold ones exercises the LRU byte budget,
//   * mixed k (2..16), mixed mode (~1/8 fast), and occasional custom
//     heavy-tailed weight vectors — the batching sweet spot: same graph,
//     different request parameters, one warm context,
//   * bursty arrivals: clients fire back to back with occasional jittered
//     gaps, so rounds see real backlogs,
//   * and, after the run, a *serial oracle replay*: every request is
//     recomputed with a fresh transient decompose/decompose_fast call and
//     the service's response must be bit-identical (coloring bytes) with
//     max_boundary_vs_seed == 0 — the service layer may never change a
//     result, only its latency.  Any mismatch makes the exit code
//     nonzero.
//
// Results (requests/sec, p50/p95/p99/max latency, cache hit rate,
// evictions, batching counters, oracle verdict) land in the output JSON
// (default BENCH_PR7.json), one flat object, CI-artifact-ready.
//
// --drift switches to the weight-drift trajectory suite (PR 8): two
// scenarios — random-walk (each step nudges ~1% of vertex weights) and
// hotspot (a contiguous band flash-crowds to 8x while old hotspots decay)
// — replayed as `repartition` requests against the service, each step
// raced against a warm-context full recompute of the same weights.  Every
// served coloring must pass verify_decomposition; full-recompute steps
// (the cold bind and every escalation) must be bit-identical to both the
// warm rival and a transient cold decompose; incremental steps must stay
// inside the boundary-growth envelope.  Per-step rows (timings, migration
// fraction, escalation flags) land in BENCH_PR8.json by default; any
// correctness failure makes the exit code nonzero.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/context.hpp"
#include "core/fast.hpp"
#include "core/verify.hpp"
#include "gen/grid.hpp"
#include "io/strict_parse.hpp"
#include "service/jsonl.hpp"
#include "service/partition_service.hpp"
#include "util/latency.hpp"
#include "util/prng.hpp"
#include "util/timer.hpp"

namespace {

using namespace mmd;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [out.json] [--label <s>] [--requests <n>]\n"
               "       [--clients <n>] [--graphs <n>] [--workers <n>]\n"
               "       [--budget-kb <kb>] [--zipf <alpha>] [--seed <s>]\n"
               "       %s [out.json] --drift [--steps <n>] [--label <s>]"
               " [--seed <s>]\n",
               argv0, argv0);
  std::exit(2);
}

// Both bench modes stamp the machine shape into the output so merged
// BENCH_*.json artifacts from different runners stay comparable.
const char* build_type() {
#ifdef NDEBUG
  return "Release";
#else
  return "Debug";
#endif
}

long host_cores() {
  return static_cast<long>(std::thread::hardware_concurrency());
}

struct TraceItem {
  int graph = 0;        ///< index into the fleet
  RequestMode mode = RequestMode::Decompose;
  int k = 2;
  int weight_variant = 0;  ///< 0 = graph default, else alt vector index
  bool gap_after = false;  ///< client sleeps briefly after this request
};

struct GraphInstance {
  std::string name;
  Graph graph;
  std::vector<std::vector<double>> alt_weights;  ///< heavy-tailed variants
};

// ---- weight-drift trajectory suite (--drift) -------------------------------

struct DriftRow {
  const char* scenario = "";
  int side = 0;
  int step = 0;
  int n = 0;
  int k = 0;
  long num_deltas = 0;
  double inc_ms = 0.0;   ///< service repartition request
  double full_ms = 0.0;  ///< warm-context full recompute of the same weights
  long migration_cost = -1;
  double migration_fraction = 0.0;
  bool incremental = false;
  bool escalated = false;
  double max_boundary_inc = 0.0;
  double max_boundary_full = 0.0;
};

bool same_coloring(const Coloring& a, const Coloring& b) {
  return a.k == b.k && a.color == b.color;
}

int run_drift(const std::string& out_path, const std::string& label, int steps,
              std::uint64_t seed) {
  const int kK = 8;
  const int sides[] = {32, 48};
  const char* scenarios[] = {"random_walk", "hotspot"};

  std::vector<DriftRow> rows;
  long verify_failures = 0;
  long bitwise_mismatches = 0;
  long envelope_violations = 0;
  long error_responses = 0;
  double max_boundary_vs_seed = 0.0;  // full-recompute rows vs transient cold

  PartitionServiceOptions so;
  so.num_workers = 1;
  PartitionService service(so);

  for (int si = 0; si < 2; ++si) {
    const char* const scenario = scenarios[si];
    for (const int side : sides) {
      CostParams costs;
      costs.model = CostModel::Uniform;
      costs.lo = 1.0;
      costs.hi = 8.0;
      costs.seed = seed ^ static_cast<std::uint64_t>(side);
      const Graph g = make_grid_cube(2, side, costs);
      const int n = g.num_vertices();
      const std::string name = std::string("drift-") + scenario + "-" +
                               std::to_string(side);
      // Mirror of the chain's weights, advanced in lockstep with the
      // deltas we send, so the full-recompute rival and the verifier see
      // exactly the weights the service's context holds.
      std::vector<double> w(static_cast<std::size_t>(n), 1.0);
      service.load_graph(name, Graph(g), w);

      DecomposeOptions opt;
      opt.k = kK;
      // The rival: a warm context re-solving from scratch every step —
      // what an embedding without the repartition path would have to pay.
      DecomposeContext full_ctx(g, opt);

      Rng rng(seed ^ (static_cast<std::uint64_t>(side) << 16) ^
              static_cast<std::uint64_t>(si));
      double last_full_boundary = 0.0;

      // Step 0 sends no deltas: the first repartition binds the chain's
      // base weights and serves the full cold solve the chain seeds from.
      for (int step = 0; step <= steps; ++step) {
        std::vector<WeightDelta> deltas;
        if (step > 0 && si == 0) {
          // Random walk: a contiguous ~1% id window drifts gently.  Grid
          // ids are row-major, so the window is a spatial strip touching
          // one or two classes — the dirty region stays small and most
          // steps ride the incremental path, with the occasional balance
          // escalation when the per-class random walk crosses the strict
          // window.  (Scattering the same deltas uniformly would touch
          // every class and trip the dirty-fraction certificate each
          // step.)
          const int num = std::max(1, n / 100);
          const int start = static_cast<int>(
              rng.next_below(static_cast<std::uint64_t>(n - num)));
          for (int v = start; v < start + num; ++v) {
            const auto uv = static_cast<std::size_t>(v);
            double nw = w[uv] * std::exp(rng.uniform(-0.1, 0.1));
            nw = std::clamp(nw, 0.8, 1.25);
            deltas.push_back({static_cast<Vertex>(v), nw});
            w[uv] = nw;
          }
        } else if (step > 0) {
          // Hotspot flash crowd: a contiguous id band spikes to 8x while
          // every previously spiked vertex decays geometrically back
          // toward 1.0 (snapped once it is within 5%).
          const int band = std::max(1, n / 16);
          const int start = static_cast<int>(
              (static_cast<long>(step - 1) * band * 3) %
              std::max(1, n - band));
          for (int v = 0; v < n; ++v) {
            const auto uv = static_cast<std::size_t>(v);
            if (v >= start && v < start + band) {
              if (w[uv] != 8.0) {
                deltas.push_back({static_cast<Vertex>(v), 8.0});
                w[uv] = 8.0;
              }
            } else if (w[uv] != 1.0) {
              double nw = 1.0 + (w[uv] - 1.0) * 0.7;
              if (std::abs(nw - 1.0) < 0.05) nw = 1.0;
              deltas.push_back({static_cast<Vertex>(v), nw});
              w[uv] = nw;
            }
          }
        }

        ServiceRequest req;
        req.graph = name;
        req.mode = RequestMode::Repartition;
        req.options.k = kK;
        req.deltas = deltas;
        Timer ti;
        const ServiceResponse resp = service.execute(req);
        const double inc_ms = ti.seconds() * 1e3;
        if (!resp.ok()) {
          ++error_responses;
          continue;
        }

        Timer tf;
        const DecomposeResult full = full_ctx.decompose(w);
        const double full_ms = tf.seconds() * 1e3;

        // Every served coloring — incremental or not — must certify.
        const VerifyReport rep = verify_decomposition(g, w, resp.coloring);
        if (!rep.ok) ++verify_failures;

        if (!resp.incremental) {
          // Full-recompute rows (the cold bind and every escalation) may
          // not differ from a solve without a prior in any byte: the warm
          // rival and a transient cold call must both match exactly.
          if (!same_coloring(resp.coloring, full.coloring))
            ++bitwise_mismatches;
          const DecomposeResult cold = decompose(g, w, opt);
          if (!same_coloring(resp.coloring, cold.coloring))
            ++bitwise_mismatches;
          const double diff = std::abs(resp.max_boundary - cold.max_boundary);
          if (diff > max_boundary_vs_seed) max_boundary_vs_seed = diff;
          last_full_boundary = resp.max_boundary;
        } else if (resp.max_boundary >
                   kMaxBoundaryGrowth * last_full_boundary + 1e-9) {
          ++envelope_violations;
        }

        DriftRow row;
        row.scenario = scenario;
        row.side = side;
        row.step = step;
        row.n = n;
        row.k = kK;
        row.num_deltas = static_cast<long>(deltas.size());
        row.inc_ms = inc_ms;
        row.full_ms = full_ms;
        row.migration_cost = resp.migration_cost;
        row.migration_fraction =
            resp.migration_cost >= 0
                ? static_cast<double>(resp.migration_cost) / n
                : 0.0;
        row.incremental = resp.incremental;
        row.escalated = resp.escalated;
        row.max_boundary_inc = resp.max_boundary;
        row.max_boundary_full = full.max_boundary;
        rows.push_back(row);
      }
    }
  }

  // Aggregate the headline numbers: how much the incremental path saves
  // when it is served, and how often drift forces a full solve.
  long incremental_rows = 0;
  long escalated_rows = 0;
  std::vector<double> inc_speedups;
  for (const DriftRow& r : rows) {
    if (r.escalated) ++escalated_rows;
    if (r.incremental) {
      ++incremental_rows;
      if (r.inc_ms > 0.0) inc_speedups.push_back(r.full_ms / r.inc_ms);
    }
  }
  double median_speedup = 0.0;
  if (!inc_speedups.empty()) {
    std::sort(inc_speedups.begin(), inc_speedups.end());
    median_speedup = inc_speedups[inc_speedups.size() / 2];
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 2;
  }
  jsonl::Writer head;
  head.add("bench", "drift_replay")
      .add("label", label)
      .add("host_cores", host_cores())
      .add("build_type", build_type())
      .add("steps", static_cast<long>(steps))
      .add("rows_total", static_cast<long>(rows.size()))
      .add("incremental_rows", incremental_rows)
      .add("escalated_rows", escalated_rows)
      .add("median_incremental_speedup", median_speedup)
      .add("verify_failures", verify_failures)
      .add("bitwise_mismatches", bitwise_mismatches)
      .add("envelope_violations", envelope_violations)
      .add("error_responses", error_responses)
      .add("max_boundary_vs_seed", max_boundary_vs_seed);
  const std::string head_json = head.str();
  // One flat summary object plus a rows array: the same envelope shape as
  // bench_runner, so bench_merge-style consumers can read either.
  std::fprintf(f, "{\"summary\":%s,\n \"rows\":[\n", head_json.c_str());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const DriftRow& r = rows[i];
    jsonl::Writer wr;
    wr.add("scenario", r.scenario)
        .add("side", static_cast<long>(r.side))
        .add("step", static_cast<long>(r.step))
        .add("n", static_cast<long>(r.n))
        .add("k", static_cast<long>(r.k))
        .add("num_deltas", r.num_deltas)
        .add("inc_ms", r.inc_ms)
        .add("full_ms", r.full_ms)
        .add("speedup", r.inc_ms > 0.0 ? r.full_ms / r.inc_ms : 0.0)
        .add("migration_cost", r.migration_cost)
        .add("migration_fraction", r.migration_fraction)
        .add("incremental", r.incremental)
        .add("escalated", r.escalated)
        .add("max_boundary_inc", r.max_boundary_inc)
        .add("max_boundary_full", r.max_boundary_full)
        .add("host_cores", host_cores())
        .add("build_type", build_type());
    std::fprintf(f, "  %s%s\n", wr.str().c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("%s\n", head_json.c_str());

  if (verify_failures > 0 || bitwise_mismatches > 0 ||
      envelope_violations > 0 || error_responses > 0) {
    std::fprintf(stderr,
                 "FAIL: %ld verify failures, %ld bitwise mismatches, "
                 "%ld envelope violations, %ld error responses\n",
                 verify_failures, bitwise_mismatches, envelope_violations,
                 error_responses);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_PR7.json";
  std::string label = "pr7-trace";
  int num_requests = 200;
  int num_clients = 4;
  int num_graphs = 6;
  int num_workers = 2;
  long budget_kb = 256;
  double zipf_alpha = 1.1;
  std::uint64_t seed = 0x7ace;
  bool drift = false;
  int steps = 24;

  bool saw_out = false;
  bool saw_label = false;
  // Strict numeric argument parsing (io/strict_parse.hpp, the METIS
  // reader's hardened path): a malformed value is bad usage (exit 2),
  // never a silently adopted 0 — `--zipf garbage` used to atof() to
  // alpha = 0.0 and replay a uniform trace without a word.
  auto parse_int_arg = [&](const char* tok, const char* what) -> int {
    try {
      return parse_i32(tok, 0, what);
    } catch (const ParseError&) {
      std::fprintf(stderr, "error: malformed %s '%s'\n", what, tok);
      usage(argv[0]);
    }
  };
  auto parse_long_arg = [&](const char* tok, const char* what) -> long {
    try {
      return static_cast<long>(parse_ll(tok, 0, what));
    } catch (const ParseError&) {
      std::fprintf(stderr, "error: malformed %s '%s'\n", what, tok);
      usage(argv[0]);
    }
  };
  auto parse_double_arg = [&](const char* tok, const char* what) -> double {
    try {
      return parse_finite_double(tok, 0, what);
    } catch (const ParseError&) {
      std::fprintf(stderr, "error: malformed %s '%s'\n", what, tok);
      usage(argv[0]);
    }
  };
  auto parse_seed_arg = [&](const char* tok) -> std::uint64_t {
    errno = 0;  // strtoull with base 0 keeps hex seeds working
    char* end = nullptr;
    const unsigned long long v = std::strtoull(tok, &end, 0);
    if (end == tok || *end != '\0' || errno == ERANGE) {
      std::fprintf(stderr, "error: malformed --seed '%s'\n", tok);
      usage(argv[0]);
    }
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--label") { label = next(); saw_label = true; }
    else if (arg == "--requests") num_requests = parse_int_arg(next(), "--requests");
    else if (arg == "--clients") num_clients = parse_int_arg(next(), "--clients");
    else if (arg == "--graphs") num_graphs = parse_int_arg(next(), "--graphs");
    else if (arg == "--workers") num_workers = parse_int_arg(next(), "--workers");
    else if (arg == "--budget-kb") budget_kb = parse_long_arg(next(), "--budget-kb");
    else if (arg == "--zipf") zipf_alpha = parse_double_arg(next(), "--zipf");
    else if (arg == "--seed") seed = parse_seed_arg(next());
    else if (arg == "--drift") drift = true;
    else if (arg == "--steps") steps = parse_int_arg(next(), "--steps");
    else if (arg[0] == '-') usage(argv[0]);
    else if (!saw_out) { out_path = arg; saw_out = true; }
    else usage(argv[0]);
  }
  // Thread counts share the library's cap: an over-cap count is bad
  // usage here, before any client thread or service pool starts.
  if (num_requests < 1 || num_clients < 1 || num_clients > kMaxThreads ||
      num_graphs < 1 || num_workers < 1 || num_workers > kMaxThreads ||
      budget_kb < 0 || steps < 1)
    usage(argv[0]);
  if (zipf_alpha < 0.0 || zipf_alpha > 64.0) {
    // Negative alpha inverts the popularity ranking (and overflows pow for
    // large fleets); absurdly large alpha degenerates every draw to graph
    // 0 through rounding.  Both are certainly typos — reject them.
    std::fprintf(stderr, "error: --zipf alpha must lie in [0, 64]\n");
    usage(argv[0]);
  }

  if (drift) {
    if (!saw_out) out_path = "BENCH_PR8.json";
    if (!saw_label) label = "pr8-drift";
    return run_drift(out_path, label, steps, seed);
  }

  Rng rng(seed);

  // ---- the graph fleet -----------------------------------------------------
  // 2-D grids of mixed size and edge-cost model; index 0 (the Zipf head)
  // gets the largest instance so the hot path is also the heavy one.
  const CostModel models[] = {CostModel::Unit, CostModel::Uniform,
                              CostModel::LogUniform, CostModel::SmoothField,
                              CostModel::Bands};
  std::vector<GraphInstance> fleet;
  fleet.reserve(static_cast<std::size_t>(num_graphs));
  for (int gi = 0; gi < num_graphs; ++gi) {
    CostParams costs;
    costs.model = models[gi % 5];
    costs.lo = 1.0;
    costs.hi = costs.model == CostModel::Unit ? 1.0 : 8.0;
    costs.seed = seed + static_cast<std::uint64_t>(gi);
    const int side = 28 - 3 * (gi % 6);  // 28, 25, ..., 13, then repeat
    GraphInstance inst;
    inst.name = "g" + std::to_string(gi);
    inst.graph = make_grid_cube(2, side, costs);
    const auto n = static_cast<std::size_t>(inst.graph.num_vertices());
    for (int variant = 0; variant < 2; ++variant) {
      // Heavy-tailed weights: exp(U[0, 4]) spans ~1..55, the regime where
      // strict balance actually has to work.
      std::vector<double> w(n);
      Rng wr(seed ^ (static_cast<std::uint64_t>(gi) << 8) ^
             static_cast<std::uint64_t>(variant));
      for (double& x : w) x = std::exp(wr.uniform(0.0, 4.0));
      inst.alt_weights.push_back(std::move(w));
    }
    fleet.push_back(std::move(inst));
  }

  // Zipf CDF over the fleet: P(i) ~ 1 / (i + 1)^alpha.
  std::vector<double> zipf_cdf(fleet.size());
  {
    double total = 0.0;
    for (std::size_t i = 0; i < fleet.size(); ++i)
      total += 1.0 / std::pow(static_cast<double>(i + 1), zipf_alpha);
    // An empty fleet or a non-positive/non-finite mass means the draw
    // below is meaningless; the final back() = 1.0 snap used to paper
    // over exactly this (a degenerate distribution replayed as "all
    // requests hit the last graph" without a word).
    if (fleet.empty() || !std::isfinite(total) || total <= 0.0) {
      std::fprintf(stderr,
                   "error: degenerate zipf distribution (graphs=%d, "
                   "alpha=%g)\n",
                   num_graphs, zipf_alpha);
      return 2;
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), zipf_alpha) / total;
      zipf_cdf[i] = acc;
    }
    // Guard the top bucket against accumulated rounding only — by here the
    // mass is certified finite and positive, so this is a snap of an
    // 1 - 1e-16 tail, not a mask for a degenerate distribution.
    zipf_cdf.back() = 1.0;
  }

  // ---- the trace -----------------------------------------------------------
  // Generated up front (and deterministically) so the oracle replay below
  // re-executes exactly the same work.
  const int ks[] = {2, 3, 4, 8, 16};
  std::vector<TraceItem> trace(static_cast<std::size_t>(num_requests));
  for (TraceItem& item : trace) {
    const double u = rng.uniform();
    item.graph = static_cast<int>(
        std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
        zipf_cdf.begin());
    item.k = ks[rng.next_below(5)];
    item.mode = rng.next_below(8) == 0 ? RequestMode::Fast
                                       : RequestMode::Decompose;
    item.weight_variant =
        rng.next_below(4) == 0 ? 1 + static_cast<int>(rng.next_below(2)) : 0;
    item.gap_after = rng.next_below(16) == 0;  // burst boundary
  }

  // ---- the run -------------------------------------------------------------
  PartitionServiceOptions so;
  so.context_budget_bytes = static_cast<std::size_t>(budget_kb) << 10;
  so.num_workers = num_workers;
  PartitionService service(so);
  for (const GraphInstance& inst : fleet) {
    // Explicit all-ones default weights, so the oracle replay below can
    // reconstruct them without consulting the service.
    service.load_graph(
        inst.name, Graph(inst.graph),
        std::vector<double>(static_cast<std::size_t>(inst.graph.num_vertices()),
                            1.0));
  }

  std::vector<ServiceResponse> responses(trace.size());
  std::vector<LatencyRecorder> client_latency(
      static_cast<std::size_t>(num_clients));
  std::atomic<std::size_t> next_item{0};

  Timer wall;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(num_clients));
  for (int ci = 0; ci < num_clients; ++ci) {
    clients.emplace_back([&, ci] {
      Rng jitter(seed ^ 0xc11e47 ^ static_cast<std::uint64_t>(ci));
      while (true) {
        const std::size_t idx = next_item.fetch_add(1);
        if (idx >= trace.size()) break;
        const TraceItem& item = trace[idx];
        const GraphInstance& inst = fleet[static_cast<std::size_t>(item.graph)];
        ServiceRequest req;
        req.graph = inst.name;
        req.mode = item.mode;
        req.options.k = item.k;
        if (item.weight_variant > 0)
          req.weights = inst.alt_weights[static_cast<std::size_t>(
              item.weight_variant - 1)];
        Timer t;
        responses[idx] = service.execute(req);
        client_latency[static_cast<std::size_t>(ci)].record(t.seconds());
        if (item.gap_after)
          std::this_thread::sleep_for(
              std::chrono::microseconds(jitter.next_below(2000)));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed = wall.seconds();
  const ServiceStats stats = service.stats();

  LatencyRecorder latency;
  for (const LatencyRecorder& lr : client_latency) latency.merge(lr);

  // ---- serial oracle replay ------------------------------------------------
  // A fresh transient call per request: the strongest form of "the service
  // only changes latency" — no shared contexts, no cache, no threads.
  long mismatches = 0;
  long error_responses = 0;
  double max_boundary_vs_seed = 0.0;
  for (std::size_t idx = 0; idx < trace.size(); ++idx) {
    const TraceItem& item = trace[idx];
    const ServiceResponse& got = responses[idx];
    if (!got.ok()) {
      // The trace sets no deadlines and no bad parameters, so every
      // response must be Ok; anything else is a service bug.
      ++error_responses;
      continue;
    }
    const GraphInstance& inst = fleet[static_cast<std::size_t>(item.graph)];
    const std::vector<double> default_w(
        static_cast<std::size_t>(inst.graph.num_vertices()), 1.0);
    const std::span<const double> w =
        item.weight_variant > 0
            ? std::span<const double>(inst.alt_weights[static_cast<std::size_t>(
                  item.weight_variant - 1)])
            : std::span<const double>(default_w);
    Coloring expect;
    double expect_max_boundary = 0.0;
    if (item.mode == RequestMode::Decompose) {
      DecomposeOptions opt;
      opt.k = item.k;
      DecomposeResult r = decompose(inst.graph, w, opt);
      expect = std::move(r.coloring);
      expect_max_boundary = r.max_boundary;
    } else {
      FastOptions opt;
      opt.inner.k = item.k;
      FastResult r = decompose_fast(inst.graph, w, opt);
      expect = std::move(r.coloring);
      expect_max_boundary = r.max_boundary;
    }
    const bool identical =
        expect.k == got.coloring.k && expect.color == got.coloring.color;
    if (!identical) ++mismatches;
    const double diff = std::abs(got.max_boundary - expect_max_boundary);
    if (diff > max_boundary_vs_seed) max_boundary_vs_seed = diff;
  }

  // ---- report --------------------------------------------------------------
  jsonl::Writer w;
  w.add("bench", "trace_replay")
      .add("label", label)
      .add("host_cores", host_cores())
      .add("build_type", build_type())
      .add("requests", static_cast<long>(num_requests))
      .add("clients", static_cast<long>(num_clients))
      .add("graphs", static_cast<long>(num_graphs))
      .add("workers", static_cast<long>(num_workers))
      .add("budget_kb", budget_kb)
      .add("zipf_alpha", zipf_alpha)
      .add("elapsed_seconds", elapsed)
      .add("requests_per_sec",
           elapsed > 0.0 ? static_cast<double>(num_requests) / elapsed : 0.0)
      .add("p50_ms", latency.percentile(0.50) * 1e3)
      .add("p95_ms", latency.percentile(0.95) * 1e3)
      .add("p99_ms", latency.percentile(0.99) * 1e3)
      .add("max_ms", latency.max() * 1e3)
      .add("cache_hits", stats.cache_hits)
      .add("cache_misses", stats.cache_misses)
      .add("cache_hit_rate", stats.hit_rate())
      .add("context_evictions", stats.context_evictions)
      .add("rounds", stats.rounds)
      .add("batched_requests", stats.batched_requests)
      .add("error_responses", error_responses)
      .add("oracle_mismatches", mismatches)
      .add("max_boundary_vs_seed", max_boundary_vs_seed);
  const std::string json = w.str();

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f, "%s\n", json.c_str());
  std::fclose(f);
  std::printf("%s\n", json.c_str());

  if (mismatches > 0 || error_responses > 0) {
    std::fprintf(stderr,
                 "FAIL: %ld oracle mismatches, %ld error responses\n",
                 mismatches, error_responses);
    return 1;
  }
  return 0;
}
