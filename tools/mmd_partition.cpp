// mmd_partition — command-line min-max boundary decomposition.
//
//   mmd_partition -k 16 input.graph [options]
//
//   -k <int>           number of parts (required)
//   -p <float>         norm exponent (default 2.0)
//   -o <path>          write the partition (one color per line)
//   --fast             multilevel fast mode (large graphs)
//   --splitter <name>  auto | prefix | grid     (default auto)
//   --sweep-mode <m>   default | window: the prefix rule of every sweep
//                      (better-of-two crossing, or cheapest in-window)
//   --threads <n>      thread-pool lanes (1 = serial; bit-identical)
//   --fork-depth <d>   multi_split lane-tree depth (0 = from --threads)
//   --timeout-ms <ms>  deadline for the decomposition (DeadlineExceeded
//                      -> exit 3; in --fast mode a deadline that expires
//                      after the coarse level returns a degraded
//                      best-effort partition instead, still exit 3)
//   --verify           check the verify.cpp certificate BEFORE writing any
//                      output; a failed certificate writes nothing
//   --repartition <f>  incremental repartitioning demo: solve once with the
//                      file's weights, apply the weight deltas in <f>
//                      (whitespace-separated "vertex:weight" pairs, absolute
//                      new weights), and re-solve seeded from the first
//                      solution (escalating to a full solve if the
//                      certificate fires).  Incompatible with --fast.
//                      -o/--image/--verify apply to the final partition.
//   --image <path>     render the partition as a PPM (2-D instances)
//   --compare          also run greedy / recursive-bisection baselines
//   --quiet            suppress the report table
//
// The input is the METIS-like format of io/metis_io.hpp (vertex weights +
// edge costs; optional %coords block).
//
// Exit-code contract (stable; scripts may rely on it):
//   0  strictly balanced partition produced (and verified, with --verify)
//   1  partition produced but not strictly balanced
//   2  bad input: unreadable/malformed graph file or bad usage
//   3  deadline exceeded or cancelled (--timeout-ms)
//   4  internal invariant violation (including a failed --verify)
//
// Server mode (docs/API.md, "The service layer"):
//
//   mmd_partition --serve [--budget-kb <kb>] [--queue <n>] [--workers <n>]
//
// reads one JSON object per line from stdin and answers one JSON object
// per line on stdout, fronting a PartitionService (warm contexts, LRU
// byte budget, request batching).  Ops: load, decompose, repartition,
// stats, evict, shutdown.  The repartition op carries weight deltas in a
// "deltas" string field ("v:w v:w ...", absolute new weights) and answers
// with migration_cost/incremental/escalated alongside the usual quality
// fields.  Request errors — malformed JSON, non-integral or out-of-range
// integer fields, removed fields included — are answered in-band
// ({"ok":false,...}) and never kill the session; the process exits 0 on
// stdin EOF or a shutdown op (2 only for bad --serve usage).
//
// Every numeric flag is parsed strictly (io/strict_parse.hpp): trailing
// garbage or overflow is bad usage (exit 2), never a silently adopted
// numeric prefix.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <type_traits>

#include "service/jsonl.hpp"
#include "service/partition_service.hpp"

#include "baselines/greedy.hpp"
#include "baselines/recursive_bisection.hpp"
#include "core/context.hpp"
#include "core/decompose.hpp"
#include "core/fast.hpp"
#include "core/verify.hpp"
#include "graph/coloring.hpp"
#include "io/metis_io.hpp"
#include "io/ppm.hpp"
#include "io/strict_parse.hpp"
#include "separators/prefix_splitter.hpp"
#include "util/rss.hpp"
#include "util/table.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s -k <parts> [-p <norm>] [-o <out>] [--fast]\n"
               "       [--splitter auto|prefix|grid] [--init best|paper|bisection]\n"
               "       [--sweep-mode default|window]\n"
               "       [--threads <n>] [--fork-depth <d>]\n"
               "       [--timeout-ms <ms>] [--image <ppm>]\n"
               "       [--repartition <deltas-file>]\n"
               "       [--compare] [--quiet] [--verify] [--mem-stats] "
               "<input.graph>\n"
               "       %s --serve [--budget-kb <kb>] [--queue <n>] "
               "[--workers <n>]\n",
               argv0, argv0);
  std::exit(2);
}

/// A numeric flag value, parsed strictly; malformed means usage + exit 2.
template <typename T>
T numeric_arg(const char* argv0, const char* flag, const char* tok) {
  try {
    if constexpr (std::is_same_v<T, int>) return mmd::parse_i32(tok, 0, flag);
    else if constexpr (std::is_same_v<T, long>)
      return static_cast<long>(mmd::parse_ll(tok, 0, flag));
    else return mmd::parse_finite_double(tok, 0, flag);
  } catch (const mmd::ParseError&) {
    std::fprintf(stderr, "error: malformed %s '%s'\n", flag, tok);
    usage(argv0);
  }
}

// One decompose/fast request assembled from a parsed JSONL object.
// Returns false (with `error` set) on a malformed field; unknown keys are
// ignored (forward compatibility), removed ones are rejected.
bool request_from_json(const mmd::jsonl::Object& obj, mmd::ServiceRequest& req,
                       bool& include_partition, std::string& error) {
  using mmd::jsonl::get_bool;
  using mmd::jsonl::get_integer;
  using mmd::jsonl::get_number;
  using mmd::jsonl::get_string;
  auto get_int = [&](const char* key, int def) {
    return static_cast<int>(get_integer(obj, key, def, INT_MIN, INT_MAX, error));
  };
  // JSON integers are exact up to 2^53; wider fields are capped there.
  constexpr long long kExact = 1LL << 53;

  req.graph = get_string(obj, "graph", "", error);
  if (req.graph.empty() && error.empty()) error = "field 'graph' is required";

  const std::string mode = get_string(obj, "mode", "full", error);
  if (mode == "full") req.mode = mmd::RequestMode::Decompose;
  else if (mode == "fast") req.mode = mmd::RequestMode::Fast;
  else if (mode == "repartition") req.mode = mmd::RequestMode::Repartition;
  else if (error.empty())
    error = "field 'mode' must be \"full\", \"fast\", or \"repartition\"";

  // Weight deltas ride in a string field (this protocol has no arrays):
  // whitespace-separated "vertex:weight" pairs, absolute new weights.
  const std::string deltas = get_string(obj, "deltas", "", error);
  if (!deltas.empty() && error.empty()) {
    std::vector<std::pair<long, double>> pairs;
    if (!mmd::jsonl::parse_pair_list(deltas, pairs, error)) return false;
    req.deltas.reserve(pairs.size());
    for (const auto& [v, weight] : pairs)
      req.deltas.push_back({static_cast<mmd::Vertex>(v), weight});
  }

  req.options.k = get_int("k", 0);
  if (req.options.k < 1 && error.empty()) error = "field 'k' must be >= 1";
  req.options.p = get_number(obj, "p", 2.0, error);
  req.options.num_threads = get_int("threads", 1);
  req.options.fork_depth = get_int("fork_depth", 0);
  // The removed window_scan switch is rejected, not ignored: a silently
  // dropped sweep-policy request is the bug sweep_mode exists to prevent.
  if (mmd::jsonl::has(obj, "window_scan") && error.empty())
    error = "field 'window_scan' was removed; use \"sweep_mode\":\"window\"";
  const std::string sweep = get_string(obj, "sweep_mode", "default", error);
  if (sweep == "default") req.options.sweep_mode = mmd::SweepMode::BetterOfTwo;
  else if (sweep == "window") req.options.sweep_mode = mmd::SweepMode::WindowMin;
  else if (error.empty())
    error = "field 'sweep_mode' must be \"default\" or \"window\"";
  req.timeout_ms = static_cast<long>(
      get_integer(obj, "timeout_ms", -1, -kExact, kExact, error));

  const std::string splitter = get_string(obj, "splitter", "auto", error);
  if (splitter == "auto") req.options.splitter = mmd::SplitterKind::Auto;
  else if (splitter == "prefix") req.options.splitter = mmd::SplitterKind::Prefix;
  else if (splitter == "grid") req.options.splitter = mmd::SplitterKind::Grid;
  else if (error.empty()) error = "unknown splitter '" + splitter + "'";

  // Same default as the tool's one-shot mode (best-of), so a --serve
  // decompose answers identically to `mmd_partition -k <k> <file>`.
  const std::string init = get_string(obj, "init", "best", error);
  if (init == "paper") req.options.init = mmd::InitMethod::Paper;
  else if (init == "bisection") req.options.init = mmd::InitMethod::Bisection;
  else if (init == "best") req.options.init = mmd::InitMethod::Best;
  else if (error.empty()) error = "unknown init '" + init + "'";

  const mmd::ServiceRequest def;
  req.fast_coarse_target = get_int("coarse_target", def.fast_coarse_target);
  req.fast_max_levels = get_int("max_levels", def.fast_max_levels);
  req.fast_refine_passes = get_int("refine_passes", def.fast_refine_passes);
  req.fast_seed = static_cast<std::uint64_t>(get_integer(
      obj, "seed", static_cast<long long>(def.fast_seed), 0, kExact, error));

  include_partition = get_bool(obj, "include_partition", false, error);
  return error.empty();
}

void emit(const mmd::jsonl::Writer& w) {
  std::fputs(w.str().c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);  // request-response over a pipe: no buffering games
}

void emit_error(const char* op, const std::string& message,
                const char* status = "bad_request") {
  mmd::jsonl::Writer w;
  w.add("ok", false).add("op", op).add("status", status).add("error", message);
  emit(w);
}

/// The decompose and repartition ops: parse, execute, answer.  The two
/// differ only in the mode the repartition op implies and in the fields
/// after "strict" (degraded, or the chain's migration fields).
void solve_op(mmd::PartitionService& service, const mmd::jsonl::Object& obj,
              bool repartition) {
  using namespace mmd;
  const char* op = repartition ? "repartition" : "decompose";
  ServiceRequest req;
  bool include_partition = false;
  std::string error;
  if (!request_from_json(obj, req, include_partition, error)) {
    emit_error(op, error);
    return;
  }
  if (repartition) req.mode = RequestMode::Repartition;  // the op implies it
  const ServiceResponse resp = service.execute(req);
  jsonl::Writer w;
  w.add("ok", resp.ok())
      .add("op", op)
      .add("graph", req.graph)
      .add("status", to_string(resp.status));
  if (!resp.ok()) {
    w.add("error", resp.error);
    emit(w);
    return;
  }
  // Deterministic payload only (no timings): two responses for the same
  // request must be byte-identical, warm or cold — the smoke test pins
  // that after stripping the "warm" field.  A repartition chain's state is
  // a function of the request sequence, so identical sessions answer
  // byte-identically too.
  w.add("k", static_cast<long>(resp.coloring.k))
      .add("max_boundary", resp.max_boundary)
      .add("avg_boundary", resp.avg_boundary)
      .add("max_dev", resp.balance.max_dev)
      .add("strict", resp.balance.strictly_balanced);
  if (repartition) {
    w.add("migration_cost", resp.migration_cost)
        .add("incremental", resp.incremental)
        .add("escalated", resp.escalated);
  } else {
    w.add("degraded", resp.degraded);
  }
  w.add("warm", resp.warm);
  if (include_partition) {
    std::string part;
    part.reserve(resp.coloring.color.size() * 2);
    for (std::size_t v = 0; v < resp.coloring.color.size(); ++v) {
      if (v > 0) part.push_back(' ');
      part.append(std::to_string(resp.coloring.color[v]));
    }
    w.add("partition", part);
  }
  emit(w);
}

/// stdin/stdout JSONL server.  Exit 0 on EOF or shutdown op.
int serve_main(const mmd::PartitionServiceOptions& service_options) {
  using namespace mmd;
  PartitionService service(service_options);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    jsonl::Object obj;
    std::string error;
    if (!jsonl::parse_object(line, obj, error)) {
      emit_error("", "malformed request: " + error);
      continue;
    }
    const std::string op = jsonl::get_string(obj, "op", "", error);
    if (op == "load") {
      const std::string graph = jsonl::get_string(obj, "graph", "", error);
      const std::string path = jsonl::get_string(obj, "path", "", error);
      if (!error.empty() || graph.empty() || path.empty()) {
        emit_error("load", error.empty()
                               ? "fields 'graph' and 'path' are required"
                               : error);
        continue;
      }
      try {
        service.load_graph_file(graph, path);
      } catch (const std::exception& e) {
        emit_error("load", e.what());
        continue;
      }
      jsonl::Writer w;
      w.add("ok", true).add("op", "load").add("graph", graph);
      emit(w);
    } else if (op == "decompose" || op == "repartition") {
      solve_op(service, obj, op == "repartition");
    } else if (op == "stats") {
      const ServiceStats s = service.stats();
      jsonl::Writer w;
      w.add("ok", true)
          .add("op", "stats")
          .add("requests", s.requests)
          .add("ok_requests", s.ok)
          .add("errors", s.errors)
          .add("cache_hits", s.cache_hits)
          .add("cache_misses", s.cache_misses)
          .add("hit_rate", s.hit_rate())
          .add("context_evictions", s.context_evictions)
          .add("rounds", s.rounds)
          .add("batched_requests", s.batched_requests)
          .add("repartitions", s.repartitions)
          .add("repartition_escalations", s.repartition_escalations)
          .add("cached_bytes", static_cast<long>(s.cached_bytes))
          .add("graphs_loaded", static_cast<long>(s.graphs_loaded))
          .add("p50_seconds", s.p50_seconds)
          .add("p95_seconds", s.p95_seconds)
          .add("p99_seconds", s.p99_seconds);
      emit(w);
    } else if (op == "evict") {
      const std::string graph = jsonl::get_string(obj, "graph", "", error);
      if (!error.empty() || graph.empty()) {
        emit_error("evict",
                   error.empty() ? "field 'graph' is required" : error);
        continue;
      }
      jsonl::Writer w;
      w.add("ok", true)
          .add("op", "evict")
          .add("graph", graph)
          .add("existed", service.evict_graph(graph));
      emit(w);
    } else if (op == "shutdown") {
      jsonl::Writer w;
      w.add("ok", true).add("op", "shutdown");
      emit(w);
      break;
    } else {
      emit_error(op.c_str(), error.empty() ? "unknown op '" + op + "'"
                                           : error);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mmd;
  // Server mode peels off first: it has its own (tiny) flag set.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serve") != 0) continue;
    PartitionServiceOptions so;
    for (int j = 1; j < argc; ++j) {
      const std::string arg = argv[j];
      auto next = [&]() -> const char* {
        if (j + 1 >= argc) usage(argv[0]);
        return argv[++j];
      };
      if (arg == "--serve") continue;
      else if (arg == "--budget-kb") {
        const long kb = numeric_arg<long>(argv[0], "--budget-kb", next());
        if (kb < 0) usage(argv[0]);
        so.context_budget_bytes = static_cast<std::size_t>(kb) << 10;
      } else if (arg == "--queue") {
        const int q = numeric_arg<int>(argv[0], "--queue", next());
        if (q < 1) usage(argv[0]);
        so.queue_capacity = static_cast<std::size_t>(q);
      } else if (arg == "--workers") {
        so.num_workers = numeric_arg<int>(argv[0], "--workers", next());
        if (so.num_workers < 1) usage(argv[0]);
      } else {
        usage(argv[0]);
      }
    }
    return serve_main(so);
  }
  int k = 0;
  double p = 2.0;
  std::string input, output, image, repartition_file;
  bool fast = false, compare = false, quiet = false, verify = false;
  bool mem_stats = false;
  SweepMode sweep_mode = SweepMode::BetterOfTwo;
  int threads = 1;
  int fork_depth = 0;  // 0 = derive the lane-tree depth from the pool
  long timeout_ms = -1;  // < 0 = unlimited
  SplitterKind splitter = SplitterKind::Auto;
  InitMethod init = InitMethod::Best;  // the tool defaults to best-of

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "-k") {
      k = numeric_arg<int>(argv[0], "-k", next());
    } else if (arg == "-p") {
      p = numeric_arg<double>(argv[0], "-p", next());
    } else if (arg == "-o") {
      output = next();
    } else if (arg == "--image") {
      image = next();
    } else if (arg == "--fast") {
      fast = true;
    } else if (arg == "--compare") {
      compare = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--mem-stats") {
      mem_stats = true;  // graph/workspace/context byte breakdown on stdout
    } else if (arg == "--repartition") {
      repartition_file = next();
    } else if (arg == "--sweep-mode") {
      const std::string name = next();
      if (name == "default") sweep_mode = SweepMode::BetterOfTwo;
      else if (name == "window") sweep_mode = SweepMode::WindowMin;
      else usage(argv[0]);
    } else if (arg == "--threads") {
      threads = numeric_arg<int>(argv[0], "--threads", next());
      if (threads < 1) usage(argv[0]);
    } else if (arg == "--fork-depth") {
      fork_depth = numeric_arg<int>(argv[0], "--fork-depth", next());
      if (fork_depth < 0) usage(argv[0]);
    } else if (arg == "--timeout-ms") {
      timeout_ms = numeric_arg<long>(argv[0], "--timeout-ms", next());
      if (timeout_ms < 0) usage(argv[0]);
    } else if (arg == "--splitter") {
      const std::string name = next();
      if (name == "auto") splitter = SplitterKind::Auto;
      else if (name == "prefix") splitter = SplitterKind::Prefix;
      else if (name == "grid") splitter = SplitterKind::Grid;
      else usage(argv[0]);
    } else if (arg == "--init") {
      const std::string name = next();
      if (name == "paper") init = InitMethod::Paper;
      else if (name == "bisection") init = InitMethod::Bisection;
      else if (name == "best") init = InitMethod::Best;
      else usage(argv[0]);
    } else if (arg == "-h" || arg == "--help" || arg[0] == '-') {
      usage(argv[0]);
    } else {
      if (!input.empty()) usage(argv[0]);
      input = arg;
    }
  }
  if (k < 1 || input.empty()) usage(argv[0]);
  // The incremental chain lives on DecomposeContext; the fast path has its
  // own (FastContext::repartition) but the demo exercises the full one.
  if (fast && !repartition_file.empty()) usage(argv[0]);

  try {
    const GraphWithWeights in = read_metis_file(input);
    const Graph& g = in.graph;

    // Arm the deadline as late as possible (after parsing): --timeout-ms
    // budgets the decomposition, not the file read.
    ExecControl exec;
    if (timeout_ms >= 0) exec = ExecControl::with_timeout_ms(timeout_ms);

    Coloring chi;
    BalanceReport balance;
    double max_b = 0.0, avg_b = 0.0, seconds = 0.0;
    bool degraded = false;
    // The weights the final partition is certified against: the file's,
    // or the drifted vector after --repartition applied its deltas.
    std::vector<double> final_weights = in.weights;
    // --repartition bookkeeping (base solve metrics + outcome flags).
    bool did_repartition = false;
    double base_max_b = 0.0, base_avg_b = 0.0, base_seconds = 0.0;
    BalanceReport base_balance;
    long migration_cost = -1;
    bool rep_incremental = false, rep_escalated = false;
    // --mem-stats breakdown, filled by whichever solve path runs.
    std::size_t ws_bytes = 0, ctx_bytes = 0;
    if (fast) {
      FastOptions opt;
      opt.inner.k = k;
      opt.inner.p = p;
      opt.inner.splitter = splitter;
      opt.inner.init = init;
      opt.inner.sweep_mode = sweep_mode;
      opt.inner.num_threads = threads;
      opt.inner.fork_depth = fork_depth;
      opt.inner.exec = exec;
      FastResult res = [&] {
        if (!mem_stats) return decompose_fast(g, in.weights, opt);
        // decompose_fast is itself a transient FastContext; holding one
        // here lets us read the warm footprint before teardown.
        FastContext fctx(g, opt);
        FastResult r = fctx.decompose(in.weights);
        ctx_bytes = fctx.memory_estimate_bytes();
        return r;
      }();
      chi = std::move(res.coloring);
      balance = res.balance;
      max_b = res.max_boundary;
      avg_b = res.avg_boundary;
      seconds = res.total_seconds;
      degraded = res.degraded;
      if (degraded)
        std::fprintf(stderr,
                     "warning: deadline expired after the coarse level; "
                     "result is best-effort (not strictly balanced)\n");
    } else {
      DecomposeOptions opt;
      opt.k = k;
      opt.p = p;
      opt.splitter = splitter;
      opt.init = init;
      opt.sweep_mode = sweep_mode;
      opt.num_threads = threads;
      opt.fork_depth = fork_depth;
      opt.exec = exec;
      if (repartition_file.empty()) {
        DecomposeResult res = [&] {
          if (!mem_stats) return decompose(g, in.weights, opt);
          // decompose() is itself a transient DecomposeContext; holding
          // one here lets us read the warm footprint before teardown.
          DecomposeContext ctx(g, opt);
          DecomposeResult r = ctx.decompose(in.weights);
          ws_bytes = ctx.workspace().memory_bytes();
          ctx_bytes = ctx.memory_estimate_bytes();
          return r;
        }();
        chi = std::move(res.coloring);
        balance = res.balance;
        max_b = res.max_boundary;
        avg_b = res.avg_boundary;
        seconds = res.total_seconds;
      } else {
        // Incremental demo: base solve, then re-solve seeded from it
        // after applying the file's absolute weight deltas.
        std::ifstream df(repartition_file);
        if (!df)
          throw std::invalid_argument("cannot read delta file '" +
                                      repartition_file + "'");
        std::string text((std::istreambuf_iterator<char>(df)),
                         std::istreambuf_iterator<char>());
        std::vector<std::pair<long, double>> pairs;
        std::string perr;
        if (!jsonl::parse_pair_list(text, pairs, perr))
          throw std::invalid_argument("delta file '" + repartition_file +
                                      "': " + perr);
        std::vector<WeightDelta> deltas;
        deltas.reserve(pairs.size());
        for (const auto& [v, weight] : pairs)
          deltas.push_back({static_cast<Vertex>(v), weight});

        DecomposeContext ctx(g, opt);
        ctx.set_weights(in.weights);
        DecomposeResult base = ctx.repartition();
        base_max_b = base.max_boundary;
        base_avg_b = base.avg_boundary;
        base_balance = base.balance;
        base_seconds = base.total_seconds;
        DecomposeResult res = ctx.repartition(deltas);
        chi = std::move(res.coloring);
        balance = res.balance;
        max_b = res.max_boundary;
        avg_b = res.avg_boundary;
        seconds = res.total_seconds;
        migration_cost = res.migration_cost;
        rep_incremental = res.incremental;
        rep_escalated = res.escalated;
        did_repartition = true;
        final_weights.assign(ctx.weights().begin(), ctx.weights().end());
        ws_bytes = ctx.workspace().memory_bytes();
        ctx_bytes = ctx.memory_estimate_bytes();
      }
    }

    // Certificate check FIRST: with --verify no output file is ever
    // written from an uncertified coloring.
    bool verify_ok = true;
    if (verify) {
      const VerifyReport rep = verify_decomposition(g, final_weights, chi);
      verify_ok = rep.ok;
      std::printf("verify: %s", rep.ok ? "OK" : "FAILED");
      for (const auto& f : rep.failures) std::printf("\n  - %s", f.c_str());
      std::printf(" (%d classes, %d fragmented)\n", rep.nonempty_classes,
                  rep.fragmented_classes);
    }
    if (verify_ok) {
      if (!output.empty()) write_partition_file(chi, output);
      if (!image.empty()) write_coloring_ppm(g, chi, image);
    }

    if (!quiet) {
      Table table("mmd_partition " + input,
                  {"method", "max boundary", "avg boundary", "max |dev|",
                   "strict", "time s"});
      if (did_repartition) {
        table.add_row({"minmax-decomp", Table::num(base_max_b, 2),
                       Table::num(base_avg_b, 2),
                       Table::num(base_balance.max_dev, 3),
                       base_balance.strictly_balanced ? "yes" : "NO",
                       Table::num(base_seconds, 3)});
        table.add_row({rep_escalated ? "repartition (full)" : "repartition",
                       Table::num(max_b, 2), Table::num(avg_b, 2),
                       Table::num(balance.max_dev, 3),
                       balance.strictly_balanced ? "yes" : "NO",
                       Table::num(seconds, 3)});
      } else {
        table.add_row({fast ? "minmax-decomp (fast)" : "minmax-decomp",
                       Table::num(max_b, 2), Table::num(avg_b, 2),
                       Table::num(balance.max_dev, 3),
                       balance.strictly_balanced ? "yes" : "NO",
                       Table::num(seconds, 3)});
      }
      if (compare) {
        const Coloring greedy =
            greedy_coloring(g, in.weights, k, GreedyOrder::HeaviestFirst);
        const auto grep = balance_report(in.weights, greedy);
        table.add_row({"greedy LPT",
                       Table::num(max_boundary_cost(g, greedy), 2),
                       Table::num(avg_boundary_cost(g, greedy), 2),
                       Table::num(grep.max_dev, 3),
                       grep.strictly_balanced ? "yes" : "NO", "-"});
        PrefixSplitter ps;
        const Coloring rb = recursive_bisection(g, in.weights, k, ps);
        const auto rrep = balance_report(in.weights, rb);
        table.add_row({"recursive bisection",
                       Table::num(max_boundary_cost(g, rb), 2),
                       Table::num(avg_boundary_cost(g, rb), 2),
                       Table::num(rrep.max_dev, 3),
                       rrep.strictly_balanced ? "yes" : "NO", "-"});
      }
      table.print();
      std::printf("n=%d m=%d k=%d strict window (1-1/k)||w||_inf = %.4f\n",
                  g.num_vertices(), g.num_edges(), k, balance.strict_bound);
      if (did_repartition)
        std::printf("repartition: %s, migrated %ld/%d vertices\n",
                    rep_incremental ? "incremental"
                                    : (rep_escalated ? "escalated to full solve"
                                                     : "full (no prior)"),
                    migration_cost, g.num_vertices());
    }
    if (mem_stats) {
      // Printed even under --quiet: the breakdown is the requested output.
      const std::size_t gb = g.memory_bytes();
      const double bpe =
          g.num_edges() > 0 ? static_cast<double>(gb) / g.num_edges() : 0.0;
      std::printf("mem-stats: graph_bytes=%zu bytes_per_edge=%.1f "
                  "offsets=%s\n",
                  gb, bpe, g.wide_offsets() ? "64-bit" : "32-bit");
      std::printf("mem-stats: workspace_bytes=%zu context_estimate_bytes=%zu\n",
                  ws_bytes, ctx_bytes);
      std::printf("mem-stats: peak_rss_bytes=%zu current_rss_bytes=%zu\n",
                  peak_rss_bytes(), current_rss_bytes());
    }
    if (degraded) return 3;            // deadline, best-effort result
    if (!verify_ok) return 4;          // our own certificate failed
    return balance.strictly_balanced ? 0 : 1;
  } catch (const DeadlineExceeded& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  } catch (const Cancelled& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  } catch (const InvariantViolation& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 4;
  } catch (const std::invalid_argument& e) {
    // ParseError (malformed graph file, with its line number) and every
    // other bad-input MMD_REQUIRE land here.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 4;
  }
}
