// Performance runner for the decompose/refine hot path.
//
// Emits one JSON document with minimum-of-reps wall times for
//   * the E6 runtime suite shapes: decompose on 2-D grids over growing n
//     (k = 16) and growing k (side 96), in the modes the library has
//     grown so far: "cold" (a fresh splitter per call, the seed's only
//     mode), "warm" (persistent splitter + DecomposeWorkspace, PR 1),
//     "ctx-warm" (a reused DecomposeContext, PR 2), "ctx-threads2/4/8"
//     (context with num_threads = 2/4/8; 4/8 drive the multi_split lane
//     tree at its auto fork depth, PR 5 — bit-identical boundaries by the
//     splitter contract, so their max_boundary_vs_seed must merge to 0),
//     "eval-incremental" (PR 4: the SweepEval engine in its default
//     better-of-two mode — the same rows as ctx-warm, named so the
//     candidate-evaluation rework is directly attributable), and
//     "eval-window" (SweepMode::WindowMin, cheapest prefix inside the
//     hard weight window — max_boundary_vs_seed <= 0 expected everywhere).
//     Besides the unit-weight n/k sweeps, a few heavy-tailed weighted
//     grids (w-sweep-h*) exercise the wide-window regime where the
//     window rule actually has candidates to choose from;
//   * the fast multilevel mode on the mid-size grids where per-split
//     constants dominate: "cold" (decompose_fast from scratch, as the
//     seed runs it), "fast-ctx-warm" (a reused FastContext: cached
//     hierarchy + warm coarse context + persistent finest-level splitter,
//     PR 3), and "fast-threads2/4/8" (FastContext with inner.num_threads
//     = 2/4/8, again bit-identical by construction);
//   * a min-max refinement microbench (the worklist engine) on random
//     and on converged colorings.
//
// Two runs' JSONs (before and after a change) merge into BENCH_*.json
// with tools/bench_merge.py.
//
// PR 9 adds the E12 huge-graph suite (--e12 / --e12-smoke): 10M+-vertex
// grids and triangulated meshes plus a METIS-file round trip through the
// streaming reader, run in ascending size order with every row stamped
// with the process peak-RSS (util/rss.hpp) — the first bytes/edge and
// peak-memory trajectory of the compact CSR layout.
//
// PR 10 adds the E13 sweep-quality suite (--e13 / --e13-smoke): quality
// (not runtime) rows across the workload matrix where the prefix rule
// matters — triangulated meshes, the weighted climate instance, heavy-
// tailed meshes, anisotropic and 3-D geometric graphs, and a METIS-file
// round trip — in modes "default" / "window" (SweepMode) plus an "orb"
// baseline column (orthogonal recursive coordinate
// bisection, the classical mesh-library default).
//
// Usage: bench_runner [output.json] [--label name]
//                     [--e12 | --e12-smoke | --e13 | --e13-smoke]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "baselines/random_part.hpp"
#include "baselines/recursive_bisection.hpp"
#include "core/context.hpp"
#include "core/decompose.hpp"
#include "core/fast.hpp"
#include "core/refine.hpp"
#include "core/workspace.hpp"
#include "gen/geometric.hpp"
#include "gen/grid.hpp"
#include "gen/mesh.hpp"
#include "io/metis_io.hpp"
#include "util/rss.hpp"
#include "util/timer.hpp"

// glibc keeps freed heap resident (malloc_trim hands it back); other C
// libraries run the E12 suite without the trim.
#if defined(__GLIBC__)
#include <malloc.h>
#define MMD_BENCH_HAS_MALLOC_TRIM 1
#endif

namespace {

using namespace mmd;

struct Row {
  std::string suite, config;
  int side = 0, n = 0, k = 0;
  std::string mode;
  double ms = 0.0;
  double max_boundary = 0.0;
  long moves = -1;
  std::size_t peak_rss = 0;     // stamped at push time (monotone)
  long long m = 0;              // edge count (E12 rows)
  std::size_t graph_bytes = 0;  // Graph::memory_bytes (E12 rows)
};

std::vector<Row> g_rows;

/// All rows funnel through here so each carries the peak-RSS high-water
/// mark as of the moment it was measured.
void push_row(Row row) {
  row.peak_rss = peak_rss_bytes();
  g_rows.push_back(std::move(row));
}

int reps_for(int side) { return side >= 256 ? 7 : 9; }

/// Deterministic heavy-tailed vertex weights (LCG; ~1/8 of the vertices
/// carry weight `heavy`, the rest 1.0).  Inline so the seed binary and
/// the current binary bench the exact same instance: a wide hard window
/// (||w||_inf/2 = heavy/2) is where the window prefix rule has room
/// to act, unlike the unit-weight sweeps whose window admits at most the
/// two crossing prefixes.
std::vector<double> heavy_weights(int n, double heavy, std::uint64_t seed) {
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  std::uint64_t x = seed;
  for (int i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    if ((x >> 33) % 8 == 0) w[static_cast<std::size_t>(i)] = heavy;
  }
  return w;
}

/// `heavy` <= 0 benches the classic unit-weight instance.
void bench_decompose(const char* config, int side, int k, double heavy = 0.0) {
  const Graph g = make_grid_cube(2, side);
  const std::vector<double> w =
      heavy > 0.0
          ? heavy_weights(g.num_vertices(), heavy,
                          42ull + static_cast<std::uint64_t>(side + k))
          : std::vector<double>(static_cast<std::size_t>(g.num_vertices()), 1.0);
  DecomposeOptions opt;
  opt.k = k;
  const int reps = reps_for(side);

  Row cold{"decompose_grid2d", config, side, g.num_vertices(), k,
           "cold",            1e300,  0.0};
  for (int r = 0; r < reps; ++r) {
    Timer t;
    const DecomposeResult res = decompose(g, w, opt);
    cold.ms = std::min(cold.ms, t.seconds() * 1e3);
    cold.max_boundary = res.max_boundary;
  }
  push_row(cold);

  Row warm{"decompose_grid2d", config, side, g.num_vertices(), k,
           "warm",            1e300,  0.0};
  const auto splitter = make_default_splitter(g, opt.splitter);
  DecomposeWorkspace ws;
  for (int r = 0; r < reps + 1; ++r) {  // first warm call fills the pools
    Timer t;
    const DecomposeResult res = decompose(g, w, opt, *splitter, &ws);
    if (r == 0) continue;
    warm.ms = std::min(warm.ms, t.seconds() * 1e3);
    warm.max_boundary = res.max_boundary;
  }
  push_row(warm);

  // The public warm path: a reused DecomposeContext (owned splitter +
  // workspace; zero rebuilds after call one), serial and 2/4/8-threaded
  // (the wider pools drive the multi_split lane tree at its auto fork
  // depth — on a 1-core host these rows measure sync overhead only; see
  // docs/BENCHMARKS.md).
  for (const int threads : {1, 2, 4, 8}) {
    DecomposeOptions copt = opt;
    copt.num_threads = threads;
    Row row{"decompose_grid2d", config,
            side,              g.num_vertices(),
            k,                 threads == 1
                                   ? std::string("ctx-warm")
                                   : "ctx-threads" + std::to_string(threads),
            1e300,             0.0};
    DecomposeContext ctx(g, copt);
    for (int r = 0; r < reps + 1; ++r) {  // first call builds the caches
      Timer t;
      const DecomposeResult res = ctx.decompose(w);
      if (r == 0) continue;
      row.ms = std::min(row.ms, t.seconds() * 1e3);
      row.max_boundary = res.max_boundary;
    }
    push_row(row);
  }

  // The SweepEval prefix rules on the warm context path: the default
  // better-of-two rule (must merge to max_boundary_vs_seed = 0) and the
  // window rule (cheapest in-window prefix; <= 0 everywhere).
  for (const bool window : {false, true}) {
    DecomposeOptions copt = opt;
    copt.sweep_mode = window ? SweepMode::WindowMin : SweepMode::BetterOfTwo;
    Row row{"decompose_grid2d", config,
            side,              g.num_vertices(),
            k,                 window ? "eval-window" : "eval-incremental",
            1e300,             0.0};
    DecomposeContext ctx(g, copt);
    for (int r = 0; r < reps + 1; ++r) {
      Timer t;
      const DecomposeResult res = ctx.decompose(w);
      if (r == 0) continue;
      row.ms = std::min(row.ms, t.seconds() * 1e3);
      row.max_boundary = res.max_boundary;
    }
    push_row(row);
  }
}

/// The fast multilevel mode on the mid-size grids named by the ROADMAP
/// ("n ~ 1k-16k sit at 2.7-4.2x"): per-split constants and rebuild costs
/// dominate there, which is exactly what FastContext amortizes.
/// coarse_target is lowered so every size genuinely coarsens.
void bench_fast(const char* config, int side, int k) {
  const Graph g = make_grid_cube(2, side);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  FastOptions opt;
  opt.inner.k = k;
  opt.coarse_target = 512;
  const int reps = reps_for(side);

  Row cold{"fast_grid2d", config, side, g.num_vertices(), k,
           "cold",        1e300,  0.0};
  for (int r = 0; r < reps; ++r) {
    Timer t;
    const FastResult res = decompose_fast(g, w, opt);
    cold.ms = std::min(cold.ms, t.seconds() * 1e3);
    cold.max_boundary = res.max_boundary;
  }
  push_row(cold);

  // The warm multilevel path: cached hierarchy, warm coarse context,
  // persistent finest-level splitter — serial and 2/4/8-threaded.
  for (const int threads : {1, 2, 4, 8}) {
    FastOptions copt = opt;
    copt.inner.num_threads = threads;
    Row row{"fast_grid2d", config,
            side,          g.num_vertices(),
            k,             threads == 1
                               ? std::string("fast-ctx-warm")
                               : "fast-threads" + std::to_string(threads),
            1e300,         0.0};
    FastContext ctx(g, copt);
    for (int r = 0; r < reps + 1; ++r) {  // first call builds the caches
      Timer t;
      const FastResult res = ctx.decompose(w);
      if (r == 0) continue;
      row.ms = std::min(row.ms, t.seconds() * 1e3);
      row.max_boundary = res.max_boundary;
    }
    push_row(row);
  }
}

void bench_refine(const char* suite, int side, int k, const Coloring& base,
                  const MinmaxRefineOptions& opt) {
  const Graph g = make_grid_cube(2, side);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  Row row{suite, "refine", side, g.num_vertices(), k, "worklist", 1e300, 0.0};
  for (int r = 0; r < 7; ++r) {
    Coloring chi = base;
    Timer t;
    const MinmaxRefineStats stats = minmax_refine(g, chi, w, opt);
    row.ms = std::min(row.ms, t.seconds() * 1e3);
    row.max_boundary = stats.max_boundary_after;
    row.moves = stats.moves;
  }
  push_row(row);
}

/// Hill climbing from a random coloring: the boundary is dense, so this
/// stresses raw per-candidate cost (the seed pays O(k + deg) per vertex).
void bench_refine_random(int side, int k) {
  const Graph g = make_grid_cube(2, side);
  MinmaxRefineOptions opt;
  opt.max_passes = 20;
  opt.balance_slack = 60.0;
  bench_refine("refine_random", side, k, random_coloring(g, k, 3), opt);
}

/// Re-refining an already decomposed coloring: the boundary is sparse, the
/// regime of decompose()'s final pass and every decompose_fast uncoarsening
/// level — where the worklist skips the quiescent interior entirely.
void bench_refine_converged(int side, int k) {
  const Graph g = make_grid_cube(2, side);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  DecomposeOptions dopt;
  dopt.k = k;
  dopt.use_refinement = false;
  const Coloring base = decompose(g, w, dopt).coloring;
  bench_refine("refine_converged", side, k, base, MinmaxRefineOptions{});
}

// ---- E12: the huge-graph suite (PR 9) --------------------------------------
// Sizes run strictly ascending so the monotone peak-RSS stamp on each row
// reflects the largest instance processed so far.  Reps are small (the
// instances are 16-160x larger than every other suite) and "cold" stays
// the seed-comparable default mode.  Each instance starts by returning the
// freed heap of the instances before it to the OS, so its rows measure its
// own build and solve rather than an earlier instance's allocator residue.

void release_free_heap() {
#ifdef MMD_BENCH_HAS_MALLOC_TRIM
  malloc_trim(0);
#endif
}

/// Decompose rows (cold + ctx-warm) for one prebuilt instance.
void bench_e12_decompose(const char* suite, const char* config, const Graph& g,
                         int side, int k, int reps) {
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  DecomposeOptions opt;
  opt.k = k;

  Row cold{suite, config, side, g.num_vertices(), k, "cold", 1e300, 0.0};
  cold.m = g.num_edges();
  cold.graph_bytes = g.memory_bytes();
  for (int r = 0; r < reps; ++r) {
    Timer t;
    const DecomposeResult res = decompose(g, w, opt);
    cold.ms = std::min(cold.ms, t.seconds() * 1e3);
    cold.max_boundary = res.max_boundary;
  }
  push_row(cold);

  Row warm{suite, config, side, g.num_vertices(), k, "ctx-warm", 1e300, 0.0};
  warm.m = g.num_edges();
  warm.graph_bytes = g.memory_bytes();
  DecomposeContext ctx(g, opt);
  for (int r = 0; r < reps + 1; ++r) {  // first call builds the caches
    Timer t;
    const DecomposeResult res = ctx.decompose(w);
    if (r == 0) continue;
    warm.ms = std::min(warm.ms, t.seconds() * 1e3);
    warm.max_boundary = res.max_boundary;
  }
  push_row(warm);
}

/// Grid instance: one e12_build row (generator + GraphBuilder::build wall
/// time, final graph bytes) and the decompose rows.
void bench_e12_grid(const char* config, int side, int k, int reps) {
  release_free_heap();
  Timer tb;
  const Graph g = make_grid_cube(2, side);
  Row build{"e12_build", config, side, g.num_vertices(), 0, "cold",
            tb.seconds() * 1e3, 0.0};
  build.m = g.num_edges();
  build.graph_bytes = g.memory_bytes();
  push_row(build);
  bench_e12_decompose("e12_grid2d", config, g, side, k, reps);
}

/// Triangulated mesh (bounded-degree planar, diagonals break gridness).
void bench_e12_mesh(const char* config, int side, int k, int reps) {
  release_free_heap();
  Timer tb;
  const Graph g = make_tri_mesh(side, side);
  Row build{"e12_build", config, side, g.num_vertices(), 0, "cold",
            tb.seconds() * 1e3, 0.0};
  build.m = g.num_edges();
  build.graph_bytes = g.memory_bytes();
  push_row(build);
  bench_e12_decompose("e12_mesh", config, g, side, k, reps);
}

/// METIS-file round trip: write a grid instance to disk, drop it, stream
/// it back (e12_read row: read + rebuild wall time), then decompose.
void bench_e12_metis(const char* config, int side, int k, int reps,
                     const char* path) {
  release_free_heap();
  {
    const Graph g = make_grid_cube(2, side);
    const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()),
                                1.0);
    write_metis_file(g, w, path);
  }  // the written graph is gone before the read starts
  Timer tr;
  const GraphWithWeights back = read_metis_file(path);
  Row read{"e12_read", config, side, back.graph.num_vertices(), 0, "cold",
           tr.seconds() * 1e3, 0.0};
  read.m = back.graph.num_edges();
  read.graph_bytes = back.graph.memory_bytes();
  push_row(read);
  std::remove(path);
  bench_e12_decompose("e12_metis", config, back.graph, side, k, reps);
}

/// The full E12 suite: 1M / 4.2M / 10.2M grids, a 10.0M mesh, and a METIS
/// file round trip, ascending.
void bench_e12(bool smoke) {
  const char* metis_path = "mmd_e12_metis.graph.tmp";
  if (smoke) {
    // CI-sized (~1M vertices): the committed peak-RSS baseline rows.
    bench_e12_metis("grid512-file", 512, 16, 1, metis_path);
    bench_e12_mesh("mesh1024", 1024, 16, 1);
    bench_e12_grid("grid1024", 1024, 16, 1);
    return;
  }
  bench_e12_grid("grid1024", 1024, 16, 2);
  bench_e12_metis("grid2048-file", 2048, 16, 1, metis_path);
  bench_e12_grid("grid2048", 2048, 16, 1);
  bench_e12_mesh("mesh3163", 3163, 16, 1);  // 10,004,569 vertices
  bench_e12_grid("grid3200", 3200, 16, 1);  // 10,240,000 vertices
}

// ---- E13: the sweep-quality suite (PR 10) ----------------------------------
// Quality rows (max_boundary is the headline number; ms is informational)
// across workloads where the choice of prefix rule actually matters.
// Modes per instance:
//   * "default"  — SweepMode::BetterOfTwo, the seed's crossing-prefix rule.
//     These rows are their own seed references, so after the merge their
//     max_boundary_vs_seed must be exactly 0.
//   * "window"   — SweepMode::WindowMin (PR 4): cheapest in-window prefix.
//     Strong on wide windows (heavy-tailed weights), can regress when the
//     window is narrow.
//   * "orb"      — orthogonal recursive coordinate bisection, the classical
//     mesh-partitioner baseline column (requires coordinates, so the METIS
//     round-trip row — which drops them — has no orb line).

void bench_e13_instance(const char* config, const Graph& g,
                        const std::vector<double>& w, int k, int reps) {
  struct ModeSpec {
    const char* name;
    SweepMode mode;
  };
  constexpr ModeSpec kModes[] = {{"default", SweepMode::BetterOfTwo},
                                 {"window", SweepMode::WindowMin}};
  for (const ModeSpec& m : kModes) {
    DecomposeOptions opt;
    opt.k = k;
    opt.sweep_mode = m.mode;
    Row row{"e13_quality", config, 0, g.num_vertices(), k, m.name, 1e300, 0.0};
    for (int r = 0; r < reps; ++r) {
      Timer t;
      const DecomposeResult res = decompose(g, w, opt);
      row.ms = std::min(row.ms, t.seconds() * 1e3);
      row.max_boundary = res.max_boundary;
    }
    push_row(row);
  }
  if (g.has_coords()) {
    Row row{"e13_quality", config, 0, g.num_vertices(), k, "orb", 1e300, 0.0};
    for (int r = 0; r < reps; ++r) {
      Timer t;
      const Coloring chi = orthogonal_recursive_bisection(g, w, k);
      row.ms = std::min(row.ms, t.seconds() * 1e3);
      row.max_boundary = max_boundary_cost(g, chi);
    }
    push_row(row);
  }
}

void bench_e13(bool smoke) {
  const int reps = smoke ? 1 : 2;

  // Unit-weight triangulated mesh: the narrow-window regime (window admits
  // at most the crossing prefixes).
  {
    const int side = smoke ? 48 : 96;
    const Graph g = make_tri_mesh(side, side);
    const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()),
                                1.0);
    bench_e13_instance("tri-mesh", g, w, 16, reps);
  }

  // The paper's climate workload: smooth insolation weights with storm
  // hot-spots — a genuinely weighted planar mesh.
  {
    ClimateParams params;
    params.rows = smoke ? 32 : 64;
    params.cols = smoke ? 64 : 128;
    const ClimateInstance inst = make_climate_instance(params);
    bench_e13_instance("climate", inst.graph, inst.weights, 16, reps);
  }

  // Heavy-tailed weights on a triangulated mesh: the wide-window regime
  // where the window rule has real candidates to choose from.
  {
    const int side = smoke ? 40 : 64;
    const Graph g = make_tri_mesh(side, side);
    bench_e13_instance("tri-heavy8", g,
                       heavy_weights(g.num_vertices(), 8.0, 271), 16, reps);
  }

  // Anisotropic geometric graph (8:1 slab): direction-dependent cuts where
  // a single crossing prefix per axis order misjudges.
  {
    const int n = smoke ? 6000 : 20000;
    const double radius = std::sqrt(10.0 * (1.0 / 8.0) / (3.14159265358979 * n));
    const Graph g = make_aniso_geometric(n, radius, 8.0);
    bench_e13_instance("aniso8", g, heavy_weights(g.num_vertices(), 4.0, 997),
                       16, reps);
  }

  // 3-D geometric graph: exercises the d = 3 per-axis sweep path.
  {
    const int n = smoke ? 4000 : 12000;
    const double radius =
        std::cbrt(10.0 * 3.0 / (4.0 * 3.14159265358979 * n));
    const Graph g = make_random_geometric3(n, radius);
    bench_e13_instance("geo3", g, heavy_weights(g.num_vertices(), 6.0, 613),
                       16, reps);
  }

  // METIS-file round trip: the climate instance written through the real
  // writer and re-read through the streaming reader (coordinates do not
  // survive the format, so this row also pins the no-coordinate path).
  {
    const char* path = "mmd_e13_metis.graph.tmp";
    ClimateParams params;
    params.rows = smoke ? 32 : 64;
    params.cols = smoke ? 64 : 128;
    params.seed = 23;
    {
      const ClimateInstance inst = make_climate_instance(params);
      write_metis_file(inst.graph, inst.weights, path);
    }
    const GraphWithWeights back = read_metis_file(path);
    std::remove(path);
    bench_e13_instance("climate-metis", back.graph, back.weights, 16, reps);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "bench_out.json";
  const char* label = "current";
  bool e12 = false, e12_smoke = false, e13 = false, e13_smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      label = argv[++i];
    } else if (std::strcmp(argv[i], "--e12") == 0) {
      e12 = true;
    } else if (std::strcmp(argv[i], "--e12-smoke") == 0) {
      e12_smoke = true;
    } else if (std::strcmp(argv[i], "--e13") == 0) {
      e13 = true;
    } else if (std::strcmp(argv[i], "--e13-smoke") == 0) {
      e13_smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  if (e12 || e12_smoke) {
    bench_e12(e12_smoke);
  } else if (e13 || e13_smoke) {
    bench_e13(e13_smoke);
  } else {
    for (const int side : {16, 32, 64, 128, 256}) bench_decompose("n-sweep", side, 16);
    for (const int k : {2, 8, 32, 128}) bench_decompose("k-sweep", 96, k);
    // Heavy-tailed weights widen the hard window (||w||_inf/2), giving the
    // eval-window rule room to pick cheaper cuts than the crossing prefix.
    bench_decompose("w-sweep-h8", 48, 16, 8.0);
    bench_decompose("w-sweep-h4", 64, 8, 4.0);
    bench_decompose("w-sweep-h4", 96, 32, 4.0);
    for (const int side : {32, 64, 128}) bench_fast("n-sweep", side, 16);
    for (const int k : {16, 64}) bench_refine_random(128, k);
    for (const int k : {16, 64}) bench_refine_converged(192, k);
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  // Machine shape stamped into every row so merged artifacts from
  // different runners stay attributable.
#ifdef NDEBUG
  const char* const build_type = "Release";
#else
  const char* const build_type = "Debug";
#endif
  const unsigned host_cores = std::thread::hardware_concurrency();
  std::fprintf(f, "{\n  \"label\": \"%s\",\n  \"rows\": [\n", label);
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    std::string extra =
        r.moves >= 0 ? ", \"moves\": " + std::to_string(r.moves) : "";
    if (r.m > 0) {
      extra += ", \"m\": " + std::to_string(r.m);
      extra += ", \"graph_bytes\": " + std::to_string(r.graph_bytes);
      extra += ", \"bytes_per_edge\": " +
               std::to_string(r.m > 0 ? static_cast<double>(r.graph_bytes) /
                                            static_cast<double>(r.m)
                                      : 0.0);
    }
    std::fprintf(f,
                 "    {\"suite\": \"%s\", \"config\": \"%s\", \"side\": %d, "
                 "\"n\": %d, \"k\": %d, \"mode\": \"%s\", \"ms\": %.3f, "
                 "\"max_boundary\": %.3f%s, \"peak_rss_bytes\": %zu, "
                 "\"host_cores\": %u, \"build_type\": \"%s\"}%s\n",
                 r.suite.c_str(), r.config.c_str(), r.side, r.n, r.k,
                 r.mode.c_str(), r.ms, r.max_boundary, extra.c_str(),
                 r.peak_rss, host_cores, build_type,
                 i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", out_path, g_rows.size());
  return 0;
}
