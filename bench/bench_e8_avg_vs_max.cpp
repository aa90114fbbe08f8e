// E8 — Theorem 5 remark: the average boundary cost admits no better
// worst-case bound than the maximum.
//
// On the tight instances G~, *every* roughly balanced coloring already has
// average boundary cost Omega(||c~||_p / k^{1/p} + ||c~||_inf) — the same
// order as the max-boundary upper bound.  Reproduction: on the tight
// instances, show measured avg and max sit within a small constant of each
// other and both inside the [lower, upper] window; contrast with recursive
// bisection, which controls the average yet leaks a larger max/avg ratio.
#include <algorithm>

#include "bench_common.hpp"
#include "core/bisection.hpp"
#include "core/decompose.hpp"
#include "instances/tight.hpp"
#include "separators/prefix_splitter.hpp"
#include "util/norms.hpp"

int main() {
  using namespace mmd;
  bench::header("E8", "avg boundary cost is Theta(max) on tight instances");

  Table table("E8 avg vs max over tight instances (side 10)",
              {"k", "lower(avg)", "ours avg", "ours max", "ours max/avg",
               "RB avg", "RB max", "RB max/avg"});
  double worst_ours_ratio = 0.0, worst_rb_ratio = 0.0;
  for (int k : {8, 16, 32, 64}) {
    const auto inst = make_tight_grid_instance(10, k);
    DecomposeOptions opt;
    opt.k = k;
    const DecomposeResult res = decompose(inst.du.graph, inst.weights, opt);
    const double ours_ratio = res.max_boundary / std::max(res.avg_boundary, 1e-12);

    PrefixSplitter splitter;
    const Coloring rb = recursive_bisection_coloring(
        inst.du.graph, inst.weights, k, splitter);
    const double rb_avg = avg_boundary_cost(inst.du.graph, rb);
    const double rb_max = max_boundary_cost(inst.du.graph, rb);
    const double rb_ratio = rb_max / std::max(rb_avg, 1e-12);

    worst_ours_ratio = std::max(worst_ours_ratio, ours_ratio);
    worst_rb_ratio = std::max(worst_rb_ratio, rb_ratio);
    table.add_row({Table::num(k),
                   Table::num(inst.avg_boundary_lower_bound, 2),
                   Table::num(res.avg_boundary, 2),
                   Table::num(res.max_boundary, 2), Table::num(ours_ratio, 2),
                   Table::num(rb_avg, 2), Table::num(rb_max, 2),
                   Table::num(rb_ratio, 2)});
  }
  table.print();

  bench::verdict(worst_ours_ratio < 4.0,
                 "ours: max within factor " + Table::num(worst_ours_ratio, 2) +
                     " of avg — avg is Theta(max), as the remark asserts");
  bench::note("recursive bisection max/avg ratio up to " +
              Table::num(worst_rb_ratio, 2) +
              " — bounding the average alone does not bound the max.");
  return 0;
}
