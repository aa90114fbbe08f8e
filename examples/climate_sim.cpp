// The paper's motivating application (Section 1): scheduling a climate
// simulation on k machines.  The surface is a triangulated mesh; each
// region is a job whose weight is its simulation time (insolation +
// storms) and whose couplings to neighbors cost communication when placed
// on different machines.
//
// A simple machine model turns a partition into a makespan estimate:
//   makespan_i = compute(class_i) + lambda * communication(class_i)
// The min-max boundary decomposition directly minimizes the worst term.
//
//   run: ./build/examples/climate_sim [k] [lambda]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "baselines/greedy.hpp"
#include "core/bisection.hpp"
#include "core/decompose.hpp"
#include "gen/mesh.hpp"
#include "separators/prefix_splitter.hpp"
#include "util/norms.hpp"
#include "util/table.hpp"

namespace {

double makespan(const mmd::Graph& g, std::span<const double> w,
                const mmd::Coloring& chi, double lambda) {
  const auto loads = mmd::class_measure(w, chi);
  const auto comms = mmd::class_boundary_costs(g, chi);
  double worst = 0.0;
  for (std::size_t i = 0; i < loads.size(); ++i)
    worst = std::max(worst, loads[i] + lambda * comms[i]);
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const int k = argc > 1 ? std::atoi(argv[1]) : 12;
  const double lambda = argc > 2 ? std::atof(argv[2]) : 0.3;

  mmd::ClimateParams params;
  params.rows = 64;
  params.cols = 128;
  const mmd::ClimateInstance inst = mmd::make_climate_instance(params);
  const mmd::Graph& g = inst.graph;
  std::printf("climate mesh: %d regions, %d couplings, %d machines, lambda=%.2f\n",
              g.num_vertices(), g.num_edges(), k, lambda);

  mmd::Table table("schedules",
                   {"scheduler", "makespan", "compute max", "comm max",
                    "strictly balanced"});
  const auto report = [&](const std::string& name, const mmd::Coloring& chi) {
    const auto rep = mmd::balance_report(inst.weights, chi);
    table.add_row({name, mmd::Table::num(makespan(g, inst.weights, chi, lambda), 1),
                   mmd::Table::num(rep.max_class, 1),
                   mmd::Table::num(mmd::max_boundary_cost(g, chi), 1),
                   rep.strictly_balanced ? "yes" : "no"});
  };

  mmd::DecomposeOptions opt;
  opt.k = k;
  const mmd::DecomposeResult ours = mmd::decompose(g, inst.weights, opt);
  report("minmax-decomp (ours)", ours.coloring);

  report("greedy LPT (graph-blind)",
         mmd::greedy_coloring(g, inst.weights, k, mmd::GreedyOrder::HeaviestFirst));

  mmd::PrefixSplitter splitter;
  report("recursive bisection",
         mmd::recursive_bisection_coloring(g, inst.weights, k, splitter));
  table.print();

  std::printf("\nDecomposition detail: max dev %.2f (allowed %.2f), "
              "max boundary %.1f vs Theorem 4 skeleton %.1f\n",
              ours.balance.max_dev, ours.balance.strict_bound,
              ours.max_boundary, ours.bound.b_max);
  return 0;
}
