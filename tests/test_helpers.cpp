#include "test_helpers.hpp"

#include <algorithm>
#include <cmath>

#include "gen/geometric.hpp"
#include "gen/grid.hpp"
#include "gen/mesh.hpp"
#include "graph/subgraph.hpp"
#include "util/prng.hpp"

namespace mmd::testing {

std::vector<Vertex> all_vertices(const Graph& g) {
  std::vector<Vertex> vs(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v) vs[static_cast<std::size_t>(v)] = v;
  return vs;
}

Graph two_triangles() {
  GraphBuilder builder(6);
  builder.add_edge(0, 1, 1.0);
  builder.add_edge(1, 2, 2.0);
  builder.add_edge(2, 0, 3.0);
  builder.add_edge(2, 3, 10.0);
  builder.add_edge(3, 4, 4.0);
  builder.add_edge(4, 5, 5.0);
  builder.add_edge(5, 3, 6.0);
  return builder.build();
}

std::vector<std::pair<std::string, Graph>> costed_graphs() {
  CostParams costs;
  costs.model = CostModel::LogUniform;
  costs.lo = 0.01;
  costs.hi = 100.0;
  costs.seed = 41;
  const int n3 = 2000;
  std::vector<std::pair<std::string, Graph>> out;
  out.emplace_back("grid", make_grid_cube(2, 30, costs));
  out.emplace_back("tri-mesh", make_tri_mesh(24, 30, costs));
  out.emplace_back(
      "geo3", make_random_geometric3(
                  n3, std::cbrt(10.0 * 3.0 / (4.0 * 3.14159265358979 * n3)),
                  costs, 29));
  return out;
}

Coloring random_colors(const Graph& g, int k, bool partial, std::uint64_t seed) {
  Rng rng(seed);
  Coloring chi(k, g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    chi[v] = partial && rng.next_below(3) == 0
                 ? kUncolored
                 : static_cast<std::int32_t>(
                       rng.next_below(static_cast<std::uint64_t>(k)));
  return chi;
}

std::vector<WeightModel> weight_models() {
  return {WeightModel::Unit,    WeightModel::Uniform, WeightModel::Exponential,
          WeightModel::Zipf,    WeightModel::Bimodal, WeightModel::OneHeavy};
}

std::vector<int> small_ks() { return {1, 2, 3, 5, 8, 16}; }

std::vector<double> weights_for(const Graph& g, WeightModel model,
                                std::uint64_t seed, double hi) {
  WeightParams wp;
  wp.model = model;
  wp.lo = 1.0;
  wp.hi = hi;
  wp.seed = seed;
  return make_weights(g.num_vertices(), wp);
}

void expect_total_coloring(const Graph& g, const Coloring& chi) {
  ASSERT_EQ(static_cast<Vertex>(chi.color.size()), g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ASSERT_GE(chi[v], 0) << "vertex " << v << " uncolored";
    ASSERT_LT(chi[v], chi.k) << "vertex " << v << " color out of range";
  }
}

void expect_split_window(const Graph& g, std::span<const Vertex> w_list,
                         std::span<const double> w, double target,
                         const SplitResult& result) {
  (void)g;
  double total = 0.0, wmax = 0.0;
  for (Vertex v : w_list) {
    total += w[static_cast<std::size_t>(v)];
    wmax = std::max(wmax, w[static_cast<std::size_t>(v)]);
  }
  const double t = std::clamp(target, 0.0, total);
  double got = 0.0;
  for (Vertex v : result.inside) got += w[static_cast<std::size_t>(v)];
  EXPECT_NEAR(got, result.weight, 1e-9 * std::max(1.0, total));
  EXPECT_LE(std::abs(got - t), wmax / 2.0 + 1e-9 * std::max(1.0, total))
      << "splitting window violated (target " << t << ", got " << got << ")";
}

std::string weight_model_suffix(WeightModel model) {
  std::string s = weight_model_name(model);
  std::replace(s.begin(), s.end(), '-', '_');
  return s;
}

}  // namespace mmd::testing
