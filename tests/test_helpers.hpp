// Shared fixtures and checkers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gen/weights.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "separators/splitter.hpp"

namespace mmd::testing {

/// All vertices of a graph as a list.
std::vector<Vertex> all_vertices(const Graph& g);

/// A small fixed hand-built graph (two triangles joined by a bridge) used
/// by the structural unit tests:
///   0-1, 1-2, 2-0 (costs 1,2,3), 2-3 (cost 10), 3-4, 4-5, 5-3 (costs 4,5,6)
Graph two_triangles();

/// A 30x30 grid, a 24x30 triangulated mesh and a 2000-vertex 3-D random
/// geometric graph, named, with log-uniform edge costs in [0.01, 100], so
/// that the order of the additions shows in the bits of a cost sum.
std::vector<std::pair<std::string, Graph>> costed_graphs();

/// Colors drawn uniformly from [0, k); with `partial`, about a third of
/// the vertices stay uncolored.
Coloring random_colors(const Graph& g, int k, bool partial, std::uint64_t seed);

/// Parameter grids shared by the property sweeps.
std::vector<WeightModel> weight_models();
std::vector<int> small_ks();

/// Weight vector for a graph under a model, deterministic per (model,seed).
std::vector<double> weights_for(const Graph& g, WeightModel model,
                                std::uint64_t seed = 3, double hi = 20.0);

/// Assert chi is a total partition into chi.k classes covering the graph.
void expect_total_coloring(const Graph& g, const Coloring& chi);

/// Assert the splitting window |w(U) - clamp(target)| <= wmax/2 (+eps).
void expect_split_window(const Graph& g, std::span<const Vertex> w_list,
                         std::span<const double> w, double target,
                         const SplitResult& result);

/// Human-readable parameter suffix for INSTANTIATE_TEST_SUITE_P.
std::string weight_model_suffix(WeightModel model);

}  // namespace mmd::testing
