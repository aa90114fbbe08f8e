#include "core/bisection.hpp"

#include "graph/subgraph.hpp"

namespace mmd {

namespace {

void bisect(const Graph& g, std::span<const double> w, ISplitter& splitter,
            DecomposeWorkspace& ws, std::vector<Vertex> part, int k_lo,
            int k_hi, Coloring& out) {
  const int span = k_hi - k_lo;
  if (span <= 1 || part.empty()) {
    for (Vertex v : part) out[v] = k_lo;
    return;
  }
  const int k_left = span / 2;
  const double total = set_measure(w, part);

  SplitRequest req;
  req.g = &g;
  req.w_list = part;
  req.weights = w;
  req.target = total * k_left / span;
  SplitResult left = splitter.split(req);

  std::vector<Vertex> right;
  {
    const auto in_left = ws.membership(g.num_vertices());
    in_left->assign(left.inside);
    right = set_difference(part, *in_left);
  }

  bisect(g, w, splitter, ws, std::move(left.inside), k_lo, k_lo + k_left, out);
  bisect(g, w, splitter, ws, std::move(right), k_lo + k_left, k_hi, out);
}

}  // namespace

Coloring recursive_bisection_coloring(const Graph& g, std::span<const double> w,
                                      int k, ISplitter& splitter,
                                      DecomposeWorkspace* ws) {
  MMD_REQUIRE(k >= 1, "k must be >= 1");
  MMD_REQUIRE(static_cast<Vertex>(w.size()) == g.num_vertices(),
              "weight arity mismatch");
  DecomposeWorkspace local_ws;
  Coloring out(k, g.num_vertices());
  std::vector<Vertex> all(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v) all[static_cast<std::size_t>(v)] = v;
  bisect(g, w, splitter, ws ? *ws : local_ws, std::move(all), 0, k, out);
  validate_coloring(g, out, /*require_total=*/true);
  return out;
}

}  // namespace mmd
