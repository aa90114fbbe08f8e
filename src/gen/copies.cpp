#include "gen/copies.hpp"

#include <algorithm>
#include <vector>

namespace mmd {

DisjointUnion make_disjoint_copies(const Graph& base, int copies) {
  MMD_REQUIRE(copies >= 1, "need at least one copy");
  const Vertex nb = base.num_vertices();
  MMD_REQUIRE(static_cast<long long>(nb) * copies < (1LL << 31), "union too large");

  DisjointUnion out;
  GraphBuilder builder(nb * copies);
  out.copy_of.resize(static_cast<std::size_t>(nb) * copies);
  out.base_vertex.resize(static_cast<std::size_t>(nb) * copies);

  // Shift copies apart along axis 0 by (extent + 2) so grid copies remain
  // grids and never become adjacent.
  std::int32_t extent0 = 0;
  if (base.has_coords()) {
    for (Vertex v = 0; v < nb; ++v)
      extent0 = std::max(extent0, base.coords(v)[0]);
    extent0 += 2;
  }

  std::vector<std::int32_t> xyz;
  for (int copy = 0; copy < copies; ++copy) {
    const Vertex off = static_cast<Vertex>(copy) * nb;
    for (Vertex v = 0; v < nb; ++v) {
      out.copy_of[static_cast<std::size_t>(off + v)] = copy;
      out.base_vertex[static_cast<std::size_t>(off + v)] = v;
      if (base.has_coords()) {
        const auto c = base.coords(v);
        xyz.assign(c.begin(), c.end());
        xyz[0] += static_cast<std::int32_t>(copy) * extent0;
        builder.set_coords(off + v, xyz);
      }
    }
    for (EdgeId e = 0; e < base.num_edges(); ++e) {
      const auto [u, v] = base.endpoints(e);
      builder.add_edge(off + u, off + v, base.edge_cost(e));
    }
  }
  out.graph = builder.build();
  return out;
}

std::vector<double> replicate_vertex_values(const DisjointUnion& du,
                                            std::span<const double> base_values) {
  std::vector<double> out(du.base_vertex.size());
  for (std::size_t v = 0; v < out.size(); ++v) {
    const auto b = static_cast<std::size_t>(du.base_vertex[v]);
    MMD_REQUIRE(b < base_values.size(), "base value arity mismatch");
    out[v] = base_values[b];
  }
  return out;
}

}  // namespace mmd
