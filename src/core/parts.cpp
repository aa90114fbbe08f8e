#include "core/parts.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/subgraph.hpp"

namespace mmd {

namespace {

/// IterativePartition's peel loop (Lemma 28): while the rest of U weighs
/// more than 3 * chunk_weight, split a chunk of Psi-weight in [chunk_weight,
/// chunk_weight + ||Psi|rest||_inf] off it.  `certified()` is asked before
/// every split and ends the peel when it returns true; the return value
/// says whether it did.  `chunks` receives the peeled chunks in peel order,
/// `rest` what was not peeled.
template <typename Certified>
bool peel_chunks(const Graph& g, std::span<const Vertex> u_list, MeasureRef psi,
                 double chunk_weight, ISplitter& splitter, double* cut_cost,
                 DecomposeWorkspace* ws, std::vector<std::vector<Vertex>>& chunks,
                 std::vector<Vertex>& rest, Certified&& certified) {
  MMD_REQUIRE(chunk_weight > 0.0, "chunk weight must be positive");
  DecomposeWorkspace local_ws;
  const auto in_chunk = (ws ? *ws : local_ws).membership(g.num_vertices());
  rest.assign(u_list.begin(), u_list.end());

  double rest_weight = set_measure(psi, rest);
  const std::size_t max_chunks = u_list.size() + 2;
  while (rest_weight > 3.0 * chunk_weight && !rest.empty()) {
    if (certified()) return true;
    MMD_REQUIRE(chunks.size() < max_chunks, "iterative_partition diverged");
    const double wmax = set_measure_max(psi, rest);
    SplitRequest req;
    req.g = &g;
    req.w_list = rest;
    req.weights = psi;
    req.target = chunk_weight + wmax / 2.0;  // window => [chunk, chunk+wmax]
    SplitResult x = splitter.split(req);
    if (cut_cost) *cut_cost += x.boundary_cost;
    if (x.inside.empty() || x.inside.size() == rest.size()) break;  // degenerate
    in_chunk->assign(x.inside);
    rest = set_difference(rest, *in_chunk);
    rest_weight -= x.weight;
    chunks.push_back(std::move(x.inside));
  }
  return false;
}

}  // namespace

std::vector<std::vector<Vertex>> iterative_partition(
    const Graph& g, std::span<const Vertex> u_list, MeasureRef psi,
    double chunk_weight, ISplitter& splitter, double* cut_cost,
    DecomposeWorkspace* ws) {
  std::vector<std::vector<Vertex>> chunks;
  std::vector<Vertex> rest;
  peel_chunks(g, u_list, psi, chunk_weight, splitter, cut_cost, ws, chunks,
              rest, [] { return false; });
  if (!rest.empty()) chunks.push_back(std::move(rest));
  return chunks;
}

ExtractedPart extract_light_part(const Graph& g, std::span<const Vertex> u_list,
                                 MeasureRef psi, double chunk_weight,
                                 std::span<const MeasureRef> aux,
                                 ISplitter& splitter, DecomposeWorkspace* ws) {
  ExtractedPart out;
  if (u_list.empty()) return out;
  auto chunks = iterative_partition(g, u_list, psi, chunk_weight, splitter,
                                    &out.cut_cost, ws);
  MMD_ASSERT(!chunks.empty(), "partition produced no chunks");

  // Totals per auxiliary measure for normalized shares.
  std::vector<double> totals(aux.size(), 0.0);
  for (std::size_t j = 0; j < aux.size(); ++j)
    totals[j] = set_measure(aux[j], u_list);

  std::size_t best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    double score = 0.0;  // max normalized share over the measures
    for (std::size_t j = 0; j < aux.size(); ++j) {
      if (totals[j] <= 0.0) continue;
      score = std::max(score, set_measure(aux[j], chunks[i]) / totals[j]);
    }
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }
  out.part = std::move(chunks[best]);
  out.psi_weight = set_measure(psi, out.part);
  return out;
}

ExtractedPart extract_hitting_part(const Graph& g, std::span<const Vertex> u_list,
                                   MeasureRef psi, double target,
                                   std::span<const MeasureRef> aux,
                                   ISplitter& splitter, DecomposeWorkspace* ws) {
  ExtractedPart out;
  if (u_list.empty()) return out;
  const double total = set_measure(psi, u_list);
  if (total <= target) {  // take everything
    out.part.assign(u_list.begin(), u_list.end());
    out.psi_weight = total;
    return out;
  }

  // Lemma 30: chunks of weight c = target / (r+1), then the union of
  // per-measure argmax chunks ...
  const auto r = std::max<std::size_t>(aux.size(), 1);
  const double chunk_weight = std::max(target / static_cast<double>(r + 1), 1e-300);

  // ... peeled only until the share they must reach is certified.  Every
  // chunk of a full partition but the final remainder weighs >= c, so there
  // are at most w(U) / c of them and the argmax chunk of measure j holds at
  // least tau_j = m_j(U) * c / w(U) -- the bound Lemma 30's proof uses.
  // Once every measure has a peeled chunk holding its tau_j, the peel stops
  // and the argmax runs over the peeled chunks; otherwise the remainder
  // joins them as the last chunk, exactly as in the full partition.
  std::vector<double> tau(aux.size());
  for (std::size_t j = 0; j < aux.size(); ++j)
    tau[j] = set_measure(aux[j], u_list) * chunk_weight / total;
  std::vector<double> best(aux.size(), -1.0);   // max m_j over recorded chunks
  std::vector<std::size_t> arg(aux.size(), 0);  // its earliest chunk
  std::vector<std::vector<Vertex>> chunks;
  std::size_t recorded = 0;
  auto record_chunks = [&] {
    for (; recorded < chunks.size(); ++recorded)
      for (std::size_t j = 0; j < aux.size(); ++j) {
        const double m = set_measure(aux[j], chunks[recorded]);
        if (m > best[j]) {
          best[j] = m;
          arg[j] = recorded;
        }
      }
  };
  std::vector<Vertex> rest;
  const bool certified = peel_chunks(
      g, u_list, psi, chunk_weight, splitter, &out.cut_cost, ws, chunks, rest,
      [&] {
        record_chunks();
        for (std::size_t j = 0; j < aux.size(); ++j)
          if (best[j] < tau[j]) return false;
        return true;
      });
  if (!certified && !rest.empty()) chunks.push_back(std::move(rest));
  record_chunks();

  DecomposeWorkspace local_ws;
  const auto taken = (ws ? *ws : local_ws).membership(g.num_vertices());
  double weight = 0.0;
  auto take_chunk = [&](std::size_t i) {
    for (Vertex v : chunks[i]) {
      if (taken->contains(v)) continue;
      taken->add(v);
      out.part.push_back(v);
      weight += psi[static_cast<std::size_t>(v)];
    }
  };
  for (std::size_t j = 0; j < aux.size(); ++j)
    if (weight + set_measure(psi, chunks[arg[j]]) <= target + 1e-12 * (1.0 + target))
      take_chunk(arg[j]);

  // ... padded with a splitting set of the remainder up to the target.
  if (weight < target) {
    rest.clear();
    rest.reserve(u_list.size());
    for (Vertex v : u_list)
      if (!taken->contains(v)) rest.push_back(v);
    const double rest_max = set_measure_max(psi, rest);
    SplitRequest req;
    req.g = &g;
    req.w_list = rest;
    req.weights = psi;
    req.target = std::min(target - weight + rest_max / 2.0,
                          set_measure(psi, rest));
    SplitResult pad = splitter.split(req);
    out.cut_cost += pad.boundary_cost;
    for (Vertex v : pad.inside) {
      out.part.push_back(v);
      weight += psi[static_cast<std::size_t>(v)];
    }
  }
  out.psi_weight = weight;
  return out;
}

}  // namespace mmd
