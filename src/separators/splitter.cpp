#include "separators/splitter.hpp"

#include <algorithm>
#include <cmath>

namespace mmd {

ISplitter* ISplitter::lane(int i) {
  MMD_REQUIRE(i >= 0, "lane index must be non-negative");
  if (lanes_unsupported_) return nullptr;
  while (static_cast<std::size_t>(i) >= lanes_.size()) {
    std::unique_ptr<ISplitter> lane = make_lane();
    if (lane == nullptr) {
      lanes_unsupported_ = true;  // don't retry the factory every call
      return nullptr;
    }
    lane->set_thread_pool(pool_);
    lane->set_exec_control(exec_);
    lane->set_diagnostics(diag_);
    lane->set_sweep_mode(sweep_mode_);
    lanes_.push_back(std::move(lane));
  }
  return lanes_[static_cast<std::size_t>(i)].get();
}

void ISplitter::set_exec_control(const ExecControl& exec) {
  exec_ = exec;
  // Cached lanes survive an exec change (unlike a pool change, nothing in
  // them goes stale) but must observe the new deadline/token.
  for (const auto& lane : lanes_) lane->set_exec_control(exec);
  on_exec_control_changed(exec);
}

void ISplitter::set_diagnostics(DecomposeDiagnostics* diag) {
  diag_ = diag;
  for (const auto& lane : lanes_) lane->set_diagnostics(diag);
  on_diagnostics_changed(diag);
}

void ISplitter::set_sweep_mode(SweepMode mode) {
  sweep_mode_ = mode;
  // A splitter that cannot honor the requested rule keeps evaluating with
  // the seed rule — correct (every mode yields the hard weight window) but
  // not what the caller asked for, so say so once per instance instead of
  // silently dropping the request (the historical window-rule drop on the
  // geometric/grid paths).  The latch is only set when a sink actually
  // heard the report, so a later stamp with diagnostics attached still
  // fires.
  if (mode != SweepMode::BetterOfTwo && !supports_sweep_mode(mode) &&
      diag_ != nullptr && !mode_fallback_reported_) {
    mode_fallback_reported_ = true;
    diag_report(diag_, DiagEvent::SweepModeUnsupported,
                "splitter does not support the requested sweep mode; "
                "candidate prefixes keep the default better-of-two rule");
  }
  for (const auto& lane : lanes_) lane->set_sweep_mode(mode);
  on_sweep_mode_changed(mode);
}

bool ISplitter::ensure_lanes(int count) {
  if (count <= 0) return true;
  if (lane(count - 1) != nullptr) return true;
  // Lanes unsupported.  With a pool wired in the caller clearly intended
  // to fork, so report it — once per splitter instance, not per split —
  // instead of letting a missing make_lane override silently serialize
  // every multi_split and read as a performance regression.  Counter +
  // optional callback, never stderr: the embedding process owns its logs.
  if (pool_ != nullptr && !lane_fallback_reported_) {
    lane_fallback_reported_ = true;
    diag_report(diag_, DiagEvent::LanelessFallback,
                "splitter does not implement make_lane(); multi_split "
                "falls back to the serial recursion despite a thread pool "
                "being set");
  }
  return false;
}

void check_split_contract(const SplitRequest& request, const SplitResult& result) {
  MMD_REQUIRE(request.g != nullptr, "null graph in split request");
  const Graph& g = *request.g;
  Membership in_w(g.num_vertices());
  in_w.assign(request.w_list);
  double total = 0.0, wmax = 0.0;
  for (Vertex v : request.w_list) {
    total += request.weights[static_cast<std::size_t>(v)];
    wmax = std::max(wmax, request.weights[static_cast<std::size_t>(v)]);
  }
  const double target = std::clamp(request.target, 0.0, total);

  Membership seen(g.num_vertices());
  seen.clear();
  double weight = 0.0;
  for (Vertex v : result.inside) {
    if (!in_w.contains(v))
      throw InvariantViolation("splitting set contains vertex outside W");
    if (seen.contains(v))
      throw InvariantViolation("splitting set contains duplicate vertex");
    seen.add(v);
    weight += request.weights[static_cast<std::size_t>(v)];
  }
  const double slack = 1e-9 * std::max(1.0, total) + wmax / 2.0;
  if (std::abs(weight - target) > slack)
    throw InvariantViolation("splitting window violated: |w(U) - w*| > wmax/2");
}

SplitResult evaluate_split(const Graph& g, std::span<const Vertex> w_list,
                           std::span<const double> weights,
                           std::span<const Vertex> inside) {
  Membership in_w(g.num_vertices());
  in_w.assign(w_list);
  Membership in_u(g.num_vertices());
  return evaluate_split(g, w_list, weights, inside, in_w, in_u);
}

SplitResult evaluate_split(const Graph& g, std::span<const Vertex> w_list,
                           std::span<const double> weights,
                           std::span<const Vertex> inside,
                           const Membership& in_w, Membership& in_u) {
  (void)w_list;
  in_u.assign(inside);
  SplitResult out;
  out.inside.assign(inside.begin(), inside.end());
  out.weight = set_measure(weights, inside);
  out.boundary_cost = boundary_cost_within(g, inside, in_u, in_w);
  return out;
}

SplitResult evaluate_split(const Graph& g, std::span<const Vertex> w_list,
                           std::span<const double> weights,
                           std::vector<Vertex>&& inside, const Membership& in_w,
                           Membership& in_u) {
  (void)w_list;
  in_u.assign(inside);
  SplitResult out;
  out.inside = std::move(inside);
  out.weight = set_measure(weights, out.inside);
  out.boundary_cost = boundary_cost_within(g, out.inside, in_u, in_w);
  return out;
}

}  // namespace mmd
