// The splitting-set primitive (Definition 3).
//
// A w*-splitting set of G[W] is a subset U of W with
//     |w(U) - w*| <= ||w|W||_inf / 2,
// and the p-splittability sigma_p(G,c) is the least factor such that a
// splitting set with boundary cost at most sigma_p * ||c|W||_p always
// exists.  Splitters are the only graph-structure-specific component of
// the whole pipeline: Theorem 4 turns any splitter into a strictly
// balanced k-coloring whose maximum boundary cost scales with the
// splitter's quality.
//
// Contract for ISplitter::split:
//   requires  0 <= target <= w(W)   (clamped internally otherwise)
//   ensures   result.inside is a subset of W (duplicates-free) with
//             |result.weight - target| <= max_{v in W} w_v / 2.
// The boundary-cost side has no hard guarantee (that is the quality
// sigma_p); the weight window is a hard postcondition and is verified by
// `check_split_contract`.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/subgraph.hpp"
#include "separators/sweep_eval.hpp"
#include "util/diagnostics.hpp"
#include "util/exec_control.hpp"

namespace mmd {

class ThreadPool;

struct SplitRequest {
  const Graph* g = nullptr;
  std::span<const Vertex> w_list;      ///< the sub-instance W
  std::span<const double> weights;     ///< vertex measure, indexed by global id
  double target = 0.0;                 ///< splitting value w*
};

struct SplitResult {
  std::vector<Vertex> inside;   ///< the splitting set U
  double weight = 0.0;          ///< w(U)
  double boundary_cost = 0.0;   ///< d_W U: cost of E(W) edges crossing U
};

class ISplitter {
 public:
  virtual ~ISplitter() = default;

  /// Compute a splitting set.  Not required to be thread-safe (splitters
  /// may keep scratch buffers); concurrent callers must each hold their
  /// own lane (see make_lane / lane below).
  virtual SplitResult split(const SplitRequest& request) = 0;

  virtual std::string name() const = 0;

  /// Opt-in intra-split parallelism: the splitter may use `pool` to
  /// evaluate independent candidates (sweep orders, composite children)
  /// concurrently.  Hard contract: the result of split() must stay
  /// bit-identical to the serial (pool == nullptr) path — candidates are
  /// index-addressed and reduced in index order, never by arrival time.
  /// `pool` is borrowed, must outlive the splitter's use of it, and
  /// nullptr restores the serial path.  Changing the pool drops any
  /// cached lanes (they would otherwise hold the stale pointer).
  void set_thread_pool(ThreadPool* pool) {
    pool_ = pool;
    lanes_.clear();
    on_thread_pool_changed(pool);
  }

  /// The pool handed to set_thread_pool, or nullptr (serial).  Phases
  /// *between* splits (multi_split's lane tree) use this to reach
  /// the pool without any extra plumbing through the call chain.
  ThreadPool* thread_pool() const { return pool_; }

  /// Factory for an independent execution lane: a splitter that produces
  /// bit-identical results to this one on every request, shares this
  /// splitter's immutable per-graph state (the OrderingCache), but owns
  /// all mutable scratch — so one lane per concurrent task makes split()
  /// safe to run in parallel.  Returns nullptr when the implementation
  /// does not support lanes (callers must then stay serial).  Default:
  /// unsupported.
  virtual std::unique_ptr<ISplitter> make_lane() { return nullptr; }

  /// Persistent lane `i`, created on first use via make_lane and cached so
  /// repeated fork-join phases reuse warm lane scratch instead of
  /// rebuilding replicas per call; nullptr when lanes are unsupported.
  /// Must be called from the orchestration thread (not from inside a
  /// pooled task) before forking.  The lane table is flat and unbounded:
  /// multi_split's lane tree addresses its 2^fork_depth leaves as lanes
  /// 0..2^d-1 and its level-l interior batch as lanes 0..2^l-1, and
  /// shrink_once's per-class extraction runs its L = min(pool threads, k)
  /// tasks on this splitter (task 0) and lanes 0..L-2, so one table serves
  /// every fork point (batches are sequential; only tasks within one batch
  /// run concurrently, and those hold distinct indices).
  ISplitter* lane(int i);

  /// Materialize lanes 0..count-1 eagerly (orchestration thread only) and
  /// report whether the implementation supports them.  When lanes are
  /// unsupported while a pool is wired in, this reports a one-time
  /// LanelessFallback diagnostic (counter + optional callback, never
  /// stderr — library code does not own the process's logs) instead of
  /// silently serializing: a splitter that forgot to override make_lane
  /// must not masquerade as a perf regression.  Callers (multi_split's
  /// lane tree, shrink_once's per-class extraction) stay serial on false.
  bool ensure_lanes(int count);

  /// Depth of multi_split's fork-join lane tree: recursion levels
  /// 0..fork_depth-1 run as deterministic fork-join batches with
  /// 2^fork_depth leaf lanes.  <= 0 (default) derives the depth from the
  /// pool size at fork time (see core/multi_split.cpp); any value is
  /// clamped there to the recursion height and a hard cap of 6 (64
  /// lanes).  Stored here — like the pool —
  /// so the phases between splits reach it without plumbing an options
  /// struct through every recursive call chain; stamped per call from
  /// DecomposeOptions::fork_depth by stamp_splitter (core/decompose.hpp).
  /// Purely a scheduling knob: results are bit-identical for every value.
  void set_fork_depth(int depth) { fork_depth_ = depth; }
  int fork_depth() const { return fork_depth_; }

  /// Execution control consulted at every split() entry (and at the
  /// candidate boundaries of splitters that have them).  Stored by value —
  /// ExecControl is a (time_point, token pointer) pair — and propagated to
  /// existing and future lanes, so a deadline armed on the parent bounds
  /// the whole lane tree.  Stamped per call by stamp_splitter
  /// (core/decompose.hpp), which decompose() and the contexts run; like
  /// the pool, phases between splits (multi_split's batch edges)
  /// reach it through the splitter instead of plumbing options through
  /// every recursion.
  void set_exec_control(const ExecControl& exec);
  const ExecControl& exec_control() const { return exec_; }

  /// Borrowed diagnostics sink (nullptr = count nowhere); propagated to
  /// lanes and stamped by stamp_splitter like the exec control.  See
  /// util/diagnostics.hpp.
  void set_diagnostics(DecomposeDiagnostics* diag);
  DecomposeDiagnostics* diagnostics() const { return diag_; }

  /// Prefix-choice rule for the sweep evaluations this splitter runs (see
  /// SweepMode in sweep_eval.hpp).  Runtime state like the fork depth —
  /// stored here, propagated to existing and future lanes, stamped per
  /// call by stamp_splitter — so every sweep consumer (prefix candidates,
  /// the grid splitter's trivial level, composite children) honors one
  /// setting without options plumbing.  Stamping a non-default mode onto
  /// a splitter whose supports_sweep_mode rejects it reports a one-time
  /// SweepModeUnsupported diagnostic instead of silently evaluating with
  /// the seed rule.
  void set_sweep_mode(SweepMode mode);
  SweepMode sweep_mode() const { return sweep_mode_; }

  /// Vestigial: a stored value (default 0) that no library splitter reads;
  /// the sweep policy it tuned is gone.  set_adaptive_margin records the
  /// value and calls on_adaptive_margin_changed; nothing validates it or
  /// propagates it to lanes.  Kept only so subclasses that forward it keep
  /// compiling; slated for removal.
  void set_adaptive_margin(double margin) {
    adaptive_margin_ = margin;
    on_adaptive_margin_changed(margin);
  }
  double adaptive_margin() const { return adaptive_margin_; }

  /// Whether split() actually honors `mode`.  The default claims only the
  /// seed rule; every sweep-evaluating implementation overrides this.
  virtual bool supports_sweep_mode(SweepMode mode) const {
    return mode == SweepMode::BetterOfTwo;
  }

 protected:
  /// Hook for implementations that forward the pool (composite children)
  /// or cache it in a different shape; the base class has already stored
  /// `pool` and dropped stale lanes when this runs.
  virtual void on_thread_pool_changed(ThreadPool* pool) { (void)pool; }

  /// Hooks mirroring on_thread_pool_changed for the exec control, the
  /// diagnostics sink, and the sweep policy (composite forwards all of
  /// them to its children).
  virtual void on_exec_control_changed(const ExecControl& exec) { (void)exec; }
  virtual void on_diagnostics_changed(DecomposeDiagnostics* diag) {
    (void)diag;
  }
  virtual void on_sweep_mode_changed(SweepMode mode) { (void)mode; }
  /// Vestigial companion of set_adaptive_margin (see there).
  virtual void on_adaptive_margin_changed(double margin) { (void)margin; }

  /// Call at the top of every split() implementation: the deterministic
  /// fault-injection site (splitter-fault plans) followed by the exec
  /// checkpoint.  Throws fault::InjectedFault / Cancelled /
  /// DeadlineExceeded; otherwise has no effect on the computation.
  void split_entry_checkpoint() const {
    if (fault::enabled()) fault::on_split();
    exec_.check();
  }

 private:
  ThreadPool* pool_ = nullptr;
  int fork_depth_ = 0;
  ExecControl exec_;
  DecomposeDiagnostics* diag_ = nullptr;
  SweepMode sweep_mode_ = SweepMode::BetterOfTwo;
  double adaptive_margin_ = 0.0;
  std::vector<std::unique_ptr<ISplitter>> lanes_;
  bool lanes_unsupported_ = false;
  bool lane_fallback_reported_ = false;
  bool mode_fallback_reported_ = false;
};

/// Verify the hard weight-window postcondition; throws InvariantViolation
/// (and is used in tests / debug paths).
void check_split_contract(const SplitRequest& request, const SplitResult& result);

/// Evaluate w(U) and d_W U of a candidate set exactly.
SplitResult evaluate_split(const Graph& g, std::span<const Vertex> w_list,
                           std::span<const double> weights,
                           std::span<const Vertex> inside);

/// Scratch-reusing variant: `in_w` must already represent exactly w_list;
/// `in_u` is clobbered.
SplitResult evaluate_split(const Graph& g, std::span<const Vertex> w_list,
                           std::span<const double> weights,
                           std::span<const Vertex> inside,
                           const Membership& in_w, Membership& in_u);

/// Move variant: adopts `inside` instead of copying it.
SplitResult evaluate_split(const Graph& g, std::span<const Vertex> w_list,
                           std::span<const double> weights,
                           std::vector<Vertex>&& inside, const Membership& in_w,
                           Membership& in_u);

}  // namespace mmd
