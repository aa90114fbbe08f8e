// Best-of composite splitter.
//
// GridSplit carries the worst-case guarantee of Theorem 19, but on
// unstructured (i.i.d.) costs plain coordinate sweeps with FM refinement
// are often cheaper; neither dominates.  The composite runs every child on
// the same request and keeps the cheapest boundary — the weight window is
// a hard postcondition of every child, so the composite inherits it, and
// its quality is the minimum of the children's (hence it keeps every
// child's theoretical guarantee).
//
// With a thread pool the children run concurrently: each child owns its
// scratch, writes only its own result slot, and the reduction scans slots
// in child order keeping the first strictly cheaper result — bit-identical
// to the serial loop.  The pool is also forwarded to the children, so a
// PrefixSplitter child can fan its candidate orders out on the same pool;
// a nested run() from inside a pooled child task executes inline (see
// thread_pool.hpp), which keeps the fan-out deadlock-free.
#pragma once

#include <memory>
#include <vector>

#include "separators/splitter.hpp"
#include "util/thread_pool.hpp"

namespace mmd {

class CompositeSplitter final : public ISplitter {
 public:
  explicit CompositeSplitter(std::vector<std::unique_ptr<ISplitter>> children)
      : children_(std::move(children)) {
    MMD_REQUIRE(!children_.empty(), "composite needs at least one child");
  }

  SplitResult split(const SplitRequest& request) override {
    split_entry_checkpoint();
    if (thread_pool() != nullptr && children_.size() >= 2) {
      results_.resize(children_.size());
      ThreadPool& pool = *thread_pool();
      pool.run(static_cast<int>(children_.size()),
               [&](int i) { results_[static_cast<std::size_t>(i)] =
                                children_[static_cast<std::size_t>(i)]->split(request); });
      std::size_t best = 0;
      for (std::size_t i = 1; i < results_.size(); ++i)
        if (results_[i].boundary_cost < results_[best].boundary_cost) best = i;
      return std::move(results_[best]);
    }
    SplitResult best;
    bool have = false;
    for (const auto& child : children_) {
      SplitResult cand = child->split(request);
      if (!have || cand.boundary_cost < best.boundary_cost) {
        best = std::move(cand);
        have = true;
      }
    }
    return best;
  }

  /// The composite honors a sweep mode when at least one child does (the
  /// forwarding below stamps every child; children that cannot honor it
  /// keep their default rule and report their own fallback).
  bool supports_sweep_mode(SweepMode mode) const override {
    for (const auto& child : children_)
      if (child->supports_sweep_mode(mode)) return true;
    return false;
  }

  std::string name() const override {
    std::string s = "best-of(";
    for (std::size_t i = 0; i < children_.size(); ++i) {
      if (i) s += ",";
      s += children_[i]->name();
    }
    return s + ")";
  }

  /// A composite lane is a composite of child lanes: each child shares its
  /// immutable per-graph state with the corresponding parent child and
  /// owns its scratch, so a whole lane tree of composite replicas can
  /// split concurrently.  Unsupported (nullptr) if any child lacks lanes —
  /// multi_split's lane-tree path then logs once and stays serial
  /// (ISplitter::ensure_lanes) instead of failing quietly.
  std::unique_ptr<ISplitter> make_lane() override {
    std::vector<std::unique_ptr<ISplitter>> lanes;
    lanes.reserve(children_.size());
    for (const auto& child : children_) {
      std::unique_ptr<ISplitter> lane = child->make_lane();
      if (lane == nullptr) return nullptr;
      lanes.push_back(std::move(lane));
    }
    return std::make_unique<CompositeSplitter>(std::move(lanes));
  }

 protected:
  void on_thread_pool_changed(ThreadPool* pool) override {
    for (const auto& child : children_) child->set_thread_pool(pool);
  }
  void on_exec_control_changed(const ExecControl& exec) override {
    for (const auto& child : children_) child->set_exec_control(exec);
  }
  void on_diagnostics_changed(DecomposeDiagnostics* diag) override {
    for (const auto& child : children_) child->set_diagnostics(diag);
  }
  void on_sweep_mode_changed(SweepMode mode) override {
    for (const auto& child : children_) child->set_sweep_mode(mode);
  }

 private:
  std::vector<std::unique_ptr<ISplitter>> children_;
  std::vector<SplitResult> results_;  // one slot per child (parallel path)
};

}  // namespace mmd
