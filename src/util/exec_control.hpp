// Execution control: deadlines and cooperative cancellation for every
// decompose entry point.
//
// A partition service cannot afford a wedged call: one pathological
// instance must fail fast, fail *typed*, and leave the warm context it ran
// on reusable.  ExecControl is the caller-facing half of that contract — a
// steady-clock deadline plus an optional caller-held CancelToken, carried
// by value in DecomposeOptions (FastOptions embeds it via `inner`) and
// consulted at cheap deterministic checkpoints:
//
//   * decompose / decompose_multi / FastContext::decompose entry and every
//     pipeline-phase boundary,
//   * every ISplitter::split entry (which covers the rebalance / strictify
//     / binpack recursions, whose work is almost entirely split calls) and
//     every candidate-order boundary inside PrefixSplitter,
//   * every worklist-refinement round boundary,
//   * every lane-tree batch edge in multi_split.
//
// A checkpoint either throws (DeadlineExceeded / Cancelled) or does
// nothing — it never perturbs the algorithm, so default-mode results stay
// bit-identical with or without a deadline armed.  Cancellation latency is
// therefore bounded by one worklist round / one split call / one lane
// batch, never by a whole decompose.
//
// Exception taxonomy (docs/ARCHITECTURE.md "Error model"):
//   std::invalid_argument  — caller misuse (MMD_REQUIRE)
//   ParseError             — malformed input file (io/metis_io.hpp)
//   DeadlineExceeded       — ExecControl deadline passed (retryable)
//   Cancelled              — caller's CancelToken fired (intentional)
//   InvariantViolation     — internal invariant broke (a bug; util/check.hpp)
// After any of these, every context involved remains valid: the next call
// on the same context must succeed and produce the same result a fresh
// context would (the fault-injection fuzz harness pins exactly that).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>

#include "util/fault.hpp"

namespace mmd {

/// Thrown by a checkpoint once the ExecControl deadline has passed.  The
/// computation stopped at a phase/round/split boundary; all warm state
/// (contexts, splitters, workspaces) remains reusable.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded() : std::runtime_error("mmd: deadline exceeded") {}
  using std::runtime_error::runtime_error;
};

/// Thrown by a checkpoint after the caller's CancelToken fired.  Same
/// state guarantee as DeadlineExceeded.
class Cancelled : public std::runtime_error {
 public:
  Cancelled() : std::runtime_error("mmd: cancelled by caller") {}
  using std::runtime_error::runtime_error;
};

/// Caller-held cancellation flag.  The caller keeps the token alive for
/// the duration of the call (ExecControl borrows it) and may set it from
/// any thread; checkpoints observe it with relaxed loads — cancellation
/// needs no ordering beyond "eventually seen", and the checkpoint cadence
/// bounds "eventually".
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Request cancellation (any thread, any time; idempotent).
  void request_cancel() noexcept {
    cancelled_.store(true, std::memory_order_relaxed);
  }
  bool cancel_requested() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }
  /// Re-arm the token for the next call (only between calls).
  void reset() noexcept { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Deadline + cancellation handle, carried by value (DecomposeOptions::exec).
/// Default-constructed it is unlimited and check() is a no-op beyond one
/// branch, so the zero-config path costs nothing measurable.
struct ExecControl {
  using Clock = std::chrono::steady_clock;

  /// Absolute steady-clock deadline; time_point::max() = none.
  Clock::time_point deadline = Clock::time_point::max();
  /// Borrowed cancellation token (caller-held, must outlive the call);
  /// nullptr = not cancellable.
  const CancelToken* cancel = nullptr;

  /// Deadline `timeout` from now; non-positive timeouts produce an
  /// already-expired deadline (the first checkpoint throws).  A timeout
  /// reaching past the end of the clock's range saturates to no deadline
  /// instead of overflowing into the past.
  static ExecControl with_timeout(std::chrono::nanoseconds timeout) {
    ExecControl ec;
    const Clock::time_point now = Clock::now();
    if (timeout <= Clock::duration::zero())
      ec.deadline = now;
    else if (timeout < Clock::time_point::max() - now)
      ec.deadline = now + timeout;
    return ec;
  }
  /// Same in milliseconds.  Above ~9.2e12 ms (~292 years) the conversion
  /// to the clock's int64 nanoseconds would overflow, so such timeouts
  /// saturate to no deadline before converting.
  static ExecControl with_timeout_ms(long ms) {
    using std::chrono::milliseconds;
    constexpr long kMaxMs = std::chrono::duration_cast<milliseconds>(
                                std::chrono::nanoseconds::max())
                                .count();
    if (ms > kMaxMs) return ExecControl{};
    return with_timeout(milliseconds(std::max(ms, 0L)));
  }

  /// True when no deadline and no token are set (the default).
  bool unlimited() const noexcept {
    return deadline == Clock::time_point::max() && cancel == nullptr;
  }

  /// The checkpoint.  Throws Cancelled / DeadlineExceeded; otherwise has
  /// no effect whatsoever on the computation.  The fault hook runs first
  /// so an armed cancel-at-N / deadline-at-N plan counts every checkpoint
  /// even on unlimited controls (that is what makes the cancellation
  /// machinery testable without wall-clock races).
  void check() const {
    if (fault::enabled()) {
      switch (fault::on_checkpoint()) {
        case fault::CheckpointFault::Cancel:
          throw Cancelled("mmd: cancelled (fault-injected)");
        case fault::CheckpointFault::Deadline:
          throw DeadlineExceeded("mmd: deadline exceeded (fault-injected)");
        case fault::CheckpointFault::None:
          break;
      }
    }
    if (unlimited()) return;
    if (cancel != nullptr && cancel->cancel_requested()) throw Cancelled();
    if (deadline != Clock::time_point::max() && Clock::now() >= deadline)
      throw DeadlineExceeded();
  }
};

}  // namespace mmd
