// Library diagnostics: counters and an optional callback instead of
// stderr.
//
// Library code must never write to stderr — a server embedding the
// library owns its logs.  Conditions worth surfacing (a splitter without
// lane support silently serializing multi_split or shrink_once, a thread-pool
// construction failure degrading to serial, a deadline-degraded fast-mode
// result) instead increment counters on a caller-owned DecomposeDiagnostics
// sink, borrowed via DecomposeOptions::diagnostics and stamped onto the
// splitter tree alongside the pool.  Counters are atomic: fork-join lanes
// may report concurrently.  The optional callback receives a static-
// lifetime message per event for callers that want log lines; it may be
// invoked from inside a decompose call (never concurrently from multiple
// lanes for the same event kind in practice, but treat it as
// thread-unsafe-unless-yours-is).
#pragma once

#include <atomic>
#include <functional>

namespace mmd {

/// Event kinds reported to DecomposeDiagnostics::callback.
enum class DiagEvent {
  LanelessFallback,     ///< make_lane unsupported; a fork stayed serial
  PoolConstructFailed,  ///< ThreadPool build threw; context degraded to serial
  DegradedResult,       ///< deadline hit in fast mode; best-effort returned
  ConcurrentContextEntry,  ///< a context (exclusive per call) was entered
                           ///< while another call held it — caller bug
  SweepModeUnsupported,  ///< a non-default SweepMode was stamped on a
                         ///< splitter that cannot honor it; evaluation
                         ///< keeps the better-of-two rule
};

/// Caller-owned diagnostics sink (borrowed by DecomposeOptions; must
/// outlive every call using it).  Non-copyable on purpose: one sink, many
/// calls, aggregate counters.
struct DecomposeDiagnostics {
  DecomposeDiagnostics() = default;
  DecomposeDiagnostics(const DecomposeDiagnostics&) = delete;
  DecomposeDiagnostics& operator=(const DecomposeDiagnostics&) = delete;

  /// multi_split or shrink_once wanted to fork but the splitter lacks
  /// make_lane support; the call fell back to the (correct, slower) serial
  /// path.
  std::atomic<long> laneless_fallbacks{0};
  /// ThreadPool construction threw (thread/memory exhaustion); the context
  /// degraded to the serial path instead of failing the call.
  std::atomic<long> pool_construct_failures{0};
  /// A fast-mode deadline hit after the coarse level completed; the call
  /// returned a degraded best-effort result with a certificate.
  std::atomic<long> degraded_results{0};
  /// A DecomposeContext/FastContext was entered from a second thread while
  /// a call was already running on it (contexts are exclusive resources;
  /// see ExclusiveUse in core/context.hpp).  Debug builds additionally
  /// throw InvariantViolation at the offending entry.
  std::atomic<long> concurrent_context_entries{0};
  /// A non-default SweepMode was stamped onto a splitter whose
  /// supports_sweep_mode rejects it; sweeps on that splitter keep the
  /// better-of-two rule (the request is recorded, not honored).
  std::atomic<long> sweep_mode_fallbacks{0};

  /// Optional log hook; `message` has static storage duration.
  std::function<void(DiagEvent event, const char* message)> callback;

  /// Count the event and invoke the callback if any.
  void report(DiagEvent event, const char* message) {
    switch (event) {
      case DiagEvent::LanelessFallback: ++laneless_fallbacks; break;
      case DiagEvent::PoolConstructFailed: ++pool_construct_failures; break;
      case DiagEvent::DegradedResult: ++degraded_results; break;
      case DiagEvent::ConcurrentContextEntry: ++concurrent_context_entries; break;
      case DiagEvent::SweepModeUnsupported: ++sweep_mode_fallbacks; break;
    }
    if (callback) callback(event, message);
  }
};

/// Null-safe report helper for borrowed sinks.
inline void diag_report(DecomposeDiagnostics* diag, DiagEvent event,
                        const char* message) {
  if (diag != nullptr) diag->report(event, message);
}

}  // namespace mmd
