// Persistent thread pool for deterministic fork-join over indexed tasks.
//
// The decomposition pipeline's parallelism is of one shape only: a fixed
// set of independent items — sweep orders of a PrefixSplitter, children of
// a CompositeSplitter, the nodes of one level of multi_split's lane tree,
// the per-class Corollary 18 extractions of shrink_once — computed
// concurrently, followed by a serial reduction whose result must be
// *bit-identical* to the serial loop.  The pool therefore exposes a single
// primitive, run(count, fn), which invokes fn(0..count-1) exactly once
// each on unspecified threads and returns when all are done.  Determinism
// is the caller's half of the contract: every item's result lands in that
// item's own slot (task i writes slot i; shrink_once's tasks claim classes
// from a counter and write each claimed class's slot) and the reduction
// happens on the calling thread in index order, so the schedule can never
// change the outcome.
//
// Properties:
//   * The calling thread participates, so run() makes progress even with
//     zero workers and the pool degrades gracefully to the serial loop.
//   * Nested run() calls (a task itself calling run on the same pool)
//     execute inline and serially on the task's thread — safe by
//     construction, never deadlocks, still deterministic.
//   * Workers park on a condition variable between batches; a pool that is
//     constructed once and reused per split costs no thread spawns on the
//     hot path (the point of owning it in a DecomposeContext).
//
// run() may only be issued from one orchestration thread at a time (the
// decompose call tree is single-threaded outside the pool); concurrent
// run() calls from distinct external threads are not supported.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mmd {

class ThreadPool {
 public:
  /// A pool of `num_threads` execution lanes: the caller of run() plus
  /// max(0, num_threads - 1) parked worker threads.  num_threads <= 1
  /// spawns nothing and run() is the plain serial loop.
  ///
  /// Construction is exception-safe: if spawning worker j throws
  /// (std::system_error on thread exhaustion, std::bad_alloc), workers
  /// 0..j-1 are stopped and joined before the exception escapes — never a
  /// terminate() from a half-built pool.  The owners (both contexts and
  /// PartitionService) build through OwnedPool (core/context.hpp), which
  /// catches this, falls back to serial execution, and reports
  /// PoolConstructFailed on the owner's diagnostics sink.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (workers + the calling thread); >= 1.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Invoke fn(i) once for every i in [0, count), on this thread and the
  /// workers; returns when all invocations completed — including when some
  /// invocations throw: every claimed index is always counted done
  /// (try/catch around the task body), so a throwing task can never wedge
  /// the batch-generation claim guard or leave a stale lane running into
  /// the next batch.
  ///
  /// Exceptions thrown by fn are rethrown on the calling thread once the
  /// whole batch has drained, and deterministically so: when several tasks
  /// throw, the exception of the *lowest task index* wins, independent of
  /// the schedule (the fork-join analogue of the serial loop, which would
  /// have surfaced exactly that one).  After the rethrow the pool is fully
  /// reusable — the next run() starts from clean batch state.
  void run(int count, const std::function<void(int)>& fn);

  /// True on a thread currently executing a pooled task (nested run()
  /// calls detect themselves with this and degrade to the inline loop).
  static bool on_worker_thread();

 private:
  void worker_loop();
  void work(const std::function<void(int)>* fn, int count, std::uint64_t batch);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;   // workers wait for a new batch
  std::condition_variable cv_done_;   // caller waits for batch completion
  const std::function<void(int)>* fn_ = nullptr;
  int count_ = 0;
  int next_ = 0;       // next unclaimed task index
  int done_ = 0;       // completed task count of the current batch
  std::uint64_t batch_ = 0;  // generation counter; bumping wakes workers
  bool stop_ = false;
  std::exception_ptr error_;
  int error_index_ = 0;  // task index of error_ (lowest index wins)
};

}  // namespace mmd
