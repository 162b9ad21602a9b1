// A small, work-stealing-free, deterministic thread pool.
//
// The pool exists for embarrassingly parallel fan-out (the fleet driver in
// src/analysis/fleet.h runs one VP campaign per task).  Design goals, in
// order: determinism, exception safety, simplicity.
//
//   * Tasks are indexed 0..n-1 and workers claim indices from a single
//     atomic cursor in submission order -- there are no per-worker deques
//     and no stealing, so which task runs is never a scheduling decision.
//     Callers store results by index, which makes the *merged* output
//     independent of thread count and interleaving.
//   * parallel_for() is a barrier: it returns only after every task in the
//     batch has finished, so callers never observe a half-drained pool.
//   * Exceptions thrown by tasks are captured per index; after the batch
//     drains, the exception of the *lowest* index is rethrown (again:
//     deterministic, regardless of which worker hit it first).  Remaining
//     tasks still run to completion -- a failed campaign must not abort
//     its siblings -- and the pool stays usable for the next batch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ixp {

class ThreadPool {
 public:
  /// Spawns `threads - 1` background workers (minimum 0): the thread that
  /// calls parallel_for() is always the remaining worker, so a 1-thread
  /// pool degenerates to a plain serial loop with no handoff latency.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs task(0) .. task(n-1) across the workers and blocks until every
  /// one of them has finished.  If any tasks threw, the exception of the
  /// lowest index is rethrown after the batch has fully drained.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& task);

  /// Worker count (background workers + the calling thread).
  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// The pool width `requested` resolves to on this host: positive values
  /// pass through; 0 means "auto" = std::thread::hardware_concurrency().
  /// The result is clamped to [1, fleet_size] so a six-campaign fleet
  /// never spawns idle workers.
  static int resolve_jobs(int requested, std::size_t fleet_size);

 private:
  void worker_loop();
  void run_batch_tasks(std::size_t n);

  std::mutex mu_;
  std::condition_variable batch_ready_;
  std::condition_variable batch_done_;
  const std::function<void(std::size_t)>* task_ = nullptr;  // current batch
  std::size_t batch_n_ = 0;          // task count of the current batch
  std::uint64_t batch_id_ = 0;       // bumped per batch; wakes workers
  std::size_t done_ = 0;             // tasks finished in the current batch
  std::size_t workers_in_batch_ = 0; // background workers inside the batch
  std::atomic<std::size_t> cursor_{0};
  std::vector<std::exception_ptr> errors_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ixp
