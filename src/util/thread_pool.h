// A small, work-stealing-free, deterministic fork-join parallel_for.
//
// It exists for embarrassingly parallel fan-out (the fleet driver in
// src/analysis/fleet.h runs one shard of VP campaigns per task).  Design
// goals, in order: determinism, exception safety, simplicity.
//
//   * Tasks are indexed 0..n-1 and threads claim indices from a single
//     atomic cursor in submission order -- there are no per-worker deques
//     and no stealing, so which task runs is never a scheduling decision.
//     Callers store results by index, which makes the *merged* output
//     independent of thread count and interleaving.
//   * parallel_for() forks its threads, works alongside them, and joins
//     them before it returns: nothing outlives a call, so callers never
//     observe a half-finished batch and consecutive calls share no state.
//   * Exceptions thrown by tasks are captured per index; after the join,
//     the exception of the *lowest* index is rethrown (again:
//     deterministic, regardless of which thread hit it first).  Remaining
//     tasks still run to completion -- a failed campaign must not abort
//     its siblings.
#pragma once

#include <cstddef>
#include <functional>

namespace ixp {

class ThreadPool {
 public:
  /// A pool `threads` wide (minimum 1).  No thread starts until
  /// parallel_for().
  explicit ThreadPool(int threads) : size_(threads > 1 ? threads : 1) {}

  /// Runs task(0) .. task(n-1) on the calling thread plus
  /// `min(size(), n) - 1` threads started for this call, and returns once
  /// every task has finished and those threads are joined.  If any tasks
  /// threw, the exception of the lowest index is then rethrown.  A 1-wide
  /// pool is a plain serial loop.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& task);

  /// Width: the most threads one parallel_for() runs tasks on, the caller
  /// included.
  [[nodiscard]] int size() const { return size_; }

  /// The pool width `requested` resolves to on this host: positive values
  /// pass through; 0 means "auto" = std::thread::hardware_concurrency().
  /// The result is clamped to [1, fleet_size] so a six-campaign fleet
  /// never spawns idle workers.
  static int resolve_jobs(int requested, std::size_t fleet_size);

 private:
  int size_;
};

}  // namespace ixp
