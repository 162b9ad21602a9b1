#include "util/thread_pool.h"

namespace ixp {

ThreadPool::ThreadPool(int threads) {
  const int extra = threads > 1 ? threads - 1 : 0;
  workers_.reserve(static_cast<std::size_t>(extra));
  for (int i = 0; i < extra; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  batch_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_batch_tasks(std::size_t n) {
  // Claims indices until the batch cursor runs past the end.  Runs on both
  // the background workers and the thread inside parallel_for().
  for (;;) {
    const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    std::exception_ptr err;
    try {
      (*task_)(i);
    } catch (...) {
      err = std::current_exception();
    }
    std::lock_guard<std::mutex> lk(mu_);
    if (err) errors_[i] = err;
    if (++done_ == n) batch_done_.notify_all();
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    batch_ready_.wait(lk, [&] { return stop_ || batch_id_ != seen; });
    if (stop_) return;
    seen = batch_id_;
    // A worker that wakes after the batch already drained (task_ cleared
    // under this lock) must not join: the next batch may have reset the
    // cursor, and claiming against the stale size would hand out
    // out-of-range indices.
    if (task_ == nullptr) continue;
    ++workers_in_batch_;
    const std::size_t n = batch_n_;
    lk.unlock();
    run_batch_tasks(n);
    lk.lock();
    if (--workers_in_batch_ == 0) batch_done_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& task) {
  if (n == 0) return;
  std::unique_lock<std::mutex> lk(mu_);
  task_ = &task;
  batch_n_ = n;
  done_ = 0;
  cursor_.store(0, std::memory_order_relaxed);
  errors_.assign(n, nullptr);
  ++batch_id_;
  lk.unlock();
  batch_ready_.notify_all();

  run_batch_tasks(n);

  // Wait for (a) every task to finish and (b) every worker that woke for
  // this batch to check back out.  (b) matters: without it a worker could
  // still be between reading the batch state and its first (empty) cursor
  // claim when the *next* batch resets the cursor, and would claim stale
  // work.  Workers that never woke observe the next batch_id_ instead and
  // are harmless.
  lk.lock();
  batch_done_.wait(lk, [&] { return done_ == n && workers_in_batch_ == 0; });
  task_ = nullptr;

  std::exception_ptr first;
  for (auto& e : errors_) {
    if (e) {
      first = e;
      break;
    }
  }
  errors_.clear();
  if (first) {
    lk.unlock();
    std::rethrow_exception(first);
  }
}

int ThreadPool::resolve_jobs(int requested, std::size_t fleet_size) {
  int jobs = requested;
  if (jobs <= 0) jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (jobs <= 0) jobs = 1;
  if (fleet_size > 0 && static_cast<std::size_t>(jobs) > fleet_size) {
    jobs = static_cast<int>(fleet_size);
  }
  return jobs;
}

}  // namespace ixp
