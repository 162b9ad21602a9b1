#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace ixp {

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& task) {
  if (n == 0) return;
  std::atomic<std::size_t> cursor{0};
  std::vector<std::exception_ptr> errors(n);
  // Claims indices until the cursor runs past the end.  Runs on every
  // forked thread and on the caller.
  auto drain = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        task(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  {
    // jthread joins on destruction, so the batch is joined at the end of
    // this scope even if starting a later thread throws.
    const std::size_t forks = std::min(static_cast<std::size_t>(size_), n) - 1;
    std::vector<std::jthread> threads;
    threads.reserve(forks);
    for (std::size_t t = 0; t < forks; ++t) threads.emplace_back(drain);
    drain();
  }

  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
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
