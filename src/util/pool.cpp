#include "util/pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace fountain::util {

std::size_t resolve_threads(std::size_t requested) {
  if (requested == 0) {
    requested = static_cast<std::size_t>(std::thread::hardware_concurrency());
  }
  return std::max<std::size_t>(requested, 1);
}

void WorkerPool::run(
    std::size_t threads, std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& task) {
  if (count == 0) return;
  const std::size_t workers = std::min(resolve_threads(threads), count);
  if (workers <= 1) {
    // Sequential path: ascending index order on the caller, no threads.
    for (std::size_t i = 0; i < count; ++i) task(0, i);
    return;
  }

  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto work = [&](std::size_t worker) {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        task(worker, i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(work, w);
  work(0);  // the caller is worker 0
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace fountain::util
