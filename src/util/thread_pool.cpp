#include "util/thread_pool.hpp"

#include <algorithm>

namespace oar::util {

namespace {
// Which pool (if any) the current thread belongs to.  Set once per worker
// at the top of worker_loop; gives current_thread_in_pool() a race-free
// answer without touching any shared structure.
thread_local const ThreadPool* t_current_pool = nullptr;
}  // namespace

bool ThreadPool::current_thread_in_pool() const {
  return t_current_pool == this;
}

bool ThreadPool::current_thread_is_worker() { return t_current_pool != nullptr; }

std::size_t ThreadPool::resolve_thread_count(std::int64_t requested) {
  if (requested > 0) return std::size_t(requested);
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  t_current_pool = this;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
      if (stopping_ && jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop();
    }
    job();
  }
}

void ThreadPool::parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;

  // Reentrant call from one of our own workers: run inline (see header).
  // Enqueueing would park this worker on futures whose chunks may never be
  // scheduled — with every worker blocked the same way, the pool deadlocks.
  if (current_thread_in_pool()) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  // One contiguous index range per worker rather than one task per index:
  // a task has queue/future overhead that swamps small bodies, and the
  // ranges keep neighbouring indices on the same worker.
  const std::size_t chunks = std::min(count, size());
  const std::size_t base = count / chunks;
  const std::size_t extra = count % chunks;  // first `extra` chunks get +1

  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  std::size_t begin = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t end = begin + base + (c < extra ? 1 : 0);
    futures.push_back(submit([&fn, begin, end] {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    }));
    begin = end;
  }

  // Wait for every chunk even if one throws, so `fn` stays alive for the
  // still-running workers; then surface the first exception.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace oar::util
