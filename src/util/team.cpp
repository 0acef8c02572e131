#include "util/team.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace oar::util {

namespace {

// Set once at the top of each helper's loop; a region started from a
// helper (a region body that itself splits) runs inline.
thread_local bool t_team_helper = false;

/// How long a helper keeps polling for the next region before it blocks.
/// One forward issues its layer regions microseconds apart, so a short
/// spin keeps the helpers hot across a forward without holding three
/// cores for long after it.
constexpr std::chrono::microseconds kSpin{50};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// The generation word carries the region sequence number and its part
// count together, so a helper that is not needed learns that from one
// atomic load and never touches the region's other fields.
constexpr std::uint64_t kPartsBits = 16;
constexpr std::uint64_t kPartsMask = (std::uint64_t(1) << kPartsBits) - 1;

}  // namespace

struct ForkJoinTeam::State {
  std::atomic_flag busy = ATOMIC_FLAG_INIT;  // held by a region's caller
  std::atomic<std::uint64_t> generation{0};  // (seq << kPartsBits) | parts
  std::atomic<std::int32_t> done{0};         // helper parts finished
  std::atomic<std::int32_t> sleepers{0};
  std::atomic<bool> stopping{false};
  // Region payload: written by the caller before it publishes the
  // generation, read only by the helpers that take a part, all of which
  // finish before the caller returns.
  Fn fn = nullptr;
  void* ctx = nullptr;
  // First exception a part threw: written by the part that sets `failed`
  // first, read by the caller once every part has finished.
  std::atomic<bool> failed{false};
  std::exception_ptr error;

  void run_part(std::int32_t part, std::int32_t parts) noexcept;

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::thread> helpers;  // started by the first parallel region

  void helper_loop(std::int32_t index, std::uint64_t seen);
  std::uint64_t await_generation(std::uint64_t seen);
};

std::uint64_t ForkJoinTeam::State::await_generation(std::uint64_t seen) {
  // Poll: a few pause rounds, then yield between polls so that any other
  // runnable thread (a request generator, a routing worker) gets this core
  // at once instead of waiting out the spin.
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  for (std::uint32_t i = 1;; ++i) {
    const std::uint64_t g = generation.load(std::memory_order_acquire);
    if (g != seen) return g;
    if (i < 16) {
      cpu_relax();
    } else {
      std::this_thread::yield();
      if (std::chrono::steady_clock::now() >= deadline) break;
    }
  }
  std::unique_lock<std::mutex> lock(mu);
  sleepers.fetch_add(1);
  cv.wait(lock, [&] { return generation.load() != seen; });
  sleepers.fetch_sub(1);
  return generation.load(std::memory_order_acquire);
}

void ForkJoinTeam::State::run_part(std::int32_t part,
                                   std::int32_t parts) noexcept {
  try {
    fn(ctx, part, parts);
  } catch (...) {
    if (!failed.exchange(true)) error = std::current_exception();
  }
}

void ForkJoinTeam::State::helper_loop(std::int32_t index,
                                      std::uint64_t seen) {
  t_team_helper = true;
  for (;;) {
    seen = await_generation(seen);
    if (stopping.load(std::memory_order_acquire)) return;
    const std::int32_t parts = std::int32_t(seen & kPartsMask);
    if (index < parts) {
      run_part(index, parts);
      done.fetch_add(1, std::memory_order_release);
    }
  }
}

ForkJoinTeam& ForkJoinTeam::instance() {
  static ForkJoinTeam team;
  return team;
}

ForkJoinTeam::ForkJoinTeam()
    : state_(new State()),
      size_(std::int32_t(std::max(1u, std::thread::hardware_concurrency()))) {
  size_ = std::min<std::int32_t>(size_, std::int32_t(kPartsMask));
}

ForkJoinTeam::~ForkJoinTeam() {
  State& st = *state_;
  st.stopping.store(true, std::memory_order_release);
  st.generation.fetch_add(std::uint64_t(1) << kPartsBits);
  {
    std::lock_guard<std::mutex> lock(st.mu);
  }
  st.cv.notify_all();
  for (std::thread& t : st.helpers) t.join();
  delete state_;
}

std::int32_t ForkJoinTeam::parts_for(std::int64_t work,
                                     std::int64_t items) const {
  const std::int64_t by_work = work / kMinWorkPerPart;
  const std::int64_t parts =
      std::min<std::int64_t>({std::int64_t(size_), items, by_work});
  return parts < 1 ? 1 : std::int32_t(parts);
}

void ForkJoinTeam::run(std::int32_t parts, Fn fn, void* ctx) {
  State& st = *state_;
  parts = std::min(parts, size_);
  if (parts <= 1 || t_team_helper || ThreadPool::current_thread_is_worker() ||
      st.busy.test_and_set(std::memory_order_acquire)) {
    fn(ctx, 0, 1);
    return;
  }

  if (st.helpers.empty()) {
    // First parallel region: start the helpers (the only allocation the
    // team ever makes).  Guarded by `busy`, so exactly one caller does it.
    // Each starts from the generation before this region's, so it takes
    // its part however late it is scheduled.
    const std::uint64_t gen = st.generation.load(std::memory_order_relaxed);
    st.helpers.reserve(std::size_t(size_ - 1));
    for (std::int32_t i = 1; i < size_; ++i) {
      st.helpers.emplace_back([&st, i, gen] { st.helper_loop(i, gen); });
    }
  }

  st.fn = fn;
  st.ctx = ctx;
  st.done.store(0, std::memory_order_relaxed);
  const std::uint64_t prev = st.generation.load(std::memory_order_relaxed);
  const std::uint64_t seq = (prev >> kPartsBits) + 1;
  // seq_cst store/load pair against the helpers' sleepers increment and
  // predicate load: either a helper sees the new generation before it
  // blocks, or this side sees it counted and wakes it under the mutex.
  st.generation.store((seq << kPartsBits) | std::uint64_t(parts));
  if (st.sleepers.load() > 0) {
    {
      std::lock_guard<std::mutex> lock(st.mu);
    }
    st.cv.notify_all();
  }

  // The caller's own part may throw too: it still waits for the helpers,
  // which use `ctx` from this caller's frame.
  st.run_part(0, parts);

  // Parts are near-equal, so the helpers finish within a few hundred
  // cycles of this one unless one was descheduled; then yield the core
  // (possibly to it) rather than spin on it.
  for (std::uint32_t i = 1;
       st.done.load(std::memory_order_acquire) < parts - 1; ++i) {
    if (i < 64) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  std::exception_ptr error;
  if (st.failed.load(std::memory_order_relaxed)) {
    error = std::move(st.error);
    st.error = nullptr;
    st.failed.store(false, std::memory_order_relaxed);
  }
  st.busy.clear(std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

}  // namespace oar::util
