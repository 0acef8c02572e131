#pragma once

// EvalServer: a process-local batched inference server for tree-parallel
// MCTS (DESIGN.md §15, the qalloczero InferenceServer architecture).
//
// K search workers produce leaf feature volumes (each worker encodes its
// own state through a private hanan::FeatureCache) and block on a future;
// one drain thread groups queued same-shape requests into micro-batches of
// up to `eval_batch` and completes the futures with per-request fsp
// (sigmoid probabilities in priority order).
//
// Contracts:
//   * Every request of a batch runs the single-sample inference engine
//     (UNet3d::infer on the selector's arena, or the int8 engine when it
//     is active), so each output is BITWISE identical to the serial
//     selector path whatever batch it was fused into — the anchor of the
//     single-worker-equals-serial property of ParallelCombMcts.  The batch
//     is a scheduling unit (one queue pass, one wake-up), not a stacked
//     tensor forward.
//   * The queue is bounded: submit() blocks (never drops) while
//     `queue_capacity` requests are waiting — backpressure, so a fast
//     producer cannot grow memory without bound.
//   * Flush-on-timeout: the drain thread waits at most `flush_us` for
//     same-shape stragglers before running an undersized batch, so a lone
//     request always completes — no straggler can deadlock a worker.
//     While it waits for shape-A stragglers it leaves other shapes queued.
//   * Shutdown is clean: the destructor (or shutdown(false)) drains every
//     pending request to completion; shutdown(true) instead cancels
//     pending requests by failing their futures with EvalCancelled.
//     Either way no future is leaked and no worker hangs.
//   * Deadline cancellation (SLO serving, DESIGN.md §16): a request
//     submitted with a deadline that has expired by the time the drain
//     thread would batch it is failed with EvalCancelled instead of
//     evaluated — an anytime search past its budget stops paying for
//     forwards nobody will use.  Requests without a deadline are never
//     cancelled except by shutdown(true).
//
// Thread safety: submit() may be called from any number of threads.  The
// selector is touched ONLY by the drain thread (the network forward caches
// and the inference arena are single-threaded by contract).  A request's
// feature pointer and output vector must stay valid until its future
// resolves; workers that block on get() right away satisfy this for free.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "hanan/hanan_grid.hpp"
#include "rl/selector.hpp"

namespace oar::mcts {

/// Failing state of a future whose request was cancelled by shutdown(true).
struct EvalCancelled : std::runtime_error {
  EvalCancelled() : std::runtime_error("EvalServer: request cancelled by shutdown") {}
};

struct EvalServerConfig {
  /// Maximum same-shape requests drained as one batch.
  std::int32_t eval_batch = 8;
  /// How long the drain thread waits for same-shape stragglers before
  /// running an undersized batch (flush-on-timeout).
  std::int64_t flush_us = 200;
  /// Bounded-queue capacity; submit() blocks while this many requests wait.
  std::int32_t queue_capacity = 256;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

class EvalServer {
 public:
  /// `selector` must outlive the server and is used exclusively by the
  /// drain thread.  The caller must not run its own forwards on it while
  /// the server is live.
  explicit EvalServer(rl::SteinerSelector& selector, EvalServerConfig config = {});
  /// Drains every pending request (shutdown(false)) and joins.
  ~EvalServer();

  EvalServer(const EvalServer&) = delete;
  EvalServer& operator=(const EvalServer&) = delete;

  /// Enqueue one leaf evaluation.  `features` points at the encoded
  /// kNumFeatureChannels * H * V * M volume for `grid` (worker-encoded,
  /// e.g. via hanan::FeatureCache::encode_into); `out` receives fsp in
  /// priority order when the future resolves.  Both must outlive the
  /// future.  Blocks while the queue is full; throws std::runtime_error
  /// after shutdown.  With a `deadline`, the drain thread fails the future
  /// with EvalCancelled instead of evaluating it once the deadline has
  /// expired (anytime-search cancellation).
  std::future<void> submit(
      const hanan::HananGrid& grid, const float* features,
      std::vector<double>& out,
      std::optional<std::chrono::steady_clock::time_point> deadline =
          std::nullopt);

  /// Stop accepting requests; `cancel_pending` fails queued futures with
  /// EvalCancelled instead of evaluating them.  Idempotent, joins the
  /// drain thread.
  void shutdown(bool cancel_pending = false);

  /// Point-in-time counters (test/diagnostic hook; exact once quiescent).
  struct Stats {
    std::uint64_t requests = 0;        // submitted
    std::uint64_t batches = 0;         // batches drained (any size)
    std::uint64_t single_batches = 0;  // batches of exactly one request
    std::uint64_t max_batch = 0;       // largest batch fused so far
    std::uint64_t flush_timeouts = 0;  // undersized batches run on timeout
    std::uint64_t cancelled = 0;       // futures failed by shutdown(true)
    std::uint64_t deadline_cancelled = 0;  // failed on an expired deadline
    std::uint64_t peak_queue_depth = 0;
  };
  Stats stats() const;

  const EvalServerConfig& config() const { return config_; }

 private:
  struct Request {
    const hanan::HananGrid* grid = nullptr;
    const float* features = nullptr;
    std::vector<double>* out = nullptr;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::promise<void> done;
  };

  void drain_loop();
  /// Runs one micro-batch; every promise is resolved (value or exception).
  void run_batch(std::vector<Request> batch);

  rl::SteinerSelector& selector_;
  EvalServerConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;  // drain thread: work or stop
  std::condition_variable space_cv_;  // producers: queue below capacity
  std::deque<Request> queue_;
  bool stopping_ = false;
  bool cancel_pending_ = false;
  Stats stats_;

  std::thread drain_;
};

}  // namespace oar::mcts
