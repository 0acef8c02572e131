#include "mcts/eval_server.hpp"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hpp"
#include "util/validate.hpp"

namespace oar::mcts {

namespace {

struct EvalObs {
  obs::Gauge& queue_depth;
  obs::Histogram& batch_occupancy;
  obs::Counter& requests;
  obs::Counter& batches;
  obs::Counter& flush_timeouts;
  obs::Counter& deadline_cancelled;
};

EvalObs& eval_obs() {
  auto& reg = obs::MetricsRegistry::instance();
  static EvalObs o{
      reg.gauge("oar_mcts_eval_queue_depth",
                "Leaf evaluations waiting in the EvalServer queue"),
      reg.histogram("oar_mcts_eval_batch_occupancy", obs::pow2_buckets(8),
                    "Same-shape requests drained per EvalServer batch"),
      reg.counter("oar_mcts_eval_requests_total",
                  "Leaf evaluations submitted to the EvalServer"),
      reg.counter("oar_mcts_eval_batches_total",
                  "Micro-batches run by the EvalServer drain thread"),
      reg.counter("oar_mcts_eval_flush_timeouts_total",
                  "Undersized EvalServer batches flushed on timeout"),
      reg.counter("oar_mcts_eval_deadline_cancelled_total",
                  "Leaf evaluations cancelled on an expired request deadline"),
  };
  return o;
}

}  // namespace

void EvalServerConfig::validate() const {
  util::check_field(eval_batch >= 1, "EvalServerConfig", "eval_batch",
                    "be >= 1", eval_batch);
  util::check_field(flush_us >= 0, "EvalServerConfig", "flush_us",
                    "be non-negative", flush_us);
  util::check_field(queue_capacity >= 1, "EvalServerConfig", "queue_capacity",
                    "be >= 1", queue_capacity);
}

EvalServer::EvalServer(rl::SteinerSelector& selector, EvalServerConfig config)
    : selector_(selector), config_(config) {
  config_.validate();
  drain_ = std::thread([this] { drain_loop(); });
}

EvalServer::~EvalServer() { shutdown(/*cancel_pending=*/false); }

std::future<void> EvalServer::submit(
    const hanan::HananGrid& grid, const float* features,
    std::vector<double>& out,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  Request request;
  request.grid = &grid;
  request.features = features;
  request.out = &out;
  request.deadline = deadline;
  std::future<void> fut = request.done.get_future();
  std::size_t depth = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Backpressure: block (never drop) until the queue has room.
    space_cv_.wait(lock, [&] {
      return stopping_ || std::ssize(queue_) < config_.queue_capacity;
    });
    if (stopping_) {
      throw std::runtime_error("EvalServer::submit called after shutdown");
    }
    queue_.push_back(std::move(request));
    ++stats_.requests;
    depth = queue_.size();
    stats_.peak_queue_depth = std::max<std::uint64_t>(stats_.peak_queue_depth, depth);
  }
  queue_cv_.notify_all();
  EvalObs& o = eval_obs();
  o.requests.inc();
  o.queue_depth.set(double(depth));
  return fut;
}

void EvalServer::shutdown(bool cancel_pending) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    cancel_pending_ = cancel_pending;
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  if (drain_.joinable()) drain_.join();
}

EvalServer::Stats EvalServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void EvalServer::drain_loop() {
  using Clock = std::chrono::steady_clock;
  for (;;) {
    std::vector<Request> batch;
    std::vector<Request> expired;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained

      if (stopping_ && cancel_pending_) {
        std::deque<Request> doomed;
        doomed.swap(queue_);
        stats_.cancelled += doomed.size();
        lock.unlock();
        space_cv_.notify_all();
        for (Request& r : doomed) {
          r.done.set_exception(std::make_exception_ptr(EvalCancelled{}));
        }
        continue;  // next wait sees the empty queue and returns
      }

      // Deadline sweep at batch-formation granularity: a queued request
      // whose deadline has already passed is cancelled, never evaluated —
      // its submitter has stopped caring (anytime search past budget) and
      // the forward would only delay live requests.
      const Clock::time_point sweep_now = Clock::now();
      for (auto it = queue_.begin(); it != queue_.end();) {
        if (it->deadline && sweep_now >= *it->deadline) {
          expired.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      stats_.deadline_cancelled += expired.size();
      if (queue_.empty()) {
        eval_obs().queue_depth.set(0.0);
        lock.unlock();
        space_cv_.notify_all();  // the sweep freed queue slots
        for (Request& r : expired) {
          r.done.set_exception(std::make_exception_ptr(EvalCancelled{}));
        }
        if (!expired.empty()) {
          eval_obs().deadline_cancelled.add(std::uint64_t(expired.size()));
        }
        continue;
      }

      // Collect same-shape requests in FIFO order; other shapes stay
      // queued (they anchor the next batch).
      const hanan::HananGrid* g0 = queue_.front().grid;
      auto same_shape = [&](const Request& r) {
        return r.grid->h_dim() == g0->h_dim() && r.grid->v_dim() == g0->v_dim() &&
               r.grid->m_dim() == g0->m_dim();
      };
      auto collect = [&] {
        for (auto it = queue_.begin();
             it != queue_.end() && std::ssize(batch) < config_.eval_batch;) {
          if (same_shape(*it)) {
            batch.push_back(std::move(*it));
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
      };
      collect();

      // Flush-on-timeout: wait up to flush_us for same-shape stragglers,
      // then run whatever we have so a lone request can never deadlock.
      if (std::ssize(batch) < config_.eval_batch && !stopping_ &&
          config_.flush_us > 0) {
        const auto deadline =
            Clock::now() + std::chrono::microseconds(config_.flush_us);
        while (std::ssize(batch) < config_.eval_batch && !stopping_) {
          if (queue_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
            collect();
            if (std::ssize(batch) < config_.eval_batch) {
              ++stats_.flush_timeouts;
              eval_obs().flush_timeouts.inc();
            }
            break;
          }
          collect();
        }
      }

      ++stats_.batches;
      if (batch.size() == 1) ++stats_.single_batches;
      stats_.max_batch = std::max<std::uint64_t>(stats_.max_batch, batch.size());
      eval_obs().queue_depth.set(double(queue_.size()));
    }
    space_cv_.notify_all();  // collect() freed queue slots
    for (Request& r : expired) {
      r.done.set_exception(std::make_exception_ptr(EvalCancelled{}));
    }
    if (!expired.empty()) {
      eval_obs().deadline_cancelled.add(std::uint64_t(expired.size()));
    }
    run_batch(std::move(batch));
  }
}

void EvalServer::run_batch(std::vector<Request> batch) {
  EvalObs& o = eval_obs();
  o.batches.inc();
  o.batch_occupancy.observe(double(batch.size()));

  try {
    // Every request runs the single-sample engine on its own feature bits
    // — the same arithmetic as SteinerSelector::infer_fsp_into — so a reply
    // is bitwise independent of the batch it was fused into, and the
    // 1-worker ≡ serial anchor holds at any eval_batch.
    for (Request& r : batch) {
      const hanan::HananGrid& g = *r.grid;
      selector_.infer_fsp_from_features(r.features, g.h_dim(), g.v_dim(),
                                        g.m_dim(), *r.out);
    }
    for (Request& r : batch) r.done.set_value();
  } catch (...) {
    // A failed forward fails every waiter in the batch instead of hanging it.
    const std::exception_ptr error = std::current_exception();
    for (Request& r : batch) {
      try {
        r.done.set_exception(error);
      } catch (const std::future_error&) {
        // set_value already ran for this request; nothing to fail.
      }
    }
  }
}

}  // namespace oar::mcts
