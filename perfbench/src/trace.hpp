#pragma once

// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent span, request id).  The benchmark
// opens spans around its own calls into each layer — the layer is the span
// name up to its first '.', e.g. "nn.forward" belongs to layer "nn" — and
// spans of one request share a request id.  Spans with no parent are the
// end-to-end roots.  Nothing is written until the run ends: write_chrome_json
// dumps every span in chrome://tracing "traceEvents" form, and self_times()
// computes each layer's self time (span duration minus the part of it its
// child spans cover).
//
// Spans are recorded under a mutex; the benchmark only opens them around
// calls of at least tens of microseconds, never inside the program's loops.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct SpanRecord {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   // 0 = end-to-end root
    std::uint64_t request = 0;  // shared by every span of one request
    std::uint32_t tid = 0;
  };

  /// Per-layer self time plus the end-to-end wall the roots cover.
  struct SelfTimes {
    std::map<std::string, double> layer_seconds;  // non-root layers
    double root_self_seconds = 0.0;  // root time no layer span covers
    double root_seconds = 0.0;       // sum of root durations
    /// Sum of layer self times / sum of root durations.
    double coverage() const;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t new_request() { return next_request_.fetch_add(1) + 1; }

  /// Records a finished span; returns its id.
  std::uint64_t record(std::string name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t request,
                       std::uint64_t parent = 0);
  /// Reserves an id for a span recorded later with record_with_id (a parent
  /// that must be named before its children finish).
  std::uint64_t reserve_id() { return next_id_.fetch_add(1) + 1; }
  void record_with_id(std::uint64_t id, std::string name, Clock::time_point start,
                      Clock::time_point end, std::uint64_t request,
                      std::uint64_t parent = 0);

  std::vector<SpanRecord> spans() const;
  SelfTimes self_times() const;
  /// Writes chrome://tracing JSON; returns false when the file cannot be
  /// written.
  bool write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> next_request_{0};
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span; a null tracer makes it a no-op (the untraced run).
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t request,
       std::uint64_t parent = 0)
      : tracer_(tracer), name_(name), request_(request), parent_(parent) {
    if (tracer_ != nullptr) {
      id_ = tracer_->reserve_id();
      start_ = Tracer::Clock::now();
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->record_with_id(id_, name_, start_, Tracer::Clock::now(), request_,
                              parent_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t request_;
  std::uint64_t parent_;
  std::uint64_t id_ = 0;
  Tracer::Clock::time_point start_{};
};

}  // namespace perfbench
