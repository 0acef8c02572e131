#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

std::uint32_t this_tid() {
  return std::uint32_t(std::hash<std::thread::id>{}(std::this_thread::get_id()) &
                       0x7fffffffu);
}

double secs(Tracer::Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Length of the union of [start, end) intervals clipped to [lo, hi).
double covered_seconds(
    std::vector<std::pair<Tracer::Clock::time_point, Tracer::Clock::time_point>> iv,
    Tracer::Clock::time_point lo, Tracer::Clock::time_point hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  Tracer::Clock::time_point cur_s{}, cur_e{};
  bool open = false;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (!open) {
      cur_s = s, cur_e = e, open = true;
    } else if (s <= cur_e) {
      cur_e = std::max(cur_e, e);
    } else {
      total += secs(cur_e - cur_s);
      cur_s = s, cur_e = e;
    }
  }
  if (open) total += secs(cur_e - cur_s);
  return total;
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

double Tracer::SelfTimes::coverage() const {
  double layers = 0.0;
  for (const auto& [name, s] : layer_seconds) layers += s;
  return root_seconds > 0.0 ? layers / root_seconds : 0.0;
}

std::uint64_t Tracer::record(std::string name, Clock::time_point start,
                             Clock::time_point end, std::uint64_t request,
                             std::uint64_t parent) {
  const std::uint64_t id = reserve_id();
  record_with_id(id, std::move(name), start, end, request, parent);
  return id;
}

void Tracer::record_with_id(std::uint64_t id, std::string name,
                            Clock::time_point start, Clock::time_point end,
                            std::uint64_t request, std::uint64_t parent) {
  SpanRecord rec{std::move(name), start, end, id, parent, request, this_tid()};
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(rec));
}

std::vector<Tracer::SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

Tracer::SelfTimes Tracer::self_times() const {
  const std::vector<SpanRecord> all = spans();
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children;
  for (const SpanRecord& s : all) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  SelfTimes out;
  for (const SpanRecord& s : all) {
    const double dur = secs(s.end - s.start);
    auto it = children.find(s.id);
    const double self =
        it == children.end()
            ? dur
            : std::max(0.0, dur - covered_seconds(it->second, s.start, s.end));
    if (s.parent == 0) {
      out.root_seconds += dur;
      out.root_self_seconds += self;
    } else {
      out.layer_seconds[layer_of(s.name)] += self;
    }
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [");
  bool first = true;
  for (const SpanRecord& s : all) {
    const double ts_us = secs(s.start - epoch_) * 1e6;
    const double dur_us = secs(s.end - s.start) * 1e6;
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, \"request\": %llu}}",
                 first ? "" : ",", s.name.c_str(), layer_of(s.name).c_str(), ts_us,
                 dur_us, s.tid, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
