#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

#include "util/hash.hpp"

namespace perfbench {

using namespace oar;

void Report::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * double(values.size() - 1);
  const std::size_t lo = std::size_t(std::floor(pos));
  const std::size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - double(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / double(values.size());
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  // The interpolated q-quantile lies at or above sample index
  // floor(q * (n - 1)); every sample past the next rank is strictly beyond.
  const std::size_t rank = std::size_t(std::floor(q * double(n - 1))) + 1;
  return rank >= n ? 0 : n - 1 - rank;
}

std::string check_tree(const route::OarmstResult& result,
                       const std::vector<hanan::Vertex>& pins) {
  if (!result.connected) return "disconnected tree";
  if (!std::isfinite(result.cost)) return "non-finite cost";
  return result.tree.validate(pins);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t weights_fnv1a64(rl::SteinerSelector& selector) {
  std::string bytes;
  for (nn::Parameter* p : selector.net().parameters()) {
    const nn::Tensor& t = p->value;
    bytes.append(reinterpret_cast<const char*>(t.data()),
                 std::size_t(t.numel()) * sizeof(float));
  }
  return util::fnv1a64(bytes);
}

std::string model_source() {
  const std::string path = core::default_checkpoint_path();
  if (std::filesystem::exists(path)) return "checkpoint " + path;
  return "quick-trained (no checkpoint at " + path + ")";
}

std::string shape_name(const hanan::HananGrid& grid) {
  return std::to_string(grid.h_dim()) + "x" + std::to_string(grid.v_dim()) + "x" +
         std::to_string(grid.m_dim());
}

hanan::HananGrid make_layout(std::int32_t h, std::int32_t v, std::int32_t m,
                             std::int32_t min_pins, std::int32_t max_pins,
                             util::Rng& rng) {
  gen::RandomGridSpec spec;
  spec.h = h;
  spec.v = v;
  spec.m = m;
  spec.min_pins = min_pins;
  spec.max_pins = max_pins;
  spec.min_obstacles = spec.max_obstacles = std::max(1, h * v * m / 40);
  return gen::random_grid(spec, rng);
}

int Rounds::next(util::Rng& rng) {
  if (pos_ == order_.size()) {
    order_.resize(std::size_t(n_));
    std::iota(order_.begin(), order_.end(), 0);
    rng.shuffle(order_);
    pos_ = 0;
  }
  return order_[pos_++];
}

std::vector<double> time_setups(int reps, const std::function<void()>& setup) {
  std::vector<double> out;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup();
    out.push_back(seconds_between(t0, Clock::now()));
  }
  return out;
}

ObsReading read_obs(const obs::Snapshot& snapshot) {
  ObsReading r;
  for (const obs::CounterSample& c : snapshot.counters) {
    r.counters[c.name] = double(c.value);
  }
  for (const obs::HistogramSample& hs : snapshot.histograms) {
    r.histograms[hs.name] = {hs.sum, double(hs.count)};
  }
  return r;
}

ObsReading read_obs() { return read_obs(obs::MetricsRegistry::instance().snapshot()); }

double counter_delta(const ObsReading& before, const ObsReading& after,
                     const std::string& name) {
  const auto a = after.counters.find(name);
  const auto b = before.counters.find(name);
  return (a == after.counters.end() ? 0.0 : a->second) -
         (b == before.counters.end() ? 0.0 : b->second);
}

std::pair<double, double> histogram_delta(const ObsReading& before,
                                          const ObsReading& after,
                                          const std::string& name) {
  const auto a = after.histograms.find(name);
  const auto b = before.histograms.find(name);
  const std::pair<double, double> zero{0.0, 0.0};
  const auto& av = a == after.histograms.end() ? zero : a->second;
  const auto& bv = b == before.histograms.end() ? zero : b->second;
  return {av.first - bv.first, av.second - bv.second};
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},
      {"ok_frac", "frac"},       {"p50_ms", "ms"},
      {"p75_ms", "ms"},          {"throughput_per_s", "1/s"},
      {"cost_ratio", "ratio"},
  };
  return names;
}

namespace {

const char* const kLayers[] = {"serve", "experience", "nn",   "hanan", "rl",
                               "route", "mcts",       "chip", "core",  "obs"};
const char* const kShapes[] = {"16x16x4", "24x24x6", "32x32x8", "32x32x4"};

std::vector<std::pair<std::string, std::string>> build_per_layer() {
  std::vector<std::pair<std::string, std::string>> v = {
      {"setup.selector_s", "s"},
      {"setup.warmup_s", "s"},
      {"trace.coverage_frac", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  for (const char* layer : kLayers) {
    v.emplace_back(std::string("self_frac.") + layer, "frac");
  }
  for (const char* n : {"serve.queue_wait_ms.p50", "serve.queue_wait_ms.p90",
                        "serve.inference_ms", "serve.routing_ms",
                        "serve.gen_late_ms"}) {
    v.emplace_back(n, "ms");
  }
  v.emplace_back("serve.goodput_rps", "1/s");
  v.emplace_back("serve.batch_size_mean", "count");
  for (const char* n : {"serve.cache_hit_frac", "serve.repeat_frac",
                        "serve.refused_frac", "serve.slo_miss_frac"}) {
    v.emplace_back(n, "frac");
  }
  v.emplace_back("experience.get_us", "us");
  v.emplace_back("experience.put_us", "us");
  for (const char* s : kShapes) v.emplace_back(std::string("hanan.encode_ms.") + s, "ms");
  for (const char* s : kShapes) v.emplace_back(std::string("nn.forward_ms.") + s, "ms");
  v.emplace_back("nn.forward_batch8_ms.32x32x8", "ms");
  v.emplace_back("nn.batch8_speedup", "ratio");
  v.emplace_back("rl.topk_us", "us");
  for (const char* s : kShapes) v.emplace_back(std::string("route.oarmst_ms.") + s, "ms");
  v.emplace_back("route.heap_pushes_per_req", "count");
  v.emplace_back("mcts.parallel_speedup", "ratio");
  for (const char* n : {"mcts.iterations_per_ep", "mcts.simulations_per_ep",
                        "mcts.expansions_per_ep", "mcts.eval_waits_per_ep",
                        "mcts.vloss_reverts_per_ep", "mcts.eval_batch_mean"}) {
    v.emplace_back(n, "count");
  }
  v.emplace_back("mcts.fsp_ms", "ms");
  v.emplace_back("mcts.critic_ms", "ms");
  v.emplace_back("obs.snapshot_us", "us");
  v.emplace_back("chip.netlist_s", "s");
  v.emplace_back("chip.iterations", "count");
  v.emplace_back("chip.engine_calls", "count");
  v.emplace_back("chip.engine_frac", "frac");
  v.emplace_back("chip.self_ms", "ms");
  v.emplace_back("chip.engine_select_ms", "ms");
  v.emplace_back("chip.engine_route_ms", "ms");
  v.emplace_back("chip.wirelength", "cost");
  v.emplace_back("hanan.feature_rebuilds_per_call", "count");
  v.emplace_back("route.adjacency_rebuilds_per_call", "count");
  return v;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names =
      build_per_layer();
  return names;
}

void report_trace(Report& report, const Tracer::SelfTimes& self,
                  double overhead_frac) {
  report.set("trace.coverage_frac", self.coverage(), "frac");
  report.set("trace.overhead_frac", overhead_frac, "frac");
  std::printf("  per-layer self time (traced run): %.3f s end-to-end\n",
              self.root_seconds);
  for (const auto& [layer, s] : self.layer_seconds) {
    report.set("self_frac." + layer, s / self.root_seconds, "frac");
    std::printf("    %-11s %9.3f s  %6.2f%%\n", layer.c_str(), s,
                100.0 * s / self.root_seconds);
  }
  std::printf("    %-11s %9.3f s  %6.2f%%  (inside no layer span)\n", "(uncovered)",
              self.root_self_seconds, 100.0 * self.root_self_seconds / self.root_seconds);
}

void finish_per_layer(Report& report) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    if (report.metrics.find(name) == report.metrics.end()) report.set(name, 0.0, unit);
  }
}

std::string result_json(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.failed == 0 && report.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : report.metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
