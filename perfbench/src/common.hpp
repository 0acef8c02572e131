#pragma once

// Shared pieces of the end-to-end benchmark: the run context each workload
// receives, result accounting, output checks, percentiles, provenance and
// the JSON result line.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/oarsmtrl.hpp"
#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// chrome://tracing JSON written at exit of a traced run.
  std::string trace_out = ".bench_build/perfbench-trace.json";
};

/// Metrics one run reports, plus the correctness accounting behind the
/// `correct` / `attempted` / `failed` fields of the result line.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Human-readable reasons for the first few failures (printed, not JSON).
  std::vector<std::string> failures;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& why);
};

/// Quantile by linear interpolation between closest ranks (q in [0, 1]).
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
double median(const std::vector<double>& values);

/// Samples strictly beyond the q-quantile of n samples: the tail the
/// percentile rests on.  A percentile is reportable only when this is >= 10.
std::size_t samples_beyond(std::size_t n, double q);
inline constexpr std::size_t kMinTailSamples = 10;
/// The tail every workload reports: p75, the highest percentile that stayed
/// steady between input sets on a shared host (NOTES.md).
inline constexpr double kTailQ = 0.75;

/// Empty when `result` is a connected tree that RouteTree::validate accepts
/// for `pins`; otherwise the reason it is not.
std::string check_tree(const oar::route::OarmstResult& result,
                       const std::vector<oar::hanan::Vertex>& pins);

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double peak_rss_mb();

/// fnv1a64 over the selector's parameter values: identifies the model a
/// run measured.
std::uint64_t weights_fnv1a64(oar::rl::SteinerSelector& selector);

/// Where the selector came from: "checkpoint <path>" or "quick-trained".
std::string model_source();

/// Paper training-size shape label, e.g. "32x32x8".
std::string shape_name(const oar::hanan::HananGrid& grid);

/// Random training-distribution layout (paper Sec. 3.6 obstacle/cost
/// ranges, ~dim*dim*m/40 obstacles) with pins in [min_pins, max_pins].
oar::hanan::HananGrid make_layout(std::int32_t h, std::int32_t v, std::int32_t m,
                                  std::int32_t min_pins, std::int32_t max_pins,
                                  oar::util::Rng& rng);

/// Draws 0..n-1 in shuffled rounds, each value once per round, so a run's
/// input mix (shapes, pin counts, repeats) matches its intended shares
/// exactly instead of binomially: a few hundred requests then give the same
/// mix on every seed, and per-seed spread comes from the layouts alone.
class Rounds {
 public:
  explicit Rounds(int n) : n_(n) {}
  int next(oar::util::Rng& rng);

 private:
  int n_;
  std::vector<int> order_;
  std::size_t pos_ = 0;
};

/// Runs `setup` `reps` times and returns each wall time.  The first
/// repetition also pays lazy process-wide initialisation.
std::vector<double> time_setups(int reps, const std::function<void()>& setup);

/// Observation-registry deltas: counter/histogram values read around a call.
struct ObsReading {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> histograms;  // sum, count
};
ObsReading read_obs();
ObsReading read_obs(const oar::obs::Snapshot& snapshot);
double counter_delta(const ObsReading& before, const ObsReading& after,
                     const std::string& name);
/// (sum delta, count delta) of a histogram.
std::pair<double, double> histogram_delta(const ObsReading& before,
                                          const ObsReading& after,
                                          const std::string& name);

/// Every workload: fills `report` with its metrics (end-to-end ones when
/// args.trace is false, per-layer ones when true) and its accounting.
using WorkloadFn = void (*)(const Args& args, Report& report, Tracer* tracer);
void run_serve_mixed(const Args& args, Report& report, Tracer* tracer);
void run_chip_negotiate(const Args& args, Report& report, Tracer* tracer);

/// Search-layer probes on 24x24x6 layouts drawn from `seed`: tree-parallel
/// speedup, per-episode search counts, actor/critic and snapshot timings.
void mcts_layer_probes(const std::shared_ptr<oar::rl::SteinerSelector>& selector,
                       std::uint64_t seed, Tracer& tracer, Report& report);

/// Names and units of the metrics a workload must print, in the order of
/// BENCHMARK.json (end-to-end, then per-layer).  Every workload prints
/// every name; a layer a workload bypasses reads 0.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Sets trace.coverage_frac, trace.overhead_frac and self_frac.<layer> from
/// the traced workload run and prints its per-layer self-time table.
void report_trace(Report& report, const Tracer::SelfTimes& self, double overhead_frac);

/// Sets every per-layer metric the workload did not measure (a layer it
/// bypasses) to 0.
void finish_per_layer(Report& report);

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Report& report);

}  // namespace perfbench
