// Self-test of the benchmark's own checks.  Exits 0 when every check holds.
//
//   perfbench_selftest <path to BENCHMARK.json>
//
//  * the metric names and units the binary prints are exactly those of
//    BENCHMARK.json (end_to_end for untraced runs, per_layer for traced),
//  * a tail percentile is reportable only with >= 10 samples beyond it,
//  * a deliberately broken tree counts as a failure.

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;
using namespace oar;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

/// {"name": ..., "unit": ...} pairs of one BENCHMARK.json section, found by
/// scanning the text (the file is small and machine-written).
std::map<std::string, std::string> section(const std::string& json,
                                           const std::string& key) {
  std::map<std::string, std::string> out;
  std::size_t pos = json.find("\"" + key + "\"");
  if (pos == std::string::npos) return out;
  const std::size_t end = json.find(']', pos);
  const auto field = [&](std::size_t from, const std::string& name, std::size_t limit) {
    const std::size_t k = json.find("\"" + name + "\"", from);
    if (k == std::string::npos || k > limit) return std::string();
    const std::size_t a = json.find('"', json.find(':', k) + 1);
    const std::size_t b = json.find('"', a + 1);
    return json.substr(a + 1, b - a - 1);
  };
  for (;;) {
    const std::size_t open = json.find('{', pos);
    if (open == std::string::npos || open > end) break;
    const std::size_t close = json.find('}', open);
    out[field(open, "name", close)] = field(open, "unit", close);
    pos = close;
  }
  return out;
}

void check_names(const std::string& json) {
  std::map<std::string, std::string> printed;
  for (const auto& [n, u] : end_to_end_metrics()) printed[n] = u;
  expect(printed == section(json, "end_to_end"),
         "end-to-end names/units differ from BENCHMARK.json");
  printed.clear();
  for (const auto& [n, u] : per_layer_metrics()) printed[n] = u;
  expect(printed == section(json, "per_layer"),
         "per-layer names/units differ from BENCHMARK.json");

  // The result line of a run carries exactly those names.
  Report r;
  r.attempted = 1;
  finish_per_layer(r);
  expect(r.metrics.size() == per_layer_metrics().size(),
         "finish_per_layer does not fill every per-layer metric");
  const std::string line = result_json(r);
  for (const auto& [n, u] : per_layer_metrics()) {
    expect(line.find("\"" + n + "\": {\"value\": ") != std::string::npos,
           "result line misses " + n);
  }
}

void check_tail() {
  // A percentile needs >= 10 samples strictly beyond it.
  expect(samples_beyond(100, 0.9) < kMinTailSamples, "p90 of 100 samples is not a tail");
  expect(samples_beyond(120, 0.9) >= kMinTailSamples, "p90 of 120 samples is a tail");
  expect(samples_beyond(40, kTailQ) < kMinTailSamples, "p75 of 40 samples is not a tail");
  for (double q : {0.5, kTailQ, 0.9, 0.99}) {
    for (std::size_t n = 1; n < 400; ++n) {
      std::vector<double> v;
      for (std::size_t i = 0; i < n; ++i) v.push_back(double(i));
      const double value = quantile(v, q);
      std::size_t above = 0;
      for (double x : v) above += x > value ? 1 : 0;
      expect(samples_beyond(n, q) <= above,
             "samples_beyond overstates the tail at n=" + std::to_string(n));
    }
  }
  expect(quantile({1, 2, 3, 4}, 0.5) == 2.5, "median of 1..4 is 2.5");
}

void check_broken_tree() {
  util::Rng rng(7);
  const hanan::HananGrid grid = make_layout(16, 16, 4, 4, 4, rng);
  route::OarmstResult good = route::OarmstRouter(grid).build(grid.pins());
  expect(check_tree(good, grid.pins()).empty(), "a routed tree validates");

  // Drop one edge: the tree no longer spans every pin.
  route::OarmstResult broken;
  broken.connected = true;
  broken.cost = good.cost;
  broken.tree = route::RouteTree(&grid);
  const auto& edges = good.tree.edges();
  for (std::size_t i = 1; i < edges.size(); ++i) broken.tree.add_edge(edges[i].a, edges[i].b);
  expect(!check_tree(broken, grid.pins()).empty(), "a tree missing an edge fails");

  route::OarmstResult disconnected = good;
  disconnected.connected = false;
  expect(!check_tree(disconnected, grid.pins()).empty(), "a disconnected result fails");

  Report r;
  r.attempted = 1;
  r.fail("broken tree");
  expect(result_json(r).find("\"correct\": false") != std::string::npos,
         "a failure makes the run incorrect");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <BENCHMARK.json>\n");
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", argv[1]);
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  check_names(buf.str());
  check_tail();
  check_broken_tree();
  std::printf("perfbench_selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
