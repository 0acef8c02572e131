// perfbench: end-to-end benchmark of the oarsmtrl router.
//
//   perfbench --workload <serve_mixed|chip_negotiate> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Untraced (--trace 0) runs print the end-to-end metrics; traced runs
// (--trace 1) repeat the workload with spans on and print the per-layer
// metrics, a per-layer self-time table, and write a chrome://tracing JSON.
// The last stdout line is always the JSON result object.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"
#include "util/logging.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <serve_mixed|chip_negotiate> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <path>]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Args& args, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return error = "bad --seed " + value, false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 600.0) {
        return error = "bad --seconds " + value, false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return error = "bad --trace " + value, false;
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      error = "unknown flag " + flag;
      return false;
    }
  }
  if (args.workload.empty()) return error = "--workload is required", false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse(argc, argv, args, error)) return usage(error.c_str());
  WorkloadFn fn = nullptr;
  if (args.workload == "serve_mixed") fn = run_serve_mixed;
  if (args.workload == "chip_negotiate") fn = run_chip_negotiate;
  if (fn == nullptr) return usage(("unknown workload " + args.workload).c_str());

  // Library progress logs go to stderr; stdout carries the report.
  oar::util::set_log_level(oar::util::LogLevel::kWarn);
  std::printf("perfbench %s seed %llu, %.1f s, trace %d\n", args.workload.c_str(),
              (unsigned long long)args.seed, args.seconds, args.trace ? 1 : 0);

  Report report;
  Tracer tracer;
  try {
    fn(args, report, args.trace ? &tracer : nullptr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  if (report.attempted <= 0) {
    std::fprintf(stderr, "perfbench: %s attempted nothing\n", args.workload.c_str());
    return 1;
  }

  if (args.trace) {
    finish_per_layer(report);
    if (!tracer.write_chrome_json(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::printf("  chrome://tracing JSON: %s\n", args.trace_out.c_str());
    for (const auto& [name, unit] : per_layer_metrics()) {
      std::printf("    %-36s %14.6g %s\n", name.c_str(), report.metrics[name].value,
                  unit.c_str());
    }
  } else {
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.set("ok_frac", 1.0 - double(report.failed) / double(report.attempted), "frac");
    for (const auto& [name, unit] : end_to_end_metrics()) {
      std::printf("    %-20s %14.6g %s\n", name.c_str(), report.metrics[name].value,
                  unit.c_str());
    }
  }
  std::printf("  attempted %lld, failed %lld\n", (long long)report.attempted,
              (long long)report.failed);
  for (const std::string& why : report.failures) std::printf("  FAILED: %s\n", why.c_str());
  std::printf("%s\n", result_json(report).c_str());
  return 0;
}
