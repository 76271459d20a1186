// Copyright 2026 The pkgstream Authors.
// perfbench: the repository benchmark program. Runs one workload through
// ThreadedRuntime's public API and prints human-readable notes followed by
// one JSON result line (the last line of standard output):
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH] [--tiny] [--corrupt drop|count]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// variant and reports the per-layer metrics. Exit status: 0 when every
// result checked out, 1 when a correctness check failed (the result line
// still says so), 2 when the configuration is refused.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--tiny] "
               "[--corrupt drop|count]\nworkloads:",
               why.c_str());
  for (const auto& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

uint64_t ParseUint(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || text[0] == '-') {
    Usage("bad value for " + flag + ": '" + text + "'");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      options.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = ParseUint(flag, value());
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(ParseUint(flag, value()));
    } else if (flag == "--trace") {
      const uint64_t t = ParseUint(flag, value());
      if (t > 1) Usage("--trace must be 0 or 1");
      options.trace = t == 1;
    } else if (flag == "--trace-out") {
      options.trace_out = value();
    } else if (flag == "--tiny") {
      options.tiny = true;
    } else if (flag == "--corrupt") {
      options.corrupt = value();
      if (options.corrupt != "drop" && options.corrupt != "count") {
        Usage("--corrupt must be drop or count");
      }
    } else {
      Usage("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload) Usage("--workload is required");

  perfbench::RunReport report;
  std::string error;
  if (!perfbench::RunWorkload(options, &report, &error)) {
    std::fprintf(stderr, "perfbench: refused: %s\n", error.c_str());
    return 2;
  }
  for (const auto& m : report.metrics) {
    // JSON has no NaN/Inf: a non-finite value is a broken measurement.
    if (!std::isfinite(m.value)) {
      ++report.failed;
      report.notes.push_back("FAILED check: " + m.name + " is not finite");
    }
  }
  for (const auto& note : report.notes) std::printf("# %s\n", note.c_str());
  const double failed_frac =
      report.attempted == 0 ? 1.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  std::printf("# failed_frac=%.3g (%llu of %llu attempted)\n", failed_frac,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const auto& m : report.metrics) {
    std::printf("# %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = report.failed == 0 && report.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : -1.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  if (!correct) {
    std::fprintf(stderr, "perfbench: FAILED: %llu wrong result(s) in %s\n",
                 static_cast<unsigned long long>(report.failed),
                 options.workload.c_str());
    return 1;
  }
  return 0;
}
