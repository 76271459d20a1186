// Copyright 2026 The pkgstream Authors.
// The three perfbench workloads and the phases every run goes through
// (see perfbench/README.md for why each workload exists and which layer
// each metric covers).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// \brief Command-line options of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics; true: per-layer metrics from a traced run.
  bool trace = false;
  /// Self-test scale: tiny inputs, a few hundred milliseconds per run.
  bool tiny = false;
  /// Self-test fault: "" (none), "drop" (one message is not injected) or
  /// "count" (one observed per-instance count is off by one).
  std::string corrupt;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string trace_out;
};

/// \brief One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// \brief Outcome of one run: the result line's fields plus human-readable
/// notes (host fingerprint, input checksums, sample counts, per-stage
/// breakdowns) printed before it.
struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
};

/// Names of the workloads, in the order BENCHMARK.json lists them.
std::vector<std::string> WorkloadNames();

/// Runs one workload. Returns false (with a message in `error`) when the
/// configuration is refused before anything is measured.
bool RunWorkload(const RunOptions& options, RunReport* report,
                 std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
