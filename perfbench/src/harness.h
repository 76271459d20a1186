// Copyright 2026 The pkgstream Authors.
// Benchmark-side instrumentation for perfbench: a span tracer, a timing
// wrapper around the real operators, and small statistics and host
// helpers. Nothing here is part of the pkgstream
// library; the benchmark times the library's public API from outside.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/operator.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-message calls (Process, InjectBatch) are timed once every
/// kSampleEvery calls; counts stay exact.
inline constexpr uint64_t kSampleEvery = 64;

/// \brief One traced interval. `parent` is the id of the enclosing span
/// (-1 for a root); `tid` is 0 for the main thread, 1 + instance index for
/// operator instances.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t id = -1;
  int64_t parent = -1;
  uint32_t tid = 0;
};

/// \brief In-memory span store, written once at exit. Main-thread spans
/// are recorded directly; operator instances keep their own span buffers
/// and hand them over after the runtime has joined its threads.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span now and returns its id (-1 when disabled).
  int64_t Begin(const char* name, int64_t parent = -1);
  /// Closes span `id` now (no-op for -1).
  void End(int64_t id);
  /// Records a finished span; returns its id.
  int64_t Add(const char* name, uint64_t start_ns, uint64_t end_ns,
              int64_t parent, uint32_t tid = 0);
  /// Takes over (and clears) spans recorded off the main thread, giving
  /// each a fresh id.
  void Absorb(std::vector<Span>* spans);

  size_t size() const { return spans_.size(); }
  /// Writes every span as one JSON array; returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  int64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// \brief What every MeasuredOperator of one run shares. Owned by the run;
/// outlives the runtime.
struct RunHooks {
  /// Open-loop runs: record every processed message's delivery delay,
  /// NowNs() - epoch_ns - Message::ts (ts is the scheduled arrival in
  /// microseconds since the run's OpenLoopClock epoch; epoch_ns is read
  /// right after that clock is built).
  bool record_latency = false;
  uint64_t epoch_ns = 0;
  /// Sample Process timings and keep spans.
  bool trace = false;
  /// The enclosing run span (parent of the Process/Close spans).
  int64_t parent_span = -1;
};

/// Sampled Process spans kept per operator instance and run (the timing
/// sums use every sample).
inline constexpr size_t kMaxSpansPerInstance = 16;

/// \brief Timing wrapper around a real operator: forwards every call,
/// counts messages exactly, records open-loop delivery delay, and in traced
/// runs times every kSampleEvery-th Process call and every Close.
class MeasuredOperator final : public pkgstream::engine::Operator {
 public:
  MeasuredOperator(std::unique_ptr<pkgstream::engine::Operator> inner,
                   const RunHooks* hooks, uint32_t tid)
      : inner_(std::move(inner)), hooks_(hooks), tid_(tid) {}

  void Open(const pkgstream::engine::OperatorContext& ctx) override {
    inner_->Open(ctx);
  }
  void Process(const pkgstream::engine::Message& msg,
               pkgstream::engine::Emitter* out) override;
  void Close(pkgstream::engine::Emitter* out) override;
  uint64_t MemoryCounters() const override {
    return inner_->MemoryCounters();
  }

  pkgstream::engine::Operator* inner() { return inner_.get(); }
  uint64_t processed() const { return processed_; }
  /// Exact Process calls that were timed, and their total duration.
  uint64_t sampled() const { return sampled_; }
  uint64_t sampled_ns() const { return sampled_ns_; }
  uint64_t close_ns() const { return close_ns_; }
  /// MemoryCounters() right before Close (partial-count state is flushed
  /// and cleared by Close).
  uint64_t state_before_close() const { return state_before_close_; }
  const std::vector<double>& latencies_us() const { return latencies_us_; }
  std::vector<Span>* spans() { return &spans_; }

 private:
  std::unique_ptr<pkgstream::engine::Operator> inner_;
  const RunHooks* hooks_;
  uint32_t tid_;
  uint64_t processed_ = 0;
  uint64_t sampled_ = 0;
  uint64_t sampled_ns_ = 0;
  uint64_t close_ns_ = 0;
  uint64_t state_before_close_ = 0;
  std::vector<double> latencies_us_;
  std::vector<Span> spans_;
};

/// Median (of a copy); 0 for an empty input.
double Median(std::vector<double> values);
/// Quantile q in [0, 1] by linear interpolation (reorders `values`).
double Quantile(std::vector<double>* values, double q);

/// CPUs this process may run on (sched_getaffinity; falls back to
/// hardware_concurrency).
unsigned AvailableCpus();
/// CPU model string from cpuid ("unknown" where unavailable).
std::string CpuModel();
/// Peak resident set size of this process so far, in MiB (getrusage).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
