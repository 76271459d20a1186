// Copyright 2026 The pkgstream Authors.
// Open-loop load generation for ThreadedRuntime, with coordinated-omission-
// safe latency measurement (ROADMAP "sharded many-worker runtime with
// latency under load"; the paper's Section V cluster experiment measures
// latency, not just imbalance: "the average latency with KG is up to 45%
// larger than with PKG").
//
// The closed-loop injectors used by the scaling benches inject as fast as
// the system accepts: when a hot worker backs up, backpressure slows the
// injector, the offered load silently adapts, and queueing delay never
// shows up in the numbers (coordinated omission). The OpenLoopDriver is
// the opposite: the offered load is fixed up front as a
// workload::ArrivalSchedule — per-message scheduled arrival times — and
// the driver injects against that schedule via InjectBatch, never
// re-planning when the system falls behind. Every message is stamped with
// its *scheduled* arrival time in Message::ts, and latency is measured
// from that stamp, so time a message spent waiting to even be injected
// (backpressure on a full ring, an injector running late) counts against
// the tail instead of flattering it.
//
// Latency recording (LatencySink) supports two service models:
//
//  * kVirtualService — the sink advances a per-instance virtual completion
//    clock: start = max(ts, next_free), next_free = start + service_us,
//    latency = next_free - ts. This is the Lindley recursion of a
//    single-server queue with deterministic service, driven by the
//    *scheduled* arrivals — per-worker capacity is exactly 1e6/service_us
//    msgs/sec by construction, independent of host speed, scheduler noise
//    or sanitizer slowdown. With a single spout instance the per-sink
//    arrival order equals injection order, so the recorded histograms are
//    bit-deterministic: bench_latency_under_load commits its p50/p99/p999
//    as baseline-gated deterministic metrics.
//  * kWallClock — latency = (wall time at processing) - ts against the
//    shared OpenLoopClock, optionally burning service_spin_us of real CPU
//    per message. Host-dependent; used by the stress tests to exercise
//    real backpressure end to end.
//
// Per-instance LatencyHistograms are merged after Finish() (the runtime's
// thread joins order the sink state before GetOperator access).

#ifndef PKGSTREAM_ENGINE_OPEN_LOOP_H_
#define PKGSTREAM_ENGINE_OPEN_LOOP_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/fault_injection.h"
#include "engine/threaded_runtime.h"
#include "stats/latency_histogram.h"
#include "workload/arrival_schedule.h"
#include "workload/key_stream.h"

namespace pkgstream {
namespace engine {

/// \brief Monotonic run clock shared by the driver and wall-clock sinks.
/// Microseconds since construction (the run epoch, schedule time 0).
class OpenLoopClock {
 public:
  OpenLoopClock() : epoch_(std::chrono::steady_clock::now()) {}

  uint64_t NowMicros() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
};

/// \brief Latency-recording sink operator (see file comment for the two
/// service models).
class LatencySink final : public Operator {
 public:
  enum class ServiceModel {
    kVirtualService,  ///< deterministic Lindley recursion on Message::ts
    kWallClock,       ///< wall-clock latency against the run clock
  };

  struct Options {
    ServiceModel model = ServiceModel::kVirtualService;
    /// kVirtualService: deterministic service time per message; the
    /// instance's capacity is exactly 1e6/service_us msgs/sec (0 = infinite
    /// capacity, latency 0 — useful to isolate schedule replay).
    uint64_t service_us = 0;
    /// kWallClock: real CPU burned per message (0 = none).
    uint64_t service_spin_us = 0;
    /// kWallClock: the run clock (required; must outlive the sink).
    const OpenLoopClock* clock = nullptr;
    /// Histogram geometry (all instances must agree for Merge).
    uint64_t histogram_max_us = 1ULL << 30;
    uint32_t histogram_sub_buckets = 32;
    /// kVirtualService only: this instance's stall/slowdown windows from
    /// the plan (instance index == worker id) are folded into the Lindley
    /// recursion — a stall is a server vacation (service cannot start
    /// inside the window), a slowdown multiplies the service time of
    /// messages starting inside it. Virtual-time driven, so determinism is
    /// preserved. Must outlive the sink.
    const FaultPlan* fault_plan = nullptr;
    /// Ascending virtual-time boundaries splitting the run into
    /// boundaries+1 phases by *scheduled arrival* (e.g. steady / outage /
    /// recovery). Every latency is additionally recorded into its phase's
    /// histogram (same geometry), so per-phase quantiles — p99 during the
    /// outage vs after recovery — are first-class metrics.
    std::vector<uint64_t> phase_boundaries_us;
  };

  explicit LatencySink(Options options);

  void Open(const OperatorContext& ctx) override;
  void Process(const Message& msg, Emitter* out) override;
  uint64_t MemoryCounters() const override { return 0; }

  /// Valid after ThreadedRuntime::Finish().
  const stats::LatencyHistogram& histogram() const { return histogram_; }

  /// Number of phases (phase_boundaries_us.size() + 1; 1 when unset).
  size_t phases() const { return options_.phase_boundaries_us.size() + 1; }

  /// Valid after Finish(): the latency histogram of phase `p` (only when
  /// phase_boundaries_us was set).
  const stats::LatencyHistogram& phase_histogram(size_t p) const;

  /// Merges the histograms of all `parallelism` LatencySink instances of
  /// `sink` (must be the runtime's operator node built from MakeFactory).
  static stats::LatencyHistogram MergedHistogram(ThreadedRuntime* rt,
                                                 NodeId sink,
                                                 uint32_t parallelism,
                                                 const Options& options);

  /// Per-phase MergedHistogram (requires phase_boundaries_us).
  static stats::LatencyHistogram MergedPhaseHistogram(ThreadedRuntime* rt,
                                                      NodeId sink,
                                                      uint32_t parallelism,
                                                      const Options& options,
                                                      size_t phase);

  /// OperatorFactory building one LatencySink per instance.
  static OperatorFactory MakeFactory(Options options);

 private:
  /// Phase of a scheduled arrival time (linear scan; boundaries are few).
  size_t PhaseOf(uint64_t scheduled_us) const;

  Options options_;
  stats::LatencyHistogram histogram_;
  uint64_t next_free_us_ = 0;  // kVirtualService completion clock
  /// This instance's stall/slowdown windows (loaded at Open from the
  /// plan), and the monotone cursor into them — service start times never
  /// decrease, so one forward-only cursor visits each window once.
  std::vector<FaultPlan::ServiceWindow> windows_;
  size_t window_pos_ = 0;
  /// Per-phase histograms (empty when phase_boundaries_us is unset).
  std::vector<stats::LatencyHistogram> phase_hists_;
};

/// \brief Options for the open-loop driver.
struct OpenLoopOptions {
  /// Follow the schedule on the wall clock (sleep until each arrival is
  /// due; messages already due are injected together). A paced source
  /// calls ThreadedRuntime::Flush before every wait and once when its
  /// schedule runs out, so a message never sits in a partial emit batch
  /// while its injector idles. When false, the whole schedule is replayed
  /// as fast as possible and never flushed (Finish publishes the rest) —
  /// arrival stamps and kVirtualService latencies are identical either
  /// way; only the wall metrics differ.
  bool pace = true;
  /// Max messages per InjectBatch call (and schedule/key lookahead).
  size_t max_batch = 256;
};

/// \brief Per-source result of an open-loop run.
struct OpenLoopSourceReport {
  uint64_t injected = 0;           ///< messages injected (== spec.messages)
  uint64_t last_scheduled_us = 0;  ///< schedule time of the final message
  /// Max (inject completion wall time - scheduled time) over all batches:
  /// how far the injector fell behind its schedule (backpressure or an
  /// overloaded host). Meaningful when pacing; unpaced runs report the
  /// trivially large replay lead/lag.
  uint64_t max_lag_us = 0;
  /// Batches that were already past their scheduled time before injection
  /// started (the open-loop "never slow down" path was exercised).
  uint64_t late_batches = 0;
  /// Per-message inject lag, max(0, inject completion wall time -
  /// scheduled time): one Record per injected message, so the quantiles
  /// distinguish a single spike (p99 near 0, max large) from sustained
  /// backpressure (p99 comparable to max) — the max alone cannot. Wall-
  /// clock derived, so host-dependent: report as host_metrics only.
  stats::LatencyHistogram lag_histogram{1ULL << 30, 32};
  /// The run was aborted (ThreadedRuntime::Abort) before the schedule
  /// completed; `injected` counts only what went out before the abort.
  bool aborted = false;
  /// Crash/rejoin reconfigurations this injector applied from its fault
  /// plan (== plan->routing_events().size() on a completed run).
  uint64_t reconfigs_applied = 0;
};

/// \brief Drives one spout of a ThreadedRuntime from per-source arrival
/// schedules and key streams, one injector thread per source.
class OpenLoopDriver {
 public:
  /// One spout instance's load: `messages` keys from `keys`, arriving at
  /// `schedule`'s times. Both pointers must outlive Run().
  struct Source {
    SourceId source = 0;
    workload::ArrivalSchedule* schedule = nullptr;
    workload::KeyStream* keys = nullptr;
    uint64_t messages = 0;
    /// Optional fault plan: the injector applies each crash/rejoin event
    /// through ThreadedRuntime::ReconfigureWorkers(fault_target, ...)
    /// exactly before the first message whose *scheduled* arrival is
    /// >= the event time, and splits injection batches at those
    /// boundaries — so the reconfiguration point in the message sequence
    /// is a pure function of the schedule (byte-deterministic, paced or
    /// not). Must outlive Run().
    const FaultPlan* faults = nullptr;
    /// The downstream node whose workers the plan crashes/rejoins.
    NodeId fault_target{};
  };

  /// `clock` is the shared run epoch (schedule time 0 = clock construction;
  /// build the clock, then the runtime, then Run soon after).
  OpenLoopDriver(ThreadedRuntime* rt, NodeId spout, const OpenLoopClock* clock,
                 OpenLoopOptions options = {});

  /// Runs every source to completion (one thread each; blocks until all
  /// schedules are fully injected). Does not call Finish() — callers may
  /// run several waves, then Finish.
  std::vector<OpenLoopSourceReport> Run(const std::vector<Source>& sources);

 private:
  OpenLoopSourceReport RunSource(const Source& source);
  void WaitUntil(uint64_t target_us) const;

  ThreadedRuntime* rt_;
  NodeId spout_;
  const OpenLoopClock* clock_;
  OpenLoopOptions options_;
};

}  // namespace engine
}  // namespace pkgstream

#endif  // PKGSTREAM_ENGINE_OPEN_LOOP_H_
