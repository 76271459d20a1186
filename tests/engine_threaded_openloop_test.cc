// Copyright 2026 The pkgstream Authors.
// Tests for the open-loop driver + latency sink (engine/open_loop.h) on the
// ThreadedRuntime. Suite names contain "Threaded" so the CI thread-sanitizer
// job (ctest -R 'Threaded|SpscRing') runs every test here under TSan: the
// injector threads, the ring handoff of ts-stamped messages, and the
// post-Finish histogram merge are all exercised with real concurrency.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/open_loop.h"
#include "engine/threaded_runtime.h"
#include "partition/factory.h"
#include "workload/arrival_schedule.h"
#include "workload/static_distribution.h"
#include "workload/zipf.h"

namespace pkgstream {
namespace engine {
namespace {

std::shared_ptr<const workload::StaticDistribution> TestDist() {
  return std::make_shared<const workload::StaticDistribution>(
      workload::ZipfWeights(100, 1.0), "zipf(1.0,K=100)");
}

struct RunOutcome {
  stats::LatencyHistogram hist{1ULL << 30, 32};
  uint64_t processed = 0;
  std::vector<OpenLoopSourceReport> reports;
};

/// One spout (parallelism = sources.size()) -> `workers` LatencySinks.
RunOutcome RunOpenLoop(const LatencySink::Options& sink_options,
                       partition::Technique technique, uint32_t workers,
                       std::vector<OpenLoopDriver::Source> sources,
                       const OpenLoopOptions& driver_options,
                       const OpenLoopClock* clock, size_t queue_capacity) {
  Topology topology;
  NodeId spout =
      topology.AddSpout("src", static_cast<uint32_t>(sources.size()));
  NodeId sink = topology.AddOperator(
      "sink", LatencySink::MakeFactory(sink_options), workers);
  EXPECT_TRUE(topology.Connect(spout, sink, technique, /*seed=*/42).ok());
  ThreadedRuntimeOptions rt_options;
  rt_options.queue_capacity = queue_capacity;
  auto rt = ThreadedRuntime::Create(&topology, rt_options);
  EXPECT_TRUE(rt.ok()) << rt.status();
  OpenLoopDriver driver(rt->get(), spout, clock, driver_options);
  RunOutcome out;
  out.reports = driver.Run(sources);
  (*rt)->Finish();
  out.hist =
      LatencySink::MergedHistogram(rt->get(), sink, workers, sink_options);
  for (uint64_t n : (*rt)->Processed(sink)) out.processed += n;
  return out;
}

TEST(ThreadedOpenLoopTest, VirtualServiceMatchesLindleyRecursion) {
  // One worker, constant arrivals every 50us, deterministic service 100us:
  // the queue grows by 50us per message, so latency_i = 100 + 50*i exactly.
  const uint64_t n = 100;
  OpenLoopClock clock;
  LatencySink::Options sink_options;
  sink_options.service_us = 100;
  workload::ConstantRateSchedule schedule(20000.0);  // gap 50us
  workload::IidKeyStream keys(TestDist(), 7);
  OpenLoopDriver::Source source;
  source.source = 0;
  source.schedule = &schedule;
  source.keys = &keys;
  source.messages = n;
  OpenLoopOptions driver_options;
  driver_options.pace = false;
  RunOutcome out =
      RunOpenLoop(sink_options, partition::Technique::kShuffle, /*workers=*/1,
                  {source}, driver_options, &clock, /*queue_capacity=*/1024);
  EXPECT_EQ(out.processed, n);
  ASSERT_EQ(out.hist.count(), n);
  EXPECT_EQ(out.hist.min(), 100u);                    // first message
  EXPECT_EQ(out.hist.max(), 100 + 50 * (n - 1));      // last message
  EXPECT_DOUBLE_EQ(out.hist.mean(),
                   100.0 + 50.0 * static_cast<double>(n - 1) / 2.0);
  EXPECT_EQ(out.hist.saturated(), 0u);
}

TEST(ThreadedOpenLoopTest, ZeroServiceRecordsZeroLatency) {
  const uint64_t n = 500;
  OpenLoopClock clock;
  LatencySink::Options sink_options;  // service_us = 0
  workload::PoissonSchedule schedule(50000.0, 3);
  workload::IidKeyStream keys(TestDist(), 3);
  OpenLoopDriver::Source source{0, &schedule, &keys, n};
  OpenLoopOptions driver_options;
  driver_options.pace = false;
  RunOutcome out =
      RunOpenLoop(sink_options, partition::Technique::kPkgLocal, 4, {source},
                  driver_options, &clock, 1024);
  EXPECT_EQ(out.hist.count(), n);
  EXPECT_EQ(out.hist.max(), 0u);
}

/// Merged-histogram fingerprint for determinism comparisons.
struct Fingerprint {
  uint64_t count, min, max, p50, p95, p99, p999, saturated;
  double mean;
  bool operator==(const Fingerprint& o) const {
    return count == o.count && min == o.min && max == o.max && p50 == o.p50 &&
           p95 == o.p95 && p99 == o.p99 && p999 == o.p999 &&
           saturated == o.saturated && mean == o.mean;
  }
};

Fingerprint FingerprintOf(const stats::LatencyHistogram& h) {
  return {h.count(), h.min(),  h.max(),       h.P50(),  h.P95(),
          h.P99(),   h.P999(), h.saturated(), h.mean()};
}

Fingerprint RunPoissonCell(bool pace) {
  // 20k/s offered to 4 workers of capacity 1/75us ~ 13.3k/s each: the KG
  // hot worker queues, so latencies are nontrivial and order-sensitive —
  // a real determinism probe, not a wall of zeros.
  OpenLoopClock clock;
  LatencySink::Options sink_options;
  sink_options.service_us = 75;
  workload::PoissonSchedule schedule(20000.0, 11);
  workload::IidKeyStream keys(TestDist(), 11);
  OpenLoopDriver::Source source{0, &schedule, &keys, 3000};
  OpenLoopOptions driver_options;
  driver_options.pace = pace;
  RunOutcome out =
      RunOpenLoop(sink_options, partition::Technique::kHashing, 4, {source},
                  driver_options, &clock, 1024);
  EXPECT_EQ(out.processed, 3000u);
  return FingerprintOf(out.hist);
}

TEST(ThreadedOpenLoopTest, UnpacedRunsAreBitDeterministic) {
  // Single source: each sink sees the injection-order subsequence of the
  // scheduled arrivals regardless of thread interleaving, so the Lindley
  // latencies — and every histogram statistic — replay exactly.
  EXPECT_EQ(RunPoissonCell(false), RunPoissonCell(false));
}

TEST(ThreadedOpenLoopTest, PacedAndUnpacedYieldIdenticalLatencies) {
  // Latency is computed from the *scheduled* ts stamps, and the virtual
  // service model never reads the wall clock: whether the injector slept
  // until each arrival or replayed the schedule flat out must not move a
  // single bucket. (This is the coordinated-omission guard: injection
  // timing cannot flatter or inflate the measured tail.)
  EXPECT_EQ(RunPoissonCell(true), RunPoissonCell(false));
}

TEST(ThreadedOpenLoopTest, PacedDriverReportsScheduleLag) {
  // A schedule living entirely in the past (all arrivals at t=0-ish, rate
  // far beyond injectable) forces the paced driver down its "never slow
  // down" path: late batches must be counted, not silently absorbed.
  OpenLoopClock clock;
  LatencySink::Options sink_options;
  sink_options.service_us = 1;
  workload::ConstantRateSchedule schedule(1e9);  // everything due at once
  workload::IidKeyStream keys(TestDist(), 5);
  OpenLoopDriver::Source source{0, &schedule, &keys, 5000};
  OpenLoopOptions driver_options;
  driver_options.pace = true;
  RunOutcome out =
      RunOpenLoop(sink_options, partition::Technique::kShuffle, 2, {source},
                  driver_options, &clock, 64);
  EXPECT_EQ(out.reports[0].injected, 5000u);
  EXPECT_GE(out.reports[0].late_batches, 1u);
  EXPECT_EQ(out.processed, 5000u);
}

TEST(ThreadedOpenLoopTest, PacedSparseTrafficIsNotHeldInEmitBatches) {
  // A few messages 20 ms apart spread over 4 wall-clock sinks never fill
  // a default emit batch; the paced driver publishes before each wait, so
  // each is delivered in far less than the gap instead of at Finish.
  // Latency counts from the scheduled time, so an injector that overslept
  // (a loaded or sanitizer-slowed host) adds its own lag; that lag is
  // allowed for, the time spent buffered is not.
  const uint64_t n = 6;
  OpenLoopClock clock;
  LatencySink::Options sink_options;
  sink_options.model = LatencySink::ServiceModel::kWallClock;
  sink_options.clock = &clock;
  workload::ConstantRateSchedule schedule(50.0);  // gap 20 ms
  workload::IidKeyStream keys(TestDist(), 13);
  OpenLoopDriver::Source source{0, &schedule, &keys, n};
  OpenLoopOptions driver_options;
  driver_options.pace = true;
  RunOutcome out =
      RunOpenLoop(sink_options, partition::Technique::kShuffle, 4, {source},
                  driver_options, &clock, 1024);
  EXPECT_EQ(out.processed, n);
  ASSERT_EQ(out.hist.count(), n);
  EXPECT_LT(out.hist.max(), out.reports[0].max_lag_us + 10000u)
      << "a message waited for its batch";
}

TEST(ThreadedOpenLoopStressTest, MultiSourceWallClockBackpressure) {
  // The TSan workhorse: several injector threads racing real wall-clock
  // sinks through tiny rings (forced backpressure), every message's ts
  // stamp crossing a ring. Wall-clock latencies are host-dependent; what
  // must hold: nothing lost, nothing negative, per-source reports sane.
  const uint32_t kSources = 4;
  const uint64_t kPerSource = 2000;
  OpenLoopClock clock;
  LatencySink::Options sink_options;
  sink_options.model = LatencySink::ServiceModel::kWallClock;
  sink_options.clock = &clock;
  std::vector<std::unique_ptr<workload::ArrivalSchedule>> schedules;
  std::vector<std::unique_ptr<workload::IidKeyStream>> key_streams;
  std::vector<OpenLoopDriver::Source> sources;
  auto dist = TestDist();
  for (uint32_t s = 0; s < kSources; ++s) {
    schedules.push_back(
        std::make_unique<workload::PoissonSchedule>(100000.0, 100 + s));
    key_streams.push_back(std::make_unique<workload::IidKeyStream>(dist, s));
    OpenLoopDriver::Source src;
    src.source = s;
    src.schedule = schedules.back().get();
    src.keys = key_streams.back().get();
    src.messages = kPerSource;
    sources.push_back(src);
  }
  OpenLoopOptions driver_options;
  driver_options.pace = false;
  driver_options.max_batch = 32;
  RunOutcome out = RunOpenLoop(sink_options, partition::Technique::kPkgLocal,
                               4, sources, driver_options, &clock,
                               /*queue_capacity=*/16);
  EXPECT_EQ(out.processed, kSources * kPerSource);
  EXPECT_EQ(out.hist.count(), kSources * kPerSource);
  for (const auto& r : out.reports) {
    EXPECT_EQ(r.injected, kPerSource);
    EXPECT_GT(r.last_scheduled_us, 0u);
  }
}

TEST(ThreadedOpenLoopStressTest, PacedMultiSourceVirtualService) {
  // Paced injectors (real sleeps) + virtual-service sinks: the latency
  // metrics must still conserve counts even with wall-clock pacing in the
  // loop. Short schedules keep the paced run quick (~50ms).
  const uint32_t kSources = 2;
  const uint64_t kPerSource = 500;
  OpenLoopClock clock;
  LatencySink::Options sink_options;
  sink_options.service_us = 20;
  std::vector<std::unique_ptr<workload::ArrivalSchedule>> schedules;
  std::vector<std::unique_ptr<workload::IidKeyStream>> key_streams;
  std::vector<OpenLoopDriver::Source> sources;
  auto dist = TestDist();
  for (uint32_t s = 0; s < kSources; ++s) {
    schedules.push_back(std::make_unique<workload::OnOffSchedule>(
        40000.0, 1000.0, 5000, 5000, 200 + s));
    key_streams.push_back(
        std::make_unique<workload::IidKeyStream>(dist, 50 + s));
    OpenLoopDriver::Source src;
    src.source = s;
    src.schedule = schedules.back().get();
    src.keys = key_streams.back().get();
    src.messages = kPerSource;
    sources.push_back(src);
  }
  OpenLoopOptions driver_options;
  driver_options.pace = true;
  RunOutcome out = RunOpenLoop(sink_options, partition::Technique::kShuffle,
                               3, sources, driver_options, &clock, 256);
  EXPECT_EQ(out.processed, kSources * kPerSource);
  EXPECT_EQ(out.hist.count(), kSources * kPerSource);
  EXPECT_EQ(out.hist.saturated(), 0u);
}

}  // namespace
}  // namespace engine
}  // namespace pkgstream
