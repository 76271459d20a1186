// Copyright 2026 The pkgstream Authors.
// Tests for the threaded runtime: the concurrent execution must preserve
// the aggregate results the deterministic LogicalRuntime defines.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "apps/wordcount.h"
#include "engine/logical_runtime.h"
#include "engine/threaded_runtime.h"
#include "workload/static_distribution.h"
#include "workload/zipf.h"

namespace pkgstream {
namespace engine {
namespace {

TEST(ThreadedRuntimeTest, RejectsTickPeriods) {
  apps::WordCountTopology wc = apps::MakeWordCountTopology(
      partition::Technique::kShuffle, 1, 2, /*tick=*/100, 5, 42);
  EXPECT_TRUE(
      ThreadedRuntime::Create(&wc.topology).status().IsInvalidArgument());
}

TEST(ThreadedRuntimeTest, RejectsZeroCapacity) {
  apps::WordCountTopology wc = apps::MakeWordCountTopology(
      partition::Technique::kShuffle, 1, 2, 0, 5, 42);
  ThreadedRuntimeOptions options;
  options.queue_capacity = 0;
  EXPECT_TRUE(ThreadedRuntime::Create(&wc.topology, options)
                  .status()
                  .IsInvalidArgument());
}

// Regression: a failed Init() (partitioner config rejected at runtime
// construction) used to leave a partially-built runtime whose destructor
// walked mailboxes and inject mutexes that were never created.
TEST(ThreadedRuntimeTest, CreateFailsCleanlyOnBadPartitionerConfig) {
  Topology topo;
  NodeId spout = topo.AddSpout("src", 2);
  NodeId sink = topo.AddOperator(
      "sink",
      [](uint32_t) {
        return std::make_unique<apps::WordCountCounter>(
            apps::CounterMode::kPartialCounts, 5);
      },
      2);
  partition::PartitionerConfig config;
  config.technique = partition::Technique::kOffGreedy;  // needs frequencies
  ASSERT_TRUE(topo.Connect(spout, sink, config).ok());
  auto rt = ThreadedRuntime::Create(&topo);
  EXPECT_TRUE(rt.status().IsFailedPrecondition());
  // No crash on destruction of the failed Result.
}

TEST(ThreadedRuntimeTest, EmptyRunShutsDownCleanly) {
  apps::WordCountTopology wc = apps::MakeWordCountTopology(
      partition::Technique::kPkgLocal, 2, 4, 0, 5, 42);
  auto rt = ThreadedRuntime::Create(&wc.topology);
  ASSERT_TRUE(rt.ok());
  (*rt)->Finish();  // no messages at all
  auto* agg = static_cast<apps::TopKAggregator*>(
      (*rt)->GetOperator(wc.aggregator, 0));
  EXPECT_TRUE(agg->totals().empty());
}

/// Word-count totals must be exact under every technique, regardless of
/// thread interleaving.
class ThreadedWordCountTest
    : public testing::TestWithParam<partition::Technique> {};

TEST_P(ThreadedWordCountTest, TotalsExactUnderConcurrency) {
  apps::WordCountTopology wc =
      apps::MakeWordCountTopology(GetParam(), /*sources=*/4, /*workers=*/4,
                                  /*tick=*/0, /*topk=*/5, 42);
  auto rt = ThreadedRuntime::Create(&wc.topology);
  ASSERT_TRUE(rt.ok());

  // 4 injector threads, one per source instance, hammering concurrently.
  constexpr int kPerSource = 20000;
  constexpr int kKeys = 37;
  std::vector<std::thread> injectors;
  for (SourceId s = 0; s < 4; ++s) {
    injectors.emplace_back([&, s] {
      for (int i = 0; i < kPerSource; ++i) {
        Message m;
        m.key = static_cast<Key>((i + s) % kKeys);
        m.tag = apps::kTagWord;
        (*rt)->Inject(wc.spout, s, m);
      }
    });
  }
  for (auto& t : injectors) t.join();
  (*rt)->Finish();

  auto* agg = static_cast<apps::TopKAggregator*>(
      (*rt)->GetOperator(wc.aggregator, 0));
  uint64_t total = 0;
  for (const auto& [key, count] : agg->totals()) {
    EXPECT_LT(key, static_cast<Key>(kKeys));
    total += count;
  }
  EXPECT_EQ(total, 4ull * kPerSource);
  // Every key was injected the same number of times by symmetry.
  for (const auto& [key, count] : agg->totals()) {
    EXPECT_NEAR(static_cast<double>(count), 4.0 * kPerSource / kKeys,
                4.0 * kPerSource / kKeys * 0.05)
        << "key " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Techniques, ThreadedWordCountTest,
    testing::Values(partition::Technique::kHashing,
                    partition::Technique::kShuffle,
                    partition::Technique::kPkgLocal,
                    partition::Technique::kPkgGlobal),
    [](const testing::TestParamInfo<partition::Technique>& info) {
      std::string name = partition::TechniqueName(info.param);
      for (char& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name;
    });

TEST(ThreadedRuntimeTest, ProcessedCountsConserveMessages) {
  apps::WordCountTopology wc = apps::MakeWordCountTopology(
      partition::Technique::kPkgLocal, 1, 3, 0, 5, 42);
  auto rt = ThreadedRuntime::Create(&wc.topology);
  ASSERT_TRUE(rt.ok());
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    Message m;
    m.key = static_cast<Key>(i % 11);
    m.tag = apps::kTagWord;
    (*rt)->Inject(wc.spout, 0, m);
  }
  (*rt)->Finish();
  auto counter_loads = (*rt)->Processed(wc.counter);
  uint64_t counter_total = 0;
  for (uint64_t l : counter_loads) counter_total += l;
  EXPECT_EQ(counter_total, static_cast<uint64_t>(n));
}

TEST(ThreadedRuntimeTest, MatchesLogicalRuntimeTotals) {
  auto run_logical = [] {
    apps::WordCountTopology wc = apps::MakeWordCountTopology(
        partition::Technique::kHashing, 1, 4, 0, 5, 42);
    auto rt = LogicalRuntime::Create(&wc.topology);
    EXPECT_TRUE(rt.ok());
    auto dist = std::make_shared<workload::StaticDistribution>(
        workload::ZipfWeights(100, 1.1), "zipf");
    workload::IidKeyStream stream(dist, 7);
    for (int i = 0; i < 20000; ++i) {
      Message m;
      m.key = stream.Next();
      m.tag = apps::kTagWord;
      (*rt)->Inject(wc.spout, 0, m);
    }
    (*rt)->Finish();
    auto* agg = static_cast<apps::TopKAggregator*>(
        (*rt)->GetOperator(wc.aggregator, 0));
    return std::map<Key, uint64_t>(agg->totals().begin(),
                                   agg->totals().end());
  };
  auto run_threaded = [] {
    apps::WordCountTopology wc = apps::MakeWordCountTopology(
        partition::Technique::kHashing, 1, 4, 0, 5, 42);
    auto rt = ThreadedRuntime::Create(&wc.topology);
    EXPECT_TRUE(rt.ok());
    auto dist = std::make_shared<workload::StaticDistribution>(
        workload::ZipfWeights(100, 1.1), "zipf");
    workload::IidKeyStream stream(dist, 7);
    for (int i = 0; i < 20000; ++i) {
      Message m;
      m.key = stream.Next();
      m.tag = apps::kTagWord;
      (*rt)->Inject(wc.spout, 0, m);
    }
    (*rt)->Finish();
    auto* agg = static_cast<apps::TopKAggregator*>(
        (*rt)->GetOperator(wc.aggregator, 0));
    return std::map<Key, uint64_t>(agg->totals().begin(),
                                   agg->totals().end());
  };
  EXPECT_EQ(run_logical(), run_threaded());
}

TEST(ThreadedRuntimeTest, BackpressureSmallQueuesStillComplete) {
  apps::WordCountTopology wc = apps::MakeWordCountTopology(
      partition::Technique::kShuffle, 2, 3, 0, 5, 42);
  ThreadedRuntimeOptions options;
  options.queue_capacity = 2;  // brutal backpressure
  auto rt = ThreadedRuntime::Create(&wc.topology, options);
  ASSERT_TRUE(rt.ok());
  std::vector<std::thread> injectors;
  for (SourceId s = 0; s < 2; ++s) {
    injectors.emplace_back([&, s] {
      for (int i = 0; i < 3000; ++i) {
        Message m;
        m.key = static_cast<Key>(i % 5);
        m.tag = apps::kTagWord;
        (*rt)->Inject(wc.spout, s, m);
      }
    });
  }
  for (auto& t : injectors) t.join();
  (*rt)->Finish();
  auto* agg = static_cast<apps::TopKAggregator*>(
      (*rt)->GetOperator(wc.aggregator, 0));
  uint64_t total = 0;
  for (const auto& [_, count] : agg->totals()) total += count;
  EXPECT_EQ(total, 6000u);
}

TEST(ThreadedRuntimeTest, FinishIsIdempotent) {
  apps::WordCountTopology wc = apps::MakeWordCountTopology(
      partition::Technique::kShuffle, 1, 2, 0, 5, 42);
  auto rt = ThreadedRuntime::Create(&wc.topology);
  ASSERT_TRUE(rt.ok());
  (*rt)->Finish();
  (*rt)->Finish();  // no crash, no double EOS
}

/// Counts every message into a shared atomic (readable while the runtime
/// runs) and checks that its own arrivals keep injection order (`i64`
/// carries the injection index).
class FlushProbe final : public Operator {
 public:
  explicit FlushProbe(std::atomic<uint64_t>* seen) : seen_(seen) {}

  void Process(const Message& msg, Emitter* out) override {
    (void)out;
    if (msg.i64 <= last_) out_of_order_ = true;
    last_ = msg.i64;
    seen_->fetch_add(1, std::memory_order_relaxed);
  }

  bool out_of_order() const { return out_of_order_; }

 private:
  std::atomic<uint64_t>* seen_;
  int64_t last_ = -1;
  bool out_of_order_ = false;
};

/// One spout -> four FlushProbes with emit_batch = 64, so a handful of
/// messages never fills a batch; the parameter is the shard count.
class ThreadedFlushTest : public testing::TestWithParam<size_t> {
 protected:
  static constexpr uint32_t kSinks = 4;

  void SetUp() override {
    spout_ = topology_.AddSpout("src", 1);
    sink_ = topology_.AddOperator(
        "sink",
        [this](uint32_t) { return std::make_unique<FlushProbe>(&seen_); },
        kSinks);
    ASSERT_TRUE(
        topology_.Connect(spout_, sink_, partition::Technique::kShuffle).ok());
    ThreadedRuntimeOptions options;
    options.emit_batch = 64;
    options.shards = GetParam();
    auto rt = ThreadedRuntime::Create(&topology_, options);
    ASSERT_TRUE(rt.ok()) << rt.status();
    rt_ = std::move(*rt);
  }

  /// Injects messages [next_, next_ + n) as one batch.
  void InjectNext(size_t n) {
    std::vector<Message> msgs(n);
    for (Message& m : msgs) {
      m.key = next_;
      m.i64 = static_cast<int64_t>(next_++);
    }
    rt_->InjectBatch(spout_, 0, msgs.data(), n);
  }

  /// Bounded poll until the probes together have seen `n` messages.
  uint64_t AwaitSeen(uint64_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (seen_.load(std::memory_order_relaxed) < n &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return seen_.load(std::memory_order_relaxed);
  }

  /// After Finish: totals and per-probe injection order.
  void ExpectCompleteAndOrdered() {
    uint64_t processed = 0;
    for (uint64_t n : rt_->Processed(sink_)) processed += n;
    EXPECT_EQ(processed, next_);
    EXPECT_EQ(seen_.load(), next_);
    for (uint32_t i = 0; i < kSinks; ++i) {
      auto* probe = static_cast<FlushProbe*>(rt_->GetOperator(sink_, i));
      EXPECT_FALSE(probe->out_of_order()) << "sink " << i;
    }
  }

  std::atomic<uint64_t> seen_{0};
  Topology topology_;
  NodeId spout_;
  NodeId sink_;
  std::unique_ptr<ThreadedRuntime> rt_;
  uint64_t next_ = 0;
};

TEST_P(ThreadedFlushTest, FlushPublishesPartialBatchesBeforeFinish) {
  // Without the flush these messages would sit in partial batches of 64
  // until Finish, and the polls would time out.
  InjectNext(5);
  rt_->Flush(spout_, 0);
  EXPECT_EQ(AwaitSeen(5), 5u);
  InjectNext(3);
  rt_->Flush(spout_, 0);
  EXPECT_EQ(AwaitSeen(8), 8u);
  rt_->Flush(spout_, 0);  // nothing buffered: a no-op
  rt_->Finish();
  ExpectCompleteAndOrdered();
}

TEST_P(ThreadedFlushTest, ConcurrentFlushAndInjectOnOneSource) {
  // Flush serializes with InjectBatch on the source's lock: racing them
  // must lose, duplicate and reorder nothing.
  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    while (!stop.load(std::memory_order_acquire)) rt_->Flush(spout_, 0);
  });
  for (int round = 0; round < 300; ++round) InjectNext(7);
  stop.store(true, std::memory_order_release);
  flusher.join();
  rt_->Finish();
  ExpectCompleteAndOrdered();
}

INSTANTIATE_TEST_SUITE_P(Modes, ThreadedFlushTest, testing::Values(0u, 2u),
                         [](const testing::TestParamInfo<size_t>& info) {
                           return "Shards" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace engine
}  // namespace pkgstream
