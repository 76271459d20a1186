// Copyright 2026 The pkgstream Authors.

#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "apps/wordcount.h"
#include "common/hash.h"
#include "common/simd.h"
#include "engine/logical_runtime.h"
#include "engine/open_loop.h"
#include "engine/threaded_runtime.h"
#include "harness.h"
#include "partition/factory.h"
#include "workload/arrival_schedule.h"
#include "workload/dataset.h"

namespace perfbench {
namespace {

using pkgstream::Key;
using pkgstream::WorkerId;
namespace engine = pkgstream::engine;
namespace partition = pkgstream::partition;
namespace workload = pkgstream::workload;

// ---------------------------------------------------------------------------
// Workload table
// ---------------------------------------------------------------------------

enum class Shape {
  kWordCount,     // sources -> counters (partial counts) -> 1 aggregator
  kLatencySinks,  // sources -> wall-clock LatencySinks
};

struct Spec {
  const char* name;
  Shape shape;
  workload::DatasetId dataset;
  uint32_t sources;
  uint32_t workers;
  uint64_t closed_messages;  // per closed-loop pass, over all sources
  double fixed_rate;         // msgs/s of the fixed-rate open-loop run
};

const Spec kSpecs[] = {
    {"wordcount_wp", Shape::kWordCount, workload::DatasetId::kWP, 4, 16,
     4000000, 100000},
    {"openloop_tw_w64", Shape::kLatencySinks, workload::DatasetId::kTW, 1, 64,
     4000000, 50000},
};

/// Both workloads route their keyed edge with PKG-L, the paper's deployable
/// scheme (word count's counter -> aggregator edge is key grouping).
constexpr partition::Technique kTechnique = partition::Technique::kPkgLocal;

/// Threads: one injector (the main thread in closed loop, OpenLoopDriver's
/// source thread in open loop) plus the shard threads.
constexpr uint32_t kInjectors = 1;
constexpr size_t kShards = 2;
/// Messages per InjectBatch call (closed loop) and OpenLoopDriver batch.
constexpr size_t kInjectBatch = 256;
/// Chunk of the standalone routing replay (ThreadedRuntime routes an
/// injected batch in chunks of this size too).
constexpr size_t kRouteChunk = 256;
/// Traced closed loop: ApproxInboxDepth is sampled every this many batches.
constexpr uint64_t kBacklogEvery = 16;
/// The fixed-rate open-loop run is split into this many segments, each on a
/// fresh runtime; latency quantiles are the medians over segments.
constexpr size_t kFixedSegments = 9;
/// Share of --seconds spent on closed-loop passes and fixed-rate segments
/// (the fixed-rate schedule itself lasts kFixedShare of it).
constexpr double kMeasureShare = 0.75;
constexpr double kFixedShare = 0.25;
constexpr size_t kMaxPasses = 48;

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::exit(2);
}

template <typename T>
T Unwrap(pkgstream::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).ValueOrDie();
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------------------------
// Inputs: generated from the seed and materialised before any timing
// ---------------------------------------------------------------------------

struct Inputs {
  std::vector<std::vector<Key>> keys;  // closed loop, per source
  std::vector<uint64_t> schedule;      // fixed-rate open loop arrivals (us)
  uint64_t key_space = 0;
  uint64_t key_checksum = 0;
  uint64_t schedule_checksum = 0;
  uint64_t gen_ns = 0;  // inside KeyStream::NextBatch / NextBatchMicros
  uint64_t generated = 0;
};

uint64_t Checksum(const uint64_t* data, size_t n, uint64_t acc) {
  for (size_t i = 0; i < n; ++i) acc = pkgstream::HashCombine(acc, data[i]);
  return acc;
}

uint64_t KeySeed(uint64_t seed) { return pkgstream::HashCombine(seed, 0x6B6579); }
uint64_t ScheduleSeed(uint64_t seed) {
  return pkgstream::HashCombine(seed, 0x7363686564ULL);
}

Inputs Generate(const Spec& spec, uint64_t seed, uint64_t closed_messages,
                uint64_t fixed_messages) {
  Inputs in;
  // The Table I stand-in scaled to one closed-loop pass: the key space
  // shrinks with the message count, so m/K and p1 stay the paper's.
  const workload::DatasetSpec& dataset = workload::GetDataset(spec.dataset);
  const double scale = static_cast<double>(closed_messages) /
                       static_cast<double>(dataset.paper_messages);
  auto stream = Unwrap(workload::MakeKeyStream(dataset, scale, KeySeed(seed)),
                       "key stream");
  in.key_space = workload::ScaledKeys(dataset, scale);
  in.keys.resize(spec.sources);
  const uint64_t per_source = closed_messages / spec.sources;
  for (uint32_t s = 0; s < spec.sources; ++s) {
    in.keys[s].resize(per_source);
    const uint64_t t0 = NowNs();
    stream->NextBatch(in.keys[s].data(), per_source);
    in.gen_ns += NowNs() - t0;
    in.key_checksum =
        Checksum(in.keys[s].data(), per_source, in.key_checksum);
  }
  in.schedule.resize(fixed_messages);
  workload::PoissonSchedule schedule(spec.fixed_rate, ScheduleSeed(seed));
  const uint64_t t0 = NowNs();
  schedule.NextBatchMicros(in.schedule.data(), fixed_messages);
  in.gen_ns += NowNs() - t0;
  in.schedule_checksum = Checksum(in.schedule.data(), in.schedule.size(), 0);
  in.generated = per_source * spec.sources + fixed_messages;
  return in;
}

/// The open-loop key sequence: source 0's keys from `offset` on, repeated
/// as needed.
std::vector<Key> CyclicKeys(const std::vector<Key>& keys, size_t offset,
                            size_t n) {
  std::vector<Key> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = keys[(offset + i) % keys.size()];
  return out;
}

/// Replays a materialised arrival vector into OpenLoopDriver.
class VectorSchedule final : public workload::ArrivalSchedule {
 public:
  explicit VectorSchedule(const std::vector<uint64_t>* times) : times_(times) {}
  uint64_t NextMicros() override { return (*times_)[pos_++]; }
  void NextBatchMicros(uint64_t* out, size_t n) override {
    std::copy_n(times_->begin() + static_cast<std::ptrdiff_t>(pos_), n, out);
    pos_ += n;
  }
  std::string Name() const override { return "replay"; }

 private:
  const std::vector<uint64_t>* times_;
  size_t pos_ = 0;
};

/// Replays a materialised key vector into OpenLoopDriver.
class VectorKeyStream final : public workload::KeyStream {
 public:
  explicit VectorKeyStream(const std::vector<Key>* keys) : keys_(keys) {}
  Key Next() override { return (*keys_)[pos_++]; }
  void NextBatch(Key* out, size_t n) override {
    std::copy_n(keys_->begin() + static_cast<std::ptrdiff_t>(pos_), n, out);
    pos_ += n;
  }
  uint64_t KeySpace() const override { return 0; }
  std::string Name() const override { return "replay"; }

 private:
  const std::vector<Key>* keys_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Topology: the real operators, each behind a MeasuredOperator
// ---------------------------------------------------------------------------

struct Built {
  engine::Topology topology;
  engine::NodeId spout;
  engine::NodeId stage1;  // the keyed stage fed by the spout
  engine::NodeId stage2;  // word count's aggregator
  bool has_stage2 = false;
};

template <typename Make>
engine::OperatorFactory Wrapped(const RunHooks* hooks, uint32_t tid_base,
                                Make make) {
  return [hooks, tid_base, make](uint32_t i) {
    return std::make_unique<MeasuredOperator>(make(), hooks, tid_base + i);
  };
}

std::unique_ptr<Built> BuildTopology(const Spec& spec, const RunHooks* hooks,
                                     const engine::OpenLoopClock* clock) {
  auto b = std::make_unique<Built>();
  b->spout = b->topology.AddSpout("spout", spec.sources);
  switch (spec.shape) {
    case Shape::kWordCount: {
      using pkgstream::apps::CounterMode;
      b->stage1 = b->topology.AddOperator(
          "counter", Wrapped(hooks, 1, [] {
            return std::make_unique<pkgstream::apps::WordCountCounter>(
                CounterMode::kPartialCounts, 10);
          }),
          spec.workers);
      b->stage2 = b->topology.AddOperator(
          "aggregator", Wrapped(hooks, 1 + spec.workers, [] {
            return std::make_unique<pkgstream::apps::TopKAggregator>(
                CounterMode::kPartialCounts, 10);
          }),
          1);
      b->has_stage2 = true;
      break;
    }
    case Shape::kLatencySinks: {
      engine::LatencySink::Options options;
      options.model = engine::LatencySink::ServiceModel::kWallClock;
      options.service_spin_us = 0;
      options.clock = clock;
      b->stage1 = b->topology.AddOperator(
          "sink", Wrapped(hooks, 1, [options] {
            return std::make_unique<engine::LatencySink>(options);
          }),
          spec.workers);
      break;
    }
  }
  // Library-default partitioner seeds: the hash family is configuration,
  // not input, so it stays fixed while --seed varies the keys.
  if (!b->topology.Connect(b->spout, b->stage1, kTechnique).ok() ||
      (b->has_stage2 &&
       !b->topology
            .Connect(b->stage1, b->stage2, partition::Technique::kHashing, 43)
            .ok())) {
    Die("connect");
  }
  return b;
}

engine::ThreadedRuntimeOptions RuntimeOptions() {
  engine::ThreadedRuntimeOptions options;  // library defaults, except:
  options.shards = kShards;                // set explicitly (thread budget)
  return options;
}

template <typename Runtime>
MeasuredOperator* Op(Runtime* rt, engine::NodeId node, uint32_t i) {
  return static_cast<MeasuredOperator*>(rt->GetOperator(node, i));
}

// ---------------------------------------------------------------------------
// Results and the reference they are checked against
// ---------------------------------------------------------------------------

/// What a run produced, read back after Finish.
struct Observed {
  std::vector<uint64_t> counts;     // per stage-1 instance (operator view)
  std::vector<uint64_t> engine;     // per stage-1 instance (Processed())
  std::unordered_map<Key, uint64_t> totals;  // word-count aggregator
  uint64_t latency_samples = 0;
  uint64_t sink_histogram_count = 0;  // LatencySink's own histograms
};

/// What a run must produce.
struct Expected {
  std::vector<uint64_t> counts;
  std::unordered_map<Key, uint64_t> totals;
  bool check_totals = false;
};

template <typename Runtime>
Observed Collect(const Spec& spec, const Built& b, Runtime* rt) {
  Observed o;
  for (uint32_t i = 0; i < spec.workers; ++i) {
    MeasuredOperator* op = Op(rt, b.stage1, i);
    o.counts.push_back(op->processed());
    o.latency_samples += op->latencies_us().size();
    if (spec.shape == Shape::kLatencySinks) {
      o.sink_histogram_count +=
          static_cast<engine::LatencySink*>(op->inner())->histogram().count();
    }
  }
  if (b.has_stage2) {
    auto* agg = static_cast<pkgstream::apps::TopKAggregator*>(
        Op(rt, b.stage2, 0)->inner());
    o.totals = agg->totals();
  }
  return o;
}

/// Number of wrong results: per-instance count differences and per-key
/// total differences.
uint64_t Mismatches(const Expected& want, const Observed& got,
                    std::vector<std::string>* notes, const char* where) {
  uint64_t bad = 0;
  auto absdiff = [](uint64_t a, uint64_t b) { return a > b ? a - b : b - a; };
  for (size_t i = 0; i < want.counts.size(); ++i) {
    const uint64_t c = i < got.counts.size() ? got.counts[i] : 0;
    bad += absdiff(want.counts[i], c);
    if (i < got.engine.size()) bad += absdiff(got.engine[i], c);
  }
  if (want.check_totals) {
    for (const auto& [key, count] : want.totals) {
      auto it = got.totals.find(key);
      bad += absdiff(count, it == got.totals.end() ? 0 : it->second);
    }
    for (const auto& [key, count] : got.totals) {
      if (want.totals.find(key) == want.totals.end()) bad += count;
    }
  }
  if (bad > 0) {
    notes->push_back(std::string("FAILED check: ") + where + ": " +
                     std::to_string(bad) + " wrong result(s)");
  }
  return bad;
}

/// Standalone routing replay on fresh replicas (one per source, built
/// exactly as the runtime builds its own): expected per-worker counts, and
/// the time spent inside RouteBatch.
struct Replay {
  std::vector<uint64_t> counts;
  uint64_t route_ns = 0;
  uint64_t messages = 0;
  double replication = 0;  // distinct (key, worker) pairs / distinct keys
};

Replay ReplayRouting(const partition::PartitionerConfig& config,
                     const std::vector<const std::vector<Key>*>& per_source,
                     bool replication, Tracer* tracer, int64_t parent) {
  auto replicas = Unwrap(
      partition::MakePartitionerReplicas(config, config.sources), "replicas");
  Replay r;
  r.counts.assign(config.workers, 0);
  std::unordered_set<uint64_t> pairs;
  std::unordered_set<Key> keys;
  WorkerId out[kRouteChunk];
  uint64_t chunks = 0;
  for (uint32_t s = 0; s < per_source.size(); ++s) {
    const std::vector<Key>& in = *per_source[s];
    for (size_t done = 0; done < in.size(); done += kRouteChunk) {
      const size_t len = std::min(kRouteChunk, in.size() - done);
      const uint64_t t0 = NowNs();
      replicas[s]->RouteBatch(s, in.data() + done, out, len);
      const uint64_t t1 = NowNs();
      r.route_ns += t1 - t0;
      if (++chunks % kSampleEvery == 0) {
        tracer->Add("partition.RouteBatch", t0, t1, parent);
      }
      for (size_t j = 0; j < len; ++j) {
        ++r.counts[out[j]];
        if (replication) {
          keys.insert(in[done + j]);
          pairs.insert(pkgstream::HashCombine(in[done + j], out[j]));
        }
      }
    }
    r.messages += in.size();
  }
  if (replication && !keys.empty()) {
    r.replication =
        static_cast<double>(pairs.size()) / static_cast<double>(keys.size());
  }
  return r;
}

// ---------------------------------------------------------------------------
// Closed loop: one injector drives every source round-robin
// ---------------------------------------------------------------------------

/// Feeds source s its first limit[s] keys, the sources taking turns, at
/// most kInjectBatch messages per `inject(s, msgs, n)` call. Returns the
/// number of messages injected.
template <typename Inject>
uint64_t InjectRoundRobin(const std::vector<std::vector<Key>>& keys,
                          const std::vector<size_t>& limit, Inject inject) {
  std::vector<engine::Message> batch(kInjectBatch);
  std::vector<size_t> pos(keys.size(), 0);
  uint64_t injected = 0;
  for (bool more = true; more;) {
    more = false;
    for (uint32_t s = 0; s < keys.size(); ++s) {
      const size_t n = std::min(kInjectBatch, limit[s] - pos[s]);
      if (n == 0) continue;
      for (size_t j = 0; j < n; ++j) batch[j].key = keys[s][pos[s] + j];
      inject(s, batch.data(), n);
      pos[s] += n;
      injected += n;
      more = more || pos[s] < limit[s];
    }
  }
  return injected;
}

struct ClosedPass {
  uint64_t injected = 0;
  uint64_t wall_ns = 0;    // first inject -> Finish returns
  uint64_t inject_ns = 0;  // inside InjectBatch (traced passes)
  uint64_t finish_ns = 0;
  std::vector<double> backlog;  // ApproxInboxDepth samples (traced)
  Observed observed;
  // apps layer (traced passes)
  uint64_t sampled = 0;
  uint64_t sampled_ns = 0;
  std::vector<double> busy_frac;  // per stage-1 instance
  uint64_t close_ns = 0;          // summed over all instances
  uint64_t state_keys = 0;        // summed over all instances, before Close
  double throughput() const {
    return static_cast<double>(injected) / Seconds(wall_ns);
  }
};

ClosedPass RunClosedPass(const Spec& spec, const Inputs& in,
                         bool traced, bool drop_one, Tracer* tracer) {
  ClosedPass p;
  const int64_t pass_span = tracer->Begin(traced ? "closed_pass.traced"
                                                 : "closed_pass.untraced");
  RunHooks hooks;
  hooks.trace = traced;
  hooks.parent_span = pass_span;
  engine::OpenLoopClock clock;  // LatencySink needs one; unused here
  auto b = BuildTopology(spec, &hooks, &clock);
  const uint64_t c0 = NowNs();
  auto rt = Unwrap(engine::ThreadedRuntime::Create(&b->topology,
                                                   RuntimeOptions()),
                   "ThreadedRuntime::Create");
  tracer->Add("engine.Create", c0, NowNs(), pass_span);

  std::vector<size_t> limit;
  for (const auto& keys : in.keys) limit.push_back(keys.size());
  if (drop_one) --limit[0];
  uint64_t batches = 0;
  const uint64_t t0 = NowNs();
  p.injected = InjectRoundRobin(
      in.keys, limit, [&](uint32_t s, const engine::Message* msgs, size_t n) {
        if (!traced) {
          rt->InjectBatch(b->spout, s, msgs, n);
          return;
        }
        const uint64_t i0 = NowNs();
        rt->InjectBatch(b->spout, s, msgs, n);
        const uint64_t i1 = NowNs();
        p.inject_ns += i1 - i0;
        if (batches % kSampleEvery == 0) {
          tracer->Add("engine.InjectBatch", i0, i1, pass_span);
        }
        if (batches % kBacklogEvery == 0) {
          size_t depth = rt->ApproxInboxDepth(b->stage1);
          if (b->has_stage2) depth += rt->ApproxInboxDepth(b->stage2);
          p.backlog.push_back(static_cast<double>(depth));
        }
        ++batches;
      });
  const uint64_t f0 = NowNs();
  rt->Finish();
  const uint64_t t1 = NowNs();
  p.wall_ns = t1 - t0;
  p.finish_ns = t1 - f0;
  tracer->Add("engine.Finish", f0, t1, pass_span);

  p.observed = Collect(spec, *b, rt.get());
  p.observed.engine = rt->Processed(b->stage1);
  const uint32_t stages = b->has_stage2 ? 2 : 1;
  for (uint32_t stage = 0; stage < stages; ++stage) {
    const engine::NodeId node = stage == 0 ? b->stage1 : b->stage2;
    const uint32_t n = stage == 0 ? spec.workers : 1;
    for (uint32_t i = 0; i < n; ++i) {
      MeasuredOperator* op = Op(rt.get(), node, i);
      p.close_ns += op->close_ns();
      p.state_keys += op->state_before_close();
      if (stage == 0) {
        p.sampled += op->sampled();
        p.sampled_ns += op->sampled_ns();
      }
      tracer->Absorb(op->spans());
    }
  }
  if (traced) {
    const double per_msg =
        p.sampled > 0 ? static_cast<double>(p.sampled_ns) /
                            static_cast<double>(p.sampled)
                      : 0.0;
    for (uint32_t i = 0; i < spec.workers; ++i) {
      MeasuredOperator* op = Op(rt.get(), b->stage1, i);
      const double own = op->sampled() > 0
                             ? static_cast<double>(op->sampled_ns()) /
                                   static_cast<double>(op->sampled())
                             : per_msg;
      p.busy_frac.push_back(own * static_cast<double>(op->processed()) /
                            static_cast<double>(p.wall_ns));
    }
  }
  tracer->End(pass_span);
  return p;
}

// ---------------------------------------------------------------------------
// Open loop: OpenLoopDriver paces source 0 against a Poisson schedule
// ---------------------------------------------------------------------------

struct OpenRun {
  uint64_t injected = 0;
  uint64_t processed = 0;
  double p50_us = 0;
  double p99_us = 0;
  double lag_p99_us = 0;
  double lag_mean_us = 0;
  uint64_t late_batches = 0;
  Observed observed;
};

OpenRun RunOpenLoop(const Spec& spec, const std::vector<Key>& keys,
                    const std::vector<uint64_t>& schedule, bool traced,
                    Tracer* tracer) {
  OpenRun r;
  const int64_t run_span = tracer->Begin("open_loop_run");
  RunHooks hooks;
  hooks.record_latency = true;
  hooks.trace = traced;
  hooks.parent_span = run_span;
  engine::OpenLoopClock clock;
  auto b = BuildTopology(spec, &hooks, &clock);
  auto rt = Unwrap(engine::ThreadedRuntime::Create(&b->topology,
                                                   RuntimeOptions()),
                   "ThreadedRuntime::Create");
  // Schedule time 0 is now, not before Create: no operator reads the clock
  // before the first injected message reaches it.
  clock = engine::OpenLoopClock();
  hooks.epoch_ns = NowNs();

  engine::OpenLoopOptions driver_options;
  driver_options.pace = true;
  driver_options.max_batch = kInjectBatch;
  engine::OpenLoopDriver driver(rt.get(), b->spout, &clock, driver_options);
  VectorSchedule sched(&schedule);
  VectorKeyStream key_stream(&keys);
  engine::OpenLoopDriver::Source source;
  source.source = 0;
  source.schedule = &sched;
  source.keys = &key_stream;
  source.messages = schedule.size();
  const uint64_t d0 = NowNs();
  const auto reports = driver.Run({source});
  const uint64_t f0 = NowNs();
  rt->Finish();
  const uint64_t f1 = NowNs();
  tracer->Add("driver.Run", d0, f0, run_span);
  tracer->Add("engine.Finish", f0, f1, run_span);

  const engine::OpenLoopSourceReport& rep = reports[0];
  r.injected = rep.injected;
  r.late_batches = rep.late_batches;
  r.lag_p99_us = static_cast<double>(rep.lag_histogram.P99());
  r.lag_mean_us = rep.lag_histogram.mean();
  r.observed = Collect(spec, *b, rt.get());
  r.observed.engine = rt->Processed(b->stage1);
  std::vector<double> latencies;
  latencies.reserve(r.observed.latency_samples);
  for (uint32_t i = 0; i < spec.workers; ++i) {
    MeasuredOperator* op = Op(rt.get(), b->stage1, i);
    r.processed += op->processed();
    latencies.insert(latencies.end(), op->latencies_us().begin(),
                     op->latencies_us().end());
    tracer->Absorb(op->spans());
  }
  if (b->has_stage2) tracer->Absorb(Op(rt.get(), b->stage2, 0)->spans());
  r.p50_us = Quantile(&latencies, 0.50);
  r.p99_us = Quantile(&latencies, 0.99);
  tracer->End(run_span);
  return r;
}

/// Expected stage-1 result of an open-loop run: the replay of source 0's
/// keys on a fresh replica, plus (word count) the exact per-key totals.
Expected ExpectOpenLoop(const Spec& spec,
                        const partition::PartitionerConfig& config,
                        const std::vector<Key>& keys, Tracer* tracer) {
  const Replay replay =
      ReplayRouting(config, {&keys}, /*replication=*/false, tracer, -1);
  Expected want;
  want.counts = replay.counts;
  if (spec.shape == Shape::kWordCount) {
    want.check_totals = true;
    for (Key k : keys) ++want.totals[k];
  }
  return want;
}

// ---------------------------------------------------------------------------
// Reference: the same job, single-threaded, on LogicalRuntime
// ---------------------------------------------------------------------------

struct Reference {
  double msgs_per_sec = 0;
  std::vector<uint64_t> counts;  // stage-1 processed per instance
  std::unordered_map<Key, uint64_t> totals;
};

Reference RunReference(const Spec& spec, const Inputs& in,
                       Tracer* tracer) {
  const int64_t span = tracer->Begin("reference.LogicalRuntime");
  RunHooks hooks;
  engine::OpenLoopClock clock;
  auto b = BuildTopology(spec, &hooks, &clock);
  auto rt = Unwrap(engine::LogicalRuntime::Create(&b->topology),
                   "LogicalRuntime::Create");
  std::vector<size_t> limit;
  for (const auto& keys : in.keys) limit.push_back(keys.size());
  const uint64_t t0 = NowNs();
  const uint64_t injected = InjectRoundRobin(
      in.keys, limit, [&](uint32_t s, const engine::Message* msgs, size_t n) {
        rt->InjectBatch(b->spout, s, msgs, n);
      });
  rt->Finish();
  const uint64_t t1 = NowNs();
  Reference ref;
  ref.msgs_per_sec = static_cast<double>(injected) / Seconds(t1 - t0);
  const Observed o = Collect(spec, *b, rt.get());
  ref.counts = o.counts;
  ref.totals = o.totals;
  tracer->End(span);
  return ref;
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

std::string Fmt(const char* format, double a) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a);
  return buf;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Spec& s : kSpecs) names.emplace_back(s.name);
  return names;
}

bool RunWorkload(const RunOptions& opt, RunReport* report,
                 std::string* error) {
  const Spec* found = FindSpec(opt.workload);
  if (found == nullptr) {
    *error = "unknown workload '" + opt.workload + "'";
    return false;
  }
  Spec spec = *found;
  const unsigned cpus = AvailableCpus();
  if (kInjectors + kShards > cpus) {
    *error = "thread budget: " + std::to_string(kInjectors) + " injector + " +
             std::to_string(kShards) + " shard threads exceed the " +
             std::to_string(cpus) + " available CPUs";
    return false;
  }
  if (opt.seconds <= 0) {
    *error = "--seconds must be > 0";
    return false;
  }
  if (opt.tiny) {
    spec.closed_messages = std::max<uint64_t>(spec.sources * 10000,
                                              spec.closed_messages / 400);
  }
  auto& notes = report->notes;
  Tracer tracer(opt.trace);
  const uint64_t run_start = NowNs();
  auto elapsed = [&] { return Seconds(NowNs() - run_start); };

  notes.push_back("host: cpus=" + std::to_string(cpus) + " cpu=\"" +
                  CpuModel() + "\" simd=" +
                  pkgstream::simd::SimdLevelName(
                      pkgstream::simd::ActiveSimdLevel()) +
                  " threads=" + std::to_string(kInjectors) + " injector + " +
                  std::to_string(kShards) + " shards");

  // ---- set-up: generate inputs and create the runtime, several times ----
  const double fixed_seconds = opt.tiny ? 0.2 : kFixedShare * opt.seconds;
  const uint64_t fixed_messages =
      static_cast<uint64_t>(spec.fixed_rate * fixed_seconds);
  const int setup_reps = opt.tiny ? 2 : 5;
  std::vector<double> setup_s, create_s, gen_ns_per_msg;
  Inputs in;
  uint64_t first_key_checksum = 0;
  uint64_t first_schedule_checksum = 0;
  for (int rep = 0; rep < setup_reps; ++rep) {
    in = Inputs();  // release the previous repetition's buffers first
    const int64_t span = tracer.Begin("setup");
    const uint64_t t0 = NowNs();
    in = Generate(spec, opt.seed, spec.closed_messages, fixed_messages);
    const uint64_t t1 = NowNs();
    tracer.Add("workload.generate", t0, t1, span);
    RunHooks hooks;
    engine::OpenLoopClock clock;
    auto b = BuildTopology(spec, &hooks, &clock);
    const uint64_t c0 = NowNs();
    auto rt = Unwrap(engine::ThreadedRuntime::Create(&b->topology,
                                                     RuntimeOptions()),
                     "ThreadedRuntime::Create");
    const uint64_t c1 = NowNs();
    tracer.Add("engine.Create", c0, c1, span);
    tracer.End(span);
    setup_s.push_back(Seconds(c1 - t0));
    create_s.push_back(Seconds(c1 - c0));
    gen_ns_per_msg.push_back(static_cast<double>(in.gen_ns) /
                             static_cast<double>(in.generated));
    rt->Finish();
    // The same seed must give the same input every time.
    if (rep == 0) {
      first_key_checksum = in.key_checksum;
      first_schedule_checksum = in.schedule_checksum;
    } else if (in.key_checksum != first_key_checksum ||
               in.schedule_checksum != first_schedule_checksum) {
      ++report->failed;
      notes.push_back("FAILED check: input generation is not repeatable");
    }
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "inputs: seed=%llu messages=%llu key_space=%llu "
                "key_checksum=%016llx "
                "schedule=%zu schedule_checksum=%016llx input_mb=%.1f",
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(spec.closed_messages /
                                                spec.sources * spec.sources),
                static_cast<unsigned long long>(in.key_space),
                static_cast<unsigned long long>(in.key_checksum),
                in.schedule.size(),
                static_cast<unsigned long long>(in.schedule_checksum),
                static_cast<double>(in.generated * 8) / (1 << 20));
  notes.push_back(line);

  // ---- expected results: standalone routing replay ----
  engine::OpenLoopClock unused_clock;
  RunHooks no_hooks;
  const auto topo = BuildTopology(spec, &no_hooks, &unused_clock);
  const partition::PartitionerConfig route_config =
      topo->topology.edges()[0].partitioner;
  std::vector<const std::vector<Key>*> per_source;
  for (const auto& k : in.keys) per_source.push_back(&k);
  const int64_t replay_span = tracer.Begin("partition.replay");
  const Replay replay =
      ReplayRouting(route_config, per_source, opt.trace, &tracer, replay_span);
  tracer.End(replay_span);
  Expected closed_want;
  closed_want.counts = replay.counts;

  // ---- measurement: closed-loop passes interleaved with the fixed-rate
  // open-loop segments, so that both sample the whole measured span ----
  // Closed loop: each pass on a fresh runtime; throughput is the median.
  // Open loop: consecutive segments of the fixed-rate schedule, each on a
  // fresh runtime; latency quantiles are medians over the segments.
  const size_t segments = opt.tiny ? 2 : kFixedSegments;
  const double budget = opt.tiny ? 0.0 : kMeasureShare * opt.seconds;
  const size_t min_passes = std::max<size_t>(segments, opt.trace ? 4 : 3);
  std::vector<ClosedPass> untraced, traced;
  Observed first_pass;
  std::vector<double> p50s, p99s, lag_p99s, lag_means;
  uint64_t samples = 0;
  uint64_t late_batches = 0;
  uint64_t fixed_injected = 0;
  auto run_segment = [&](size_t k) {
    const size_t begin = in.schedule.size() * k / segments;
    const size_t end = in.schedule.size() * (k + 1) / segments;
    std::vector<uint64_t> schedule(in.schedule.begin() + begin,
                                   in.schedule.begin() + end);
    for (uint64_t& t : schedule) t -= in.schedule[begin];
    const auto keys = CyclicKeys(in.keys[0], begin, end - begin);
    const OpenRun run = RunOpenLoop(spec, keys, schedule, opt.trace, &tracer);
    const Expected want = ExpectOpenLoop(spec, route_config, keys, &tracer);
    report->attempted += schedule.size();
    report->failed += Mismatches(want, run.observed, &notes,
                                 "fixed-rate open loop vs replay");
    uint64_t bad = run.injected == schedule.size() ? 0 : 1;
    if (run.observed.latency_samples != run.injected) ++bad;
    if (spec.shape == Shape::kLatencySinks &&
        run.observed.sink_histogram_count != run.injected) {
      ++bad;
    }
    if (bad > 0) notes.push_back("FAILED check: latency sample counts");
    report->failed += bad;
    p50s.push_back(run.p50_us);
    p99s.push_back(run.p99_us);
    lag_p99s.push_back(run.lag_p99_us);
    lag_means.push_back(run.lag_mean_us);
    samples += run.observed.latency_samples;
    late_batches += run.late_batches;
    fixed_injected += run.injected;
  };
  const double measure_start = elapsed();
  for (size_t i = 0; i < kMaxPasses; ++i) {
    if (i >= min_passes && elapsed() - measure_start >= budget) break;
    const bool trace_pass = opt.trace && i % 2 == 1;
    const bool drop = opt.corrupt == "drop" && i == 0;
    ClosedPass p = RunClosedPass(spec, in, trace_pass, drop, &tracer);
    if (opt.corrupt == "count" && i == 0) ++p.observed.counts[0];
    report->attempted += spec.closed_messages / spec.sources * spec.sources;
    report->failed += Mismatches(closed_want, p.observed, &notes,
                                 "closed loop vs routing replay");
    // Only the first pass's results are kept (for the reference check), so
    // that stored results do not grow the peak RSS pass by pass.
    if (i == 0) first_pass = std::move(p.observed);
    p.observed = Observed();
    (trace_pass ? traced : untraced).push_back(std::move(p));
    if (i < segments) run_segment(i);
  }
  const double peak_rss_mb = PeakRssMb();

  std::vector<double> throughputs;
  for (const auto& p : untraced) throughputs.push_back(p.throughput());
  const double throughput = Median(throughputs);
  const std::vector<uint64_t>& loads = first_pass.counts;
  const double mean_load =
      static_cast<double>(std::accumulate(loads.begin(), loads.end(),
                                          uint64_t{0})) /
      static_cast<double>(loads.size());
  const double max_load =
      static_cast<double>(*std::max_element(loads.begin(), loads.end()));
  std::string per_pass = "closed loop: msg/s per pass:";
  for (double t : throughputs) per_pass += Fmt(" %.0f", t);
  notes.push_back(per_pass);
  notes.push_back(Fmt("closed loop: passes=%.0f", static_cast<double>(
                                                      untraced.size())) +
                  Fmt(" throughput_median=%.0f msg/s", throughput) +
                  Fmt(" imbalance=%.6g", (max_load - mean_load) / mean_load));
  const double p50_us = Median(p50s);
  const double p99_us = Median(p99s);
  std::string per_segment = "open loop: p99 us per segment:";
  for (double v : p99s) per_segment += Fmt(" %.0f", v);
  notes.push_back(per_segment);
  notes.push_back(Fmt("open loop: rate=%.0f msg/s", spec.fixed_rate) +
                  Fmt(" segments=%.0f", static_cast<double>(segments)) +
                  Fmt(" samples=%.0f", static_cast<double>(samples)) +
                  Fmt(" p50=%.1f us", p50_us) + Fmt(" p99=%.1f us", p99_us) +
                  Fmt(" inject_lag_p99=%.0f us", Median(lag_p99s)));

  // ---- reference: LogicalRuntime on the same input ----
  const Reference ref = RunReference(spec, in, &tracer);
  {
    Expected want;
    Observed got = std::move(first_pass);
    got.engine.clear();
    want.counts = ref.counts;
    if (spec.shape == Shape::kWordCount) {
      want.check_totals = true;
      want.totals = ref.totals;
    }
    report->failed += Mismatches(want, got, &notes,
                                 "closed loop vs LogicalRuntime");
  }
  notes.push_back(Fmt("reference: LogicalRuntime %.0f msg/s",
                      ref.msgs_per_sec));

  auto add = [&](const char* name, double value, const char* unit) {
    report->metrics.push_back(Metric{name, value, unit});
  };
  if (!opt.trace) {
    add("throughput_msg_s", throughput, "msg/s");
    add("latency_p50_us", p50_us, "us");
    add("latency_p99_us", p99_us, "us");
    add("max_load_ratio", max_load / mean_load, "ratio");
    add("setup_s", Median(setup_s), "s");
    add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    std::vector<double> inject, finish, close, bl_max, bl_mean, proc, busy_max,
        busy_mean, traced_thr;
    double state_keys = 0;
    for (const auto& p : traced) {
      inject.push_back(static_cast<double>(p.inject_ns) /
                       static_cast<double>(p.injected));
      finish.push_back(Seconds(p.finish_ns));
      close.push_back(Seconds(p.close_ns));
      const std::vector<double>& b = p.backlog;
      bl_max.push_back(b.empty() ? 0 : *std::max_element(b.begin(), b.end()));
      bl_mean.push_back(b.empty() ? 0
                                  : std::accumulate(b.begin(), b.end(), 0.0) /
                                        static_cast<double>(b.size()));
      proc.push_back(p.sampled > 0 ? static_cast<double>(p.sampled_ns) /
                                         static_cast<double>(p.sampled)
                                   : 0);
      busy_max.push_back(
          *std::max_element(p.busy_frac.begin(), p.busy_frac.end()));
      busy_mean.push_back(
          std::accumulate(p.busy_frac.begin(), p.busy_frac.end(), 0.0) /
          static_cast<double>(p.busy_frac.size()));
      traced_thr.push_back(p.throughput());
      state_keys = static_cast<double>(p.state_keys);
    }
    const double route_ns = static_cast<double>(replay.route_ns) /
                            static_cast<double>(replay.messages);
    const double inject_ns = Median(inject);
    add("workload.gen_ns_per_msg", Median(gen_ns_per_msg), "ns");
    add("partition.route_ns_per_msg", route_ns, "ns");
    add("partition.replication", replay.replication, "ratio");
    add("engine.create_s", Median(create_s), "s");
    add("engine.inject_ns_per_msg", inject_ns, "ns");
    add("engine.inject_minus_route_ns_per_msg", inject_ns - route_ns, "ns");
    add("engine.finish_s", Median(finish), "s");
    add("engine.backlog_max", Median(bl_max), "count");
    add("engine.backlog_mean", Median(bl_mean), "count");
    add("driver.inject_lag_mean_us", Median(lag_means), "us");
    add("driver.inject_lag_p99_us", Median(lag_p99s), "us");
    add("driver.late_batches_per_1k_msgs",
        1000.0 * static_cast<double>(late_batches) /
            static_cast<double>(std::max<uint64_t>(1, fixed_injected)),
        "count");
    add("apps.process_ns_per_msg", Median(proc), "ns");
    add("apps.busy_frac_max", Median(busy_max), "ratio");
    add("apps.busy_frac_mean", Median(busy_mean), "ratio");
    add("apps.close_s", Median(close), "s");
    add("apps.state_keys", state_keys, "count");
    add("reference.logical_mps", ref.msgs_per_sec, "msg/s");
    add("trace.overhead_frac", 1.0 - Median(traced_thr) / throughput, "ratio");
    if (!opt.trace_out.empty()) {
      if (!tracer.Write(opt.trace_out)) {
        notes.push_back("warning: could not write " + opt.trace_out);
      } else {
        notes.push_back("trace: " + std::to_string(tracer.size()) +
                        " spans -> " + opt.trace_out);
      }
    }
  }
  notes.push_back(Fmt("run: %.1f s", elapsed()));
  return true;
}

}  // namespace perfbench
