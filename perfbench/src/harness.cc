// Copyright 2026 The pkgstream Authors.

#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

int64_t Tracer::Begin(const char* name, int64_t parent) {
  if (!enabled_) return -1;
  const int64_t id = next_id_++;
  spans_.push_back(Span{name, NowNs(), 0, id, parent, 0});
  return id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const uint64_t now = NowNs();
  // Open spans are few and recent: search from the back.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_ns = now;
      return;
    }
  }
}

int64_t Tracer::Add(const char* name, uint64_t start_ns, uint64_t end_ns,
                    int64_t parent, uint32_t tid) {
  if (!enabled_) return -1;
  const int64_t id = next_id_++;
  spans_.push_back(Span{name, start_ns, end_ns, id, parent, tid});
  return id;
}

void Tracer::Absorb(std::vector<Span>* spans) {
  if (enabled_) {
    for (Span& s : *spans) {
      s.id = next_id_++;
      spans_.push_back(s);
    }
  }
  spans->clear();
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,\"tid\":%u,"
                 "\"start_ns\":%llu,\"end_ns\":%llu}%s\n",
                 s.name, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), s.tid,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

void MeasuredOperator::Process(const pkgstream::engine::Message& msg,
                               pkgstream::engine::Emitter* out) {
  ++processed_;
  if (hooks_->record_latency) {
    const double now_us =
        static_cast<double>(NowNs() - hooks_->epoch_ns) / 1000.0;
    latencies_us_.push_back(now_us - static_cast<double>(msg.ts));
  }
  if (hooks_->trace && processed_ % kSampleEvery == 0) {
    const uint64_t t0 = NowNs();
    inner_->Process(msg, out);
    const uint64_t t1 = NowNs();
    ++sampled_;
    sampled_ns_ += t1 - t0;
    if (spans_.size() < kMaxSpansPerInstance) {
      spans_.push_back(Span{"apps.Process", t0, t1, -1, hooks_->parent_span,
                            tid_});
    }
    return;
  }
  inner_->Process(msg, out);
}

void MeasuredOperator::Close(pkgstream::engine::Emitter* out) {
  state_before_close_ = inner_->MemoryCounters();
  const uint64_t t0 = NowNs();
  inner_->Close(out);
  const uint64_t t1 = NowNs();
  close_ns_ = t1 - t0;
  if (hooks_->trace) {
    spans_.push_back(Span{"apps.Close", t0, t1, -1, hooks_->parent_span,
                          tid_});
  }
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  return Quantile(&values, 0.5);
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  const double pos = q * static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  auto lo_it = values->begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values->begin(), lo_it, values->end());
  const double lo_value = *lo_it;
  if (lo + 1 >= values->size()) return lo_value;
  // The next order statistic is the smallest element above position lo.
  const double hi_value = *std::min_element(lo_it + 1, values->end());
  return lo_value * (1.0 - frac) + hi_value * frac;
}

unsigned AvailableCpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
#endif
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {0};
  unsigned max_ext = __get_cpuid_max(0x80000000, nullptr);
  if (max_ext >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {0};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t b = s.find_first_not_of(' ');
    const size_t e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
