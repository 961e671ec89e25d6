#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "common/env.h"
#include "common/string_util.h"

namespace dqmo {

#ifndef DQMO_METRICS_DISABLED
namespace internal {

namespace {
bool EnabledFromEnv() {
  const std::string v = GetEnvString("DQMO_METRICS", "on");
  return !(v == "off" || v == "0" || v == "false" || v == "no");
}
}  // namespace

std::atomic<bool>& MetricsEnabledFlag() {
  static std::atomic<bool> flag{EnabledFromEnv()};
  return flag;
}

}  // namespace internal
#endif  // DQMO_METRICS_DISABLED

// ---------------------------------------------------------------------------
// Histogram.

int Histogram::BucketIndex(uint64_t v) {
  return v == 0 ? 0 : std::bit_width(v);
}

uint64_t Histogram::BucketLowerBound(int b) {
  return b <= 0 ? 0 : uint64_t{1} << (b - 1);
}

uint64_t Histogram::BucketUpperBound(int b) {
  if (b <= 0) return 0;
  if (b >= 64) return UINT64_MAX;
  return (uint64_t{1} << b) - 1;
}

void Histogram::Record(uint64_t v) {
  if (!MetricsEnabled()) return;
  const int b = BucketIndex(v);
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  // Exemplar: stamp the bucket with the recording thread's trace id so a
  // tail bucket can be joined back to a captured trace. One inline TLS
  // load; the store only happens inside an armed frame.
  const uint64_t trace_id = ActiveTraceId();
  if (trace_id != 0) exemplars_[b].store(trace_id, std::memory_order_relaxed);
  // Running max via CAS: contended only while the maximum actually moves.
  uint64_t seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (int b = 0; b < kNumBuckets; ++b) {
    snap.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    snap.exemplars[b] = exemplars_[b].load(std::memory_order_relaxed);
    snap.count += snap.buckets[b];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    total += buckets_[b].load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::ResetForTest() {
  for (int b = 0; b < kNumBuckets; ++b) {
    buckets_[b].store(0, std::memory_order_relaxed);
    exemplars_[b].store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

HistogramSnapshot& HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  for (int b = 0; b < kNumBuckets; ++b) {
    buckets[b] += other.buckets[b];
    if (other.exemplars[b] != 0) exemplars[b] = other.exemplars[b];
  }
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  return *this;
}

uint64_t HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  // Rank of the target sample, 1-based, ceiling — p=100 is the last sample.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::min<double>(static_cast<double>(count),
                              clamped / 100.0 * static_cast<double>(count) +
                                  0.9999999)));
  uint64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      return std::min(Histogram::BucketUpperBound(b), max);
    }
  }
  return max;
}

uint64_t HistogramSnapshot::ExemplarNear(double p) const {
  if (count == 0) return 0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::min<double>(static_cast<double>(count),
                              clamped / 100.0 * static_cast<double>(count) +
                                  0.9999999)));
  int target = kNumBuckets - 1;
  uint64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      target = b;
      break;
    }
  }
  // The target bucket's exemplar may have been recorded before tracing
  // armed; fall back to the nearest stamped bucket, preferring the tail
  // (slower samples explain a tail percentile better than faster ones).
  for (int b = target; b < kNumBuckets; ++b) {
    if (exemplars[b] != 0) return exemplars[b];
  }
  for (int b = target - 1; b >= 0; --b) {
    if (exemplars[b] != 0) return exemplars[b];
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Registry.

struct MetricsRegistry::Impl {
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu;
  // Ordered by name: the exposition formats are deterministic.
  std::map<std::string, Entry> entries;

  Entry& GetOrCreate(const std::string& name, const std::string& help,
                     Kind kind) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.find(name);
    if (it == entries.end()) {
      Entry entry;
      entry.kind = kind;
      entry.help = help;
      switch (kind) {
        case Kind::kCounter:
          entry.counter = std::make_unique<Counter>();
          break;
        case Kind::kGauge:
          entry.gauge = std::make_unique<Gauge>();
          break;
        case Kind::kHistogram:
          entry.histogram = std::make_unique<Histogram>();
          break;
      }
      it = entries.emplace(name, std::move(entry)).first;
    } else if (it->second.kind != kind) {
      std::fprintf(stderr,
                   "metrics: %s re-registered with a different kind\n",
                   name.c_str());
      std::abort();  // Programming error, like a failed DQMO_CHECK.
    } else if (it->second.help.empty() && !help.empty()) {
      it->second.help = help;
    }
    return it->second;
  }
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl* impl = new Impl();  // Leaked: registry outlives everything.
  return *impl;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  return impl().GetOrCreate(name, help, Impl::Kind::kCounter).counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  return impl().GetOrCreate(name, help, Impl::Kind::kGauge).gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help) {
  return impl()
      .GetOrCreate(name, help, Impl::Kind::kHistogram)
      .histogram.get();
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(impl().mu);
  return impl().entries.size();
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(impl().mu);
  for (auto& [name, entry] : impl().entries) {
    switch (entry.kind) {
      case Impl::Kind::kCounter:
        entry.counter->ResetForTest();
        break;
      case Impl::Kind::kGauge:
        entry.gauge->ResetForTest();
        break;
      case Impl::Kind::kHistogram:
        entry.histogram->ResetForTest();
        break;
    }
  }
}

std::string MetricsRegistry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(impl().mu);
  std::string out;
  for (const auto& [name, entry] : impl().entries) {
    if (!entry.help.empty()) {
      out += "# HELP " + name + " " + entry.help + "\n";
    }
    switch (entry.kind) {
      case Impl::Kind::kCounter:
        out += "# TYPE " + name + " counter\n";
        out += StrFormat("%s %" PRIu64 "\n", name.c_str(),
                         entry.counter->value());
        break;
      case Impl::Kind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += StrFormat("%s %" PRId64 "\n", name.c_str(),
                         entry.gauge->value());
        break;
      case Impl::Kind::kHistogram: {
        out += "# TYPE " + name + " histogram\n";
        const HistogramSnapshot snap = entry.histogram->Snapshot();
        int highest = 0;
        for (int b = 0; b < HistogramSnapshot::kNumBuckets; ++b) {
          if (snap.buckets[b] != 0) highest = b;
        }
        uint64_t cumulative = 0;
        for (int b = 0; b <= highest; ++b) {
          cumulative += snap.buckets[b];
          out += StrFormat("%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                           name.c_str(), Histogram::BucketUpperBound(b),
                           cumulative);
        }
        out += StrFormat("%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", name.c_str(),
                         snap.count);
        out += StrFormat("%s_sum %" PRIu64 "\n", name.c_str(), snap.sum);
        out += StrFormat("%s_count %" PRIu64 "\n", name.c_str(), snap.count);
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::JsonText() const {
  std::lock_guard<std::mutex> lock(impl().mu);
  std::string counters, gauges, histograms;
  for (const auto& [name, entry] : impl().entries) {
    switch (entry.kind) {
      case Impl::Kind::kCounter:
        if (!counters.empty()) counters += ", ";
        counters += StrFormat("\"%s\": %" PRIu64, name.c_str(),
                              entry.counter->value());
        break;
      case Impl::Kind::kGauge:
        if (!gauges.empty()) gauges += ", ";
        gauges += StrFormat("\"%s\": %" PRId64, name.c_str(),
                            entry.gauge->value());
        break;
      case Impl::Kind::kHistogram: {
        const HistogramSnapshot snap = entry.histogram->Snapshot();
        if (!histograms.empty()) histograms += ", ";
        histograms += StrFormat(
            "\"%s\": {\"count\": %" PRIu64 ", \"sum\": %" PRIu64
            ", \"mean\": %.1f, \"max\": %" PRIu64 ", \"p50\": %" PRIu64
            ", \"p95\": %" PRIu64 ", \"p99\": %" PRIu64
            ", \"p99_exemplar\": %" PRIu64 "}",
            name.c_str(), snap.count, snap.sum, snap.mean(), snap.max,
            snap.Percentile(50), snap.Percentile(95), snap.Percentile(99),
            snap.ExemplarNear(99));
        break;
      }
    }
  }
  return "{\"counters\": {" + counters + "}, \"gauges\": {" + gauges +
         "}, \"histograms\": {" + histograms + "}}";
}

std::vector<MetricsRegistry::Row> MetricsRegistry::Rows() const {
  std::lock_guard<std::mutex> lock(impl().mu);
  std::vector<Row> rows;
  rows.reserve(impl().entries.size());
  for (const auto& [name, entry] : impl().entries) {
    Row row;
    row.name = name;
    switch (entry.kind) {
      case Impl::Kind::kCounter:
        row.kind = "counter";
        row.count = entry.counter->value();
        break;
      case Impl::Kind::kGauge:
        row.kind = "gauge";
        row.count = static_cast<uint64_t>(entry.gauge->value());
        break;
      case Impl::Kind::kHistogram:
        row.kind = "histogram";
        row.hist = entry.histogram->Snapshot();
        row.count = row.hist.count;
        break;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace dqmo
