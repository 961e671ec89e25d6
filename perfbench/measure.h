// Measurement helpers for dqbench: exact order statistics over
// raw samples, counter snapshots of the program's MetricsRegistry, an
// in-memory span log, and the result printer.
//
// Percentiles are never read from HistogramSnapshot::Percentile (log2
// bucket bounds, off by up to 2x). Histograms are used only through their
// exact sum and count.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"

namespace perfbench {

inline uint64_t WallNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// An exact percentile: the nearest-rank order statistic of the raw
/// samples, with the sample count and how many samples lie above it.
struct OrderStat {
  double value = 0.0;
  size_t n = 0;
  size_t beyond = 0;
  /// The guide's honesty rule: at least ten samples beyond the percentile.
  bool honest() const { return beyond >= 10; }
};

/// Nearest rank: the smallest sample with at least p% of the samples at or
/// below it. Sorts `samples` in place.
inline OrderStat Percentile(std::vector<double>* samples, double p) {
  OrderStat out;
  out.n = samples->size();
  if (samples->empty()) return out;
  std::sort(samples->begin(), samples->end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples->size())));
  rank = std::clamp<size_t>(rank, 1, samples->size());
  out.value = (*samples)[rank - 1];
  out.beyond = samples->size() - rank;
  return out;
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Resets this process's resident-set high-water mark (VmHWM) to its
/// current resident set, so PeakRssMiB covers only what follows.
inline bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// This process's resident-set high-water mark (VmHWM), MiB; 0 if unknown.
inline double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Gives `v` room for `n` elements and touches every page of it, so later
/// push_backs up to `n` neither allocate nor grow the resident set.
template <typename T>
void ReserveResident(std::vector<T>* v, size_t n) {
  v->resize(n);
  v->clear();
}

/// Counter values and histogram sum/count of every registered metric at
/// one instant. Diff two snapshots around a phase.
class RegistrySnapshot {
 public:
  static RegistrySnapshot Take() {
    RegistrySnapshot s;
    for (const auto& row : dqmo::MetricsRegistry::Global().Rows()) {
      if (row.kind == "histogram") {
        s.values_[row.name] = {row.hist.count, row.hist.sum};
      } else {
        s.values_[row.name] = {row.count, 0};
      }
    }
    return s;
  }

  /// Counter value, or a histogram's sample count.
  double Count(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : static_cast<double>(it->second.first);
  }
  /// Histogram sum (0 for counters).
  double Sum(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : static_cast<double>(it->second.second);
  }

  RegistrySnapshot operator-(const RegistrySnapshot& before) const {
    RegistrySnapshot d = *this;
    for (auto& [name, v] : d.values_) {
      auto it = before.values_.find(name);
      if (it == before.values_.end()) continue;
      v.first -= it->second.first;
      v.second -= it->second.second;
    }
    return d;
  }

 private:
  std::map<std::string, std::pair<uint64_t, uint64_t>> values_;
};

/// Spans the benchmark records around its own calls into the program, kept
/// in memory and written out once at the end of a traced run. A span's
/// parent is the index of the enclosing span (-1 for roots); `session` is
/// one id per RunOne call (0 for spans outside a session).
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t parent;
    uint64_t session;
    uint64_t start_ns;
    uint64_t end_ns;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Appends a finished span; returns its index (-1 when disabled).
  int64_t Add(const char* name, int64_t parent, uint64_t session,
              uint64_t start_ns, uint64_t end_ns) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, parent, session, start_ns, end_ns});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  /// Appends a batch recorded by one thread, re-pointing in-batch parent
  /// indices (>= 0) at their final positions.
  void AddBatch(const std::vector<Span>& batch) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t base = static_cast<int64_t>(spans_.size());
    for (Span s : batch) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(s);
    }
  }

  /// One JSON object per line: id, parent, session, name, start/end ns
  /// relative to the first span.
  bool WriteJsonLines(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    uint64_t t0 = UINT64_MAX;
    for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%" PRId64 ",\"session\":%" PRIu64
                   ",\"name\":\"%s\",\"start_ns\":%" PRIu64
                   ",\"end_ns\":%" PRIu64 "}\n",
                   i, s.parent, s.session, s.name, s.start_ns - t0,
                   s.end_ns - t0);
    }
    return std::fclose(f) == 0;
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
};

/// Ordered name -> (value, unit) list printed as the result's "metrics".
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", items_[i].name.c_str(),
                    std::isfinite(items_[i].value) ? items_[i].value : 0.0,
                    items_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

  /// Human-readable table for stderr.
  void Print(std::FILE* f) const {
    for (const Item& it : items_) {
      std::fprintf(f, "  %-36s %16.6g %s\n", it.name.c_str(), it.value,
                   it.unit.c_str());
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
