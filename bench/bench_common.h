// Shared scaffolding for the per-figure benchmark binaries.
//
// Every fig*_ binary reproduces one figure of the paper's Sect. 5:
// it prepares (or loads from cache) the paper-scale index — 5000 objects,
// 100x100 space, 100 time units, ~0.5M motion segments — runs the relevant
// sweep, and prints the rows behind the figure. Scale knobs:
//   DQMO_TRAJECTORIES=N   trajectories averaged per point (default 50;
//                         the paper used 1000)
//   DQMO_FULL=1           paper scale (1000 trajectories)
//   DQMO_OBJECTS=N        override object count (default 5000)
//   DQMO_CACHE_DIR=DIR    index cache location (default ./dqmo_cache)
//   DQMO_BULK_LOAD=1      build the index with STR instead of insertion
//   DQMO_JSON=1           additionally write BENCH_<name>.json (also
//                         enabled by a --json argv flag); tools/bench.sh
//                         collects these machine-readable results
#ifndef DQMO_BENCH_BENCH_COMMON_H_
#define DQMO_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/env.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "harness/experiment.h"
#include "harness/metrics_report.h"
#include "harness/table.h"

namespace dqmo::bench {

// ---------------------------------------------------------------------------
// Machine-readable output: BENCH_<name>.json next to the human tables, for
// committing alongside code changes (the perf trajectory of the repo).

/// Whether JSON output is on. Defaults to the DQMO_JSON env toggle; a
/// --json argv flag (InitJsonMode) also enables it.
inline bool& JsonMode() {
  static bool enabled = GetEnvInt("DQMO_JSON", 0) != 0;
  return enabled;
}

/// Arms the tracer's slowest-frame tracking (idempotent). In JSON mode
/// every bench keeps the single slowest frame it produced so the written
/// file carries its merged span tree — the diagnosis of the run's worst
/// case rides along with its numbers. Arming every frame costs span
/// recording on the hot path, which is acceptable here: the overhead
/// gates compare like against like (both legs run --json), and with
/// metrics off (runtime or compile-time) frames never arm at all.
inline void ArmSlowestFrameTracking() {
  Tracer::Options options = Tracer::Global().options();
  if (options.track_slowest) return;
  options.track_slowest = true;
  Tracer::Global().Configure(options);
  Tracer::Global().ResetSlowestFrame();
}

/// Scans argv for --json. Call first thing in main().
inline void InitJsonMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") JsonMode() = true;
  }
  if (JsonMode()) ArmSlowestFrameTracking();
}

/// Escapes a string for embedding in a JSON string literal. Handles the
/// control characters (notably newlines) that multi-line span-tree
/// renderings contain; JsonObject::Str only escapes quotes/backslashes.
inline std::string JsonEscape(const std::string& v) {
  std::string out;
  out.reserve(v.size() + 16);
  for (char c : v) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

/// One flat JSON object (a sweep point / result row) under construction.
class JsonObject {
 public:
  JsonObject& Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  JsonObject& Int(const char* key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    return Raw(key, quoted);
  }

  std::string ToString() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  JsonObject& Raw(const char* key, std::string value) {
    fields_.emplace_back(key, std::move(value));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Accumulates rows and writes BENCH_<name>.json on Write() (or
/// destruction) when JSON mode is on; a silent no-op otherwise.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string name) : name_(std::move(name)) {
    // Normally armed by InitJsonMode already; this covers binaries that
    // construct the writer without calling it (and is free otherwise).
    if (JsonMode()) ArmSlowestFrameTracking();
  }
  ~BenchJsonWriter() { Write(); }

  JsonObject& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  void Write() {
    if (written_ || !JsonMode()) return;
    written_ = true;
    const FrameTrace slowest = Tracer::Global().SlowestFrame();
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "# json: cannot open %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\"bench\": \"%s\", \"rows\": [\n", name_.c_str());
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "  %s%s\n", rows_[i].ToString().c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    // Slow-frame block: identity and merged span tree of the single slowest
    // frame the run produced (null when the bench never opened a frame —
    // e.g. raw kernel loops that bypass the session layer).
    if (slowest.duration_ns == 0) {
      std::fprintf(f, "],\n\"slow_frame\": null,\n");
    } else {
      std::fprintf(
          f,
          "],\n\"slow_frame\": {\"trace_id\": %llu, \"session_id\": %llu, "
          "\"frame_index\": %llu, \"duration_ns\": %llu, \"spans\": %zu, "
          "\"remote_spans\": %llu, \"tree\": \"%s\"},\n",
          static_cast<unsigned long long>(slowest.trace_id),
          static_cast<unsigned long long>(slowest.session_id),
          static_cast<unsigned long long>(slowest.frame_index),
          static_cast<unsigned long long>(slowest.duration_ns),
          slowest.spans.size(),
          static_cast<unsigned long long>(slowest.remote_spans),
          JsonEscape(slowest.ToString()).c_str());
    }
    // MetricsSnapshot block: the run's process-wide metrics (latency
    // quantiles included), so committed BENCH_*.json carry the perf
    // trajectory and tools/bench.sh can diff p99s between runs.
    std::fprintf(f, "\"metrics\": %s}\n",
                 MetricsRegistry::Global().JsonText().c_str());
    std::fclose(f);
    std::printf("# json: wrote %s (%zu rows)\n", path.c_str(), rows_.size());
  }

 private:
  std::string name_;
  std::vector<JsonObject> rows_;
  bool written_ = false;
};

/// Serializes a MethodCost into `row` under `prefix`_-qualified keys.
inline void AddCostFields(JsonObject* row, const char* prefix,
                          const MethodCost& cost) {
  const std::string p(prefix);
  row->Num((p + "_io_total").c_str(), cost.io_total);
  row->Num((p + "_io_leaf").c_str(), cost.io_leaf);
  row->Num((p + "_cpu").c_str(), cost.cpu);
  row->Num((p + "_results").c_str(), cost.results);
}

/// The paper's overlap sweep (Figs. 6, 7, 10, 11).
inline std::vector<double> PaperOverlaps() {
  return {0.0, 0.25, 0.5, 0.8, 0.9, 0.9999};
}

/// The paper's window sizes: small / medium / big (Figs. 8, 9, 12, 13).
inline std::vector<double> PaperWindows() { return {8.0, 14.0, 20.0}; }

/// Prepares the shared paper-scale workbench, honoring env overrides.
inline std::unique_ptr<Workbench> PrepareBench() {
  IndexConfig config = PaperIndexConfig();
  config.data.num_objects =
      static_cast<int>(GetEnvInt("DQMO_OBJECTS", config.data.num_objects));
  auto bench = Workbench::Prepare(config);
  DQMO_CHECK(bench.ok());
  std::printf("# index: %s\n", (*bench)->Describe().c_str());
  // The metrics block describes the measured run, not the index: a cold
  // DQMO_CACHE_DIR builds and saves it here, a warm one only loads it.
  MetricsRegistry::Global().ResetAll();
  return std::move(bench).value();
}

inline std::string Fmt(double v, int digits = 1) {
  return FormatDouble(v, digits);
}

/// Header block common to every figure binary.
inline void PrintPreamble(const char* figure, const char* caption,
                          int trajectories) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, caption);
  std::printf("(averaged over %d query trajectories; paper used 1000 — set "
              "DQMO_FULL=1)\n", trajectories);
  std::printf("==============================================================\n");
}

enum class Method { kPdq, kNpdq };
enum class Metric { kIo, kCpu };

inline Result<SweepRow> RunPoint(Workbench* bench, Method method,
                                 const SweepOptions& options) {
  if (method == Method::kPdq) return RunPdqPoint(bench, options);
  return RunNpdqPoint(bench, options);
}

/// Figs. 6 / 7 / 10 / 11: first- and subsequent-query cost of the naive
/// method vs the dynamic-query method across the overlap sweep. `slug`
/// names the BENCH_<slug>.json written under --json / DQMO_JSON=1.
inline int RunOverlapFigure(Method method, Metric metric, const char* slug,
                            const char* figure, const char* caption) {
  auto bench = PrepareBench();
  const int trajectories = TrajectoriesFromEnv();
  PrintPreamble(figure, caption, trajectories);
  const char* dq = method == Method::kPdq ? "PDQ" : "NPDQ";
  BenchJsonWriter json(slug);

  Table table =
      metric == Metric::kIo
          ? Table({"overlap%", "naive first (leaf/total)",
                   std::string(dq) + " first (leaf/total)",
                   "naive subs (leaf/total)",
                   std::string(dq) + " subs (leaf/total)", "subs speedup"})
          : Table({"overlap%", "naive first", std::string(dq) + " first",
                   "naive subs", std::string(dq) + " subs",
                   "subs speedup"});
  if (method == Method::kNpdq) {
    std::printf("# NPDQ snapshots are open-ended future queries "
                "(Sect. 4.2 / Fig. 5): window x [t, +inf)\n");
  }
  for (double overlap : PaperOverlaps()) {
    SweepOptions options;
    options.query.overlap = overlap;
    options.num_trajectories = trajectories;
    options.open_ended_frames = method == Method::kNpdq;
    auto row = RunPoint(bench.get(), method, options);
    DQMO_CHECK(row.ok());
    JsonObject& jrow = json.AddRow();
    jrow.Str("method", dq).Num("overlap", overlap);
    AddCostFields(&jrow, "naive_first", row->naive_first);
    AddCostFields(&jrow, "naive_subsequent", row->naive_subsequent);
    AddCostFields(&jrow, "dq_first", row->dq_first);
    AddCostFields(&jrow, "dq_subsequent", row->dq_subsequent);
    auto cell = [&](const MethodCost& cost) {
      if (metric == Metric::kIo) {
        return Fmt(cost.io_leaf) + "/" + Fmt(cost.io_total);
      }
      return Fmt(cost.cpu, 0);
    };
    const double naive_subs = metric == Metric::kIo
                                  ? row->naive_subsequent.io_total
                                  : row->naive_subsequent.cpu;
    const double dq_subs = metric == Metric::kIo ? row->dq_subsequent.io_total
                                                 : row->dq_subsequent.cpu;
    table.AddRow({Fmt(overlap * 100, 2), cell(row->naive_first),
                  cell(row->dq_first), cell(row->naive_subsequent),
                  cell(row->dq_subsequent),
                  dq_subs > 0 ? Fmt(naive_subs / dq_subs) + "x" : "inf"});
  }
  table.Print();
  PrintMetricsSummary();
  return 0;
}

/// Figs. 8 / 9 / 12 / 13: subsequent-query cost by window size.
inline int RunWindowFigure(Method method, Metric metric, const char* slug,
                           const char* figure, const char* caption) {
  auto bench = PrepareBench();
  const int trajectories = TrajectoriesFromEnv();
  PrintPreamble(figure, caption, trajectories);
  const char* dq = method == Method::kPdq ? "PDQ" : "NPDQ";
  BenchJsonWriter json(slug);
  const std::vector<double> overlaps = {0.0, 0.5, 0.9, 0.9999};

  std::vector<std::string> headers = {"window"};
  for (double overlap : overlaps) {
    headers.push_back(std::string(dq) + " subs @" + Fmt(overlap * 100, 2) +
                      "%");
  }
  headers.push_back("naive subs");
  Table table(std::move(headers));
  for (double window : PaperWindows()) {
    std::vector<std::string> cells = {Fmt(window, 0) + "x" +
                                      Fmt(window, 0)};
    double naive = 0.0;
    for (double overlap : overlaps) {
      SweepOptions options;
      options.query.window = window;
      options.query.overlap = overlap;
      options.num_trajectories = trajectories;
      options.open_ended_frames = method == Method::kNpdq;
      auto row = RunPoint(bench.get(), method, options);
      DQMO_CHECK(row.ok());
      JsonObject& jrow = json.AddRow();
      jrow.Str("method", dq).Num("window", window).Num("overlap", overlap);
      AddCostFields(&jrow, "naive_subsequent", row->naive_subsequent);
      AddCostFields(&jrow, "dq_subsequent", row->dq_subsequent);
      cells.push_back(Fmt(metric == Metric::kIo
                              ? row->dq_subsequent.io_total
                              : row->dq_subsequent.cpu,
                          metric == Metric::kIo ? 1 : 0));
      naive = metric == Metric::kIo ? row->naive_subsequent.io_total
                                    : row->naive_subsequent.cpu;
    }
    cells.push_back(Fmt(naive, metric == Metric::kIo ? 1 : 0));
    table.AddRow(std::move(cells));
  }
  table.Print();
  PrintMetricsSummary();
  return 0;
}

}  // namespace dqmo::bench

#endif  // DQMO_BENCH_BENCH_COMMON_H_
