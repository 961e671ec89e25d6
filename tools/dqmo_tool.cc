// dqmo_tool — command-line utility for DQMO index files.
//
//   dqmo_tool build <index.pgf> [--objects N] [--horizon T] [--seed S]
//                   [--bulk]
//       Generate a Sect. 5-style workload and build an index file.
//
//   dqmo_tool info <index.pgf>
//       Print tree metadata and level-by-level occupancy statistics.
//
//   dqmo_tool query <index.pgf> <x0> <x1> <y0> <y1> <t0> <t1>
//       Run a snapshot range query and print matches plus I/O cost.
//
//   dqmo_tool knn <index.pgf> <x> <y> <t> <k>
//       K nearest objects to (x, y) at time t.
//
//   dqmo_tool verify <index.pgf>
//       Run the structural invariant checker.
//
//   dqmo_tool scrub <index.pgf | shard-dir> [--repair]
//       Check every page's CRC32C and report each corrupt page with its
//       file offset. Unlike a normal load (which stops at the first bad
//       page), scrub reads the whole file and lists all damage. Pages
//       stream through the image loader one at a time — constant memory,
//       so images far larger than RAM scrub fine. On a sharded directory a
//       per-shard corrupt-page summary follows the per-file reports. With
//       --repair, a damaged .pgf is rebuilt from its durable pair
//       (checkpoint image + WAL replay; the image is reconstructed purely
//       from a full-history WAL when damaged beyond loading) and
//       re-verified.
//
//   dqmo_tool walinfo <index.wal>
//       Scan a write-ahead log one record at a time: record count by type,
//       LSN range, last checkpoint marker, and the torn-tail report (bytes
//       dropped by a crash mid-append, if any).
//
//   dqmo_tool recover <index.pgf> <index.wal>
//       Run crash recovery: load the last checkpoint image (if any),
//       replay the WAL tail, report what was redone, and checkpoint the
//       recovered tree back to <index.pgf> (resetting the WAL).
//
//   scrub, walinfo, and recover also accept a sharded engine directory
//   (the <durable_dir>/shard-NNNN.pgf + shard-NNNN.wal layout written by
//   ShardedEngine): each shard is processed in id order and the exit code
//   is the OR of the per-shard results.
//
//   dqmo_tool stats <index.pgf> [--json] [--summary] [--watch[=SECS]]
//       Drive a short mixed workload (concurrent PDQ/NPDQ/kNN sessions
//       against a buffer pool + decoded-node cache, with a writer thread
//       inserting under the tree gate and logging to a scratch WAL) and
//       dump the process-wide metrics registry: Prometheus text by
//       default, JSON with --json, plus a quantile table with --summary.
//       --watch runs the workload in the background and renders metric
//       deltas every SECS seconds (default 2) while it runs.
//
//   dqmo_tool explain <index.pgf> [--kind=pdq|npdq|knn] [--frames N]
//                     [--seed S] [--shards N] [--k K] [--memory]
//       Run one traced query session against a sharded twin of the index
//       (durable, pread-backed, prefetching — unless --memory) and render
//       the slowest frame's merged cross-shard span tree: per-shard
//       subtrees with gate waits, redo drains, the merge, and
//       worker-thread prefetch spans, followed by per-shard
//       nodes-visited / prune-effectiveness / prefetch attribution.
//
//   dqmo_tool blackbox <dump.dqbb> [--since=US] [--frame=TRACE]
//       Decode a flight-recorder blackbox dump: header, then every
//       thread's ring merged chronologically. --since=US keeps only the
//       last US microseconds before the snapshot; --frame=TRACE keeps
//       only events stamped with that trace id.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/recorder.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "harness/metrics_report.h"
#include "query/knn.h"
#include "rtree/bulk_load.h"
#include "rtree/node_cache.h"
#include "rtree/rtree.h"
#include "server/durability.h"
#include "server/executor.h"
#include "server/health.h"
#include "server/overload.h"
#include "server/router.h"
#include "server/scrubber.h"
#include "server/shard.h"
#include "storage/buffer_pool.h"
#include "storage/image_format.h"
#include "storage/page.h"
#include "storage/wal.h"
#include "workload/data_generator.h"

namespace dqmo {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Shard files `shard-*<ext>` under `dir`, in shard-id order — the layout
/// ShardedEngine's durable mode writes (`ext` includes the dot).
std::vector<std::string> ShardFilesIn(const std::string& dir,
                                      const std::string& ext) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (StartsWith(name, "shard-") && entry.path().extension() == ext) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Runs `per_file` over every shard file with the given extension under
/// `dir`, OR-ing exit codes. Fails when the directory holds no shards.
template <typename Fn>
int ForEachShardFile(const std::string& dir, const std::string& ext,
                     Fn per_file) {
  const std::vector<std::string> files = ShardFilesIn(dir, ext);
  if (files.empty()) {
    std::fprintf(stderr, "error: no shard-*%s files under %s\n",
                 ext.c_str(), dir.c_str());
    return 1;
  }
  int rc = 0;
  for (const std::string& f : files) {
    std::printf("== %s\n", f.c_str());
    rc |= per_file(f);
  }
  return rc;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  dqmo_tool build <index.pgf> [--objects N] [--horizon T]"
               " [--seed S] [--bulk]\n"
               "  dqmo_tool info <index.pgf>\n"
               "  dqmo_tool query <index.pgf> x0 x1 y0 y1 t0 t1\n"
               "  dqmo_tool knn <index.pgf> x y t k\n"
               "  dqmo_tool verify <index.pgf>\n"
               "  dqmo_tool scrub <index.pgf | shard-dir> [--repair]\n"
               "  dqmo_tool walinfo <index.wal | shard-dir>\n"
               "  dqmo_tool recover <index.pgf> <index.wal>\n"
               "  dqmo_tool recover <shard-dir>\n"
               "  dqmo_tool stats <index.pgf> [--json] [--summary]"
               " [--watch[=secs]]\n"
               "  dqmo_tool explain <index.pgf> [--kind=pdq|npdq|knn]"
               " [--frames N] [--seed S] [--shards N] [--k K] [--memory]\n"
               "  dqmo_tool blackbox <dump.dqbb> [--since=us]"
               " [--frame=trace]\n");
  return 2;
}

Result<std::pair<std::unique_ptr<PageFile>, std::unique_ptr<RTree>>> OpenIndex(
    const std::string& path) {
  auto file = std::make_unique<PageFile>();
  DQMO_RETURN_IF_ERROR(file->LoadFrom(path));
  DQMO_ASSIGN_OR_RETURN(std::unique_ptr<RTree> tree, RTree::Open(file.get()));
  return std::make_pair(std::move(file), std::move(tree));
}

int CmdBuild(const std::string& path, int argc, char** argv) {
  DataGeneratorOptions options;
  bool bulk = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> double {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return std::atof(argv[++i]);
    };
    if (arg == "--objects") {
      options.num_objects = static_cast<int>(next_value());
    } else if (arg == "--horizon") {
      options.horizon = next_value();
    } else if (arg == "--seed") {
      options.seed = static_cast<uint64_t>(next_value());
    } else if (arg == "--bulk") {
      bulk = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  auto data = GenerateMotionData(options);
  if (!data.ok()) return Fail(data.status());
  std::printf("generated %zu motion segments (%d objects, horizon %g)\n",
              data->size(), options.num_objects, options.horizon);
  PageFile file;
  std::unique_ptr<RTree> tree;
  if (bulk) {
    BulkLoadOptions bulk_options;
    auto built = BulkLoad(&file, std::move(*data), bulk_options);
    if (!built.ok()) return Fail(built.status());
    tree = std::move(built).value();
  } else {
    auto created = RTree::Create(&file, RTree::Options());
    if (!created.ok()) return Fail(created.status());
    tree = std::move(created).value();
    for (const MotionSegment& m : *data) {
      const Status status = tree->Insert(m);
      if (!status.ok()) return Fail(status);
    }
  }
  if (Status s = tree->Flush(); !s.ok()) return Fail(s);
  if (Status s = file.SaveTo(path); !s.ok()) return Fail(s);
  std::printf("wrote %s: %llu segments, %zu nodes, height %d, %zu pages\n",
              path.c_str(),
              static_cast<unsigned long long>(tree->num_segments()),
              tree->num_nodes(), tree->height(), file.num_pages());
  return 0;
}

Status CollectLevelStats(const RTree& tree, PageId pid,
                         std::map<int, std::pair<size_t, size_t>>* levels) {
  QueryStats scratch;
  DQMO_ASSIGN_OR_RETURN(Node node, tree.LoadNode(pid, &scratch));
  auto& [count, entries] = (*levels)[node.level];
  ++count;
  entries += static_cast<size_t>(node.count());
  if (!node.is_leaf()) {
    for (const ChildEntry& e : node.children) {
      DQMO_RETURN_IF_ERROR(CollectLevelStats(tree, e.child, levels));
    }
  }
  return Status::OK();
}

int CmdInfo(const std::string& path) {
  auto opened = OpenIndex(path);
  if (!opened.ok()) return Fail(opened.status());
  auto& [file, tree] = *opened;
  std::printf("index      : %s\n", path.c_str());
  std::printf("pages      : %zu (%zu KiB)\n", file->num_pages(),
              file->num_pages() * kPageSize / 1024);
  std::printf("segments   : %llu\n",
              static_cast<unsigned long long>(tree->num_segments()));
  std::printf("nodes      : %zu\n", tree->num_nodes());
  std::printf("height     : %d\n", tree->height());
  std::printf("dims       : %d\n", tree->dims());
  std::printf("fanout     : %d internal / %d leaf\n",
              tree->internal_capacity(), tree->leaf_capacity());
  std::printf("max speed  : %.3f\n", tree->max_speed());
  std::printf("stamp      : %llu\n",
              static_cast<unsigned long long>(tree->stamp()));
  std::map<int, std::pair<size_t, size_t>> levels;
  if (Status s = CollectLevelStats(*tree, tree->root(), &levels); !s.ok()) {
    return Fail(s);
  }
  std::printf("occupancy  :\n");
  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    const auto& [level, stats] = *it;
    const int capacity =
        level == 0 ? tree->leaf_capacity() : tree->internal_capacity();
    std::printf("  level %d: %6zu nodes, avg fill %5.1f%%%s\n", level,
                stats.first,
                100.0 * static_cast<double>(stats.second) /
                    (static_cast<double>(stats.first) * capacity),
                level == 0 ? " (leaves)" : "");
  }
  return 0;
}

int CmdQuery(const std::string& path, char** argv) {
  auto opened = OpenIndex(path);
  if (!opened.ok()) return Fail(opened.status());
  auto& [file, tree] = *opened;
  (void)file;
  if (tree->dims() != 2) {
    std::fprintf(stderr, "query command supports 2-d indexes only\n");
    return 2;
  }
  const StBox q(
      Box(Interval(std::atof(argv[0]), std::atof(argv[1])),
          Interval(std::atof(argv[2]), std::atof(argv[3]))),
      Interval(std::atof(argv[4]), std::atof(argv[5])));
  QueryStats stats;
  auto result = tree->RangeSearch(q, &stats);
  if (!result.ok()) return Fail(result.status());
  for (const MotionSegment& m : *result) {
    std::printf("%s\n", m.ToString().c_str());
  }
  std::printf("-- %zu motions, %llu disk accesses (%llu leaf), "
              "%llu geometric tests\n",
              result->size(),
              static_cast<unsigned long long>(stats.node_reads),
              static_cast<unsigned long long>(stats.leaf_reads),
              static_cast<unsigned long long>(stats.distance_computations));
  return 0;
}

int CmdKnn(const std::string& path, char** argv) {
  auto opened = OpenIndex(path);
  if (!opened.ok()) return Fail(opened.status());
  auto& [file, tree] = *opened;
  (void)file;
  if (tree->dims() != 2) {
    std::fprintf(stderr, "knn command supports 2-d indexes only\n");
    return 2;
  }
  const Vec point(std::atof(argv[0]), std::atof(argv[1]));
  const double t = std::atof(argv[2]);
  const int k = std::atoi(argv[3]);
  QueryStats stats;
  auto result = KnnAt(*tree, point, t, k, &stats);
  if (!result.ok()) return Fail(result.status());
  for (const Neighbor& n : *result) {
    std::printf("d=%8.3f  %s\n", n.distance, n.motion.ToString().c_str());
  }
  std::printf("-- %zu neighbors, %llu disk accesses\n", result->size(),
              static_cast<unsigned long long>(stats.node_reads));
  return 0;
}

int CmdVerify(const std::string& path) {
  auto opened = OpenIndex(path);
  if (!opened.ok()) return Fail(opened.status());
  auto& [file, tree] = *opened;
  (void)file;
  const Status status = tree->CheckInvariants();
  if (!status.ok()) {
    std::printf("INVALID: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("OK: %llu segments across %zu nodes, all invariants hold\n",
              static_cast<unsigned long long>(tree->num_segments()),
              tree->num_nodes());
  return 0;
}

struct ScrubOutcome {
  size_t pages = 0;
  size_t corrupt = 0;
  bool repaired = false;
  int rc = 0;
};

/// Verifies every page of the image at `path` through the streaming
/// loader, one page resident at a time. The loader's own verify is off so
/// the pass does not stop at the first damage: each page whose checksum
/// fails is counted into `out` and, with `print`, listed with its offset.
Status SweepImage(const std::string& path, bool print, ScrubOutcome* out) {
  StreamPgfOptions options;
  options.verify_checksums = false;
  auto streamed = StreamPgfPages(
      path, options, [&](uint64_t id, const uint8_t* page) {
        if (PageChecksumOk(page)) return Status::OK();
        ++out->corrupt;
        if (print) {
          std::printf(
              "CORRUPT page %llu at file offset %llu: checksum mismatch "
              "(stored %08x, computed %08x)\n",
              static_cast<unsigned long long>(id),
              static_cast<unsigned long long>(PgfPageOffset(id)),
              StoredPageChecksum(page), ComputePageChecksum(page));
        }
        return Status::OK();
      });
  if (!streamed.ok()) return streamed.status();
  out->pages = streamed->num_pages;
  return Status::OK();
}

ScrubOutcome ScrubOneFile(const std::string& path, bool repair) {
  ScrubOutcome out;
  if (Status s = SweepImage(path, /*print=*/true, &out); !s.ok()) {
    out.rc = Fail(s);
    return out;
  }
  std::printf("-- scrubbed %zu pages (%zu KiB): %zu corrupt\n", out.pages,
              out.pages * kPageSize / 1024, out.corrupt);
  if (out.corrupt > 0 && repair && EndsWith(path, ".pgf")) {
    // Offline repair from the durable pair: reload the checkpoint image +
    // WAL tail (or rebuild the image from a full-history WAL) and verify
    // the healed file end to end.
    std::string wal = path;
    wal.replace(wal.size() - 4, 4, ".wal");
    auto rep = RepairDurableShard(path, wal, RTree::Options());
    if (!rep.ok()) {
      std::printf("UNREPAIRABLE: %s\n", rep.status().ToString().c_str());
      out.rc = 1;
      return out;
    }
    std::printf("-- repaired: %llu bad pages, %llu wal records replayed, "
                "%llu segments%s\n",
                static_cast<unsigned long long>(rep->pages_bad),
                static_cast<unsigned long long>(rep->replayed),
                static_cast<unsigned long long>(rep->segments),
                rep->image_rebuilt ? ", image rebuilt from wal" : "");
    ScrubOutcome healed;
    if (Status s = SweepImage(path, /*print=*/false, &healed); !s.ok()) {
      out.rc = Fail(s);
      return out;
    }
    if (healed.corrupt != 0) {
      std::printf("UNREPAIRABLE: damage persists after repair\n");
      out.rc = 1;
      return out;
    }
    out.repaired = true;
    return out;
  }
  out.rc = out.corrupt == 0 ? 0 : 1;
  return out;
}

int CmdScrub(const std::string& path, bool repair) {
  if (!std::filesystem::is_directory(path)) {
    return ScrubOneFile(path, repair).rc;
  }
  // Sharded layout: scrub every shard and summarize per-shard damage.
  const std::vector<std::string> files = ShardFilesIn(path, ".pgf");
  if (files.empty()) {
    std::fprintf(stderr, "error: no shard-*.pgf files under %s\n",
                 path.c_str());
    return 1;
  }
  int rc = 0;
  std::vector<ScrubOutcome> outcomes;
  for (const std::string& f : files) {
    std::printf("== %s\n", f.c_str());
    outcomes.push_back(ScrubOneFile(f, repair));
    rc |= outcomes.back().rc;
  }
  std::printf("-- per-shard corrupt pages:\n");
  for (size_t i = 0; i < files.size(); ++i) {
    const ScrubOutcome& out = outcomes[i];
    std::printf("   %s: %zu/%zu%s\n",
                std::filesystem::path(files[i]).filename().string().c_str(),
                out.corrupt, out.pages,
                out.repaired ? " (repaired)"
                             : (out.corrupt > 0 ? " (damaged)" : ""));
  }
  return rc;
}

int CmdWalInfo(const std::string& path) {
  auto scan = ScanWal(path);
  if (!scan.ok()) return Fail(scan.status());
  std::printf("wal        : %s\n", path.c_str());
  std::printf("records    : %llu (%llu inserts, %llu checkpoint markers)\n",
              static_cast<unsigned long long>(scan->records),
              static_cast<unsigned long long>(scan->inserts),
              static_cast<unsigned long long>(scan->checkpoints));
  if (scan->records > 0) {
    std::printf("lsn range  : %llu .. %llu\n",
                static_cast<unsigned long long>(scan->first_lsn),
                static_cast<unsigned long long>(scan->last_lsn));
  }
  if (scan->checkpoints > 0) {
    std::printf("last ckpt  : lsn %llu, %llu segments\n",
                static_cast<unsigned long long>(scan->last_ckpt_lsn),
                static_cast<unsigned long long>(scan->last_ckpt_segments));
  }
  std::printf("good bytes : %llu\n",
              static_cast<unsigned long long>(scan->good_bytes));
  if (scan->torn_tail) {
    std::printf("torn tail  : %llu trailing bytes damaged (crash "
                "mid-append; recovery truncates them)\n",
                static_cast<unsigned long long>(scan->torn_bytes));
  } else {
    std::printf("torn tail  : none\n");
  }
  return 0;
}

int CmdRecover(const std::string& pgf_path, const std::string& wal_path) {
  auto index = DurableIndex::Open(pgf_path, wal_path,
                                  DurableIndex::Options());
  if (!index.ok()) return Fail(index.status());
  const RecoveryReport& report = (*index)->report();
  std::printf("checkpoint : %s\n",
              report.checkpoint_loaded
                  ? StrFormat("loaded (applied lsn %llu)",
                              static_cast<unsigned long long>(
                                  report.checkpoint_lsn))
                        .c_str()
                  : "none (fresh tree)");
  std::printf("wal        : %llu records scanned, %llu replayed, "
              "%llu skipped\n",
              static_cast<unsigned long long>(report.wal_records_scanned),
              static_cast<unsigned long long>(report.replayed),
              static_cast<unsigned long long>(report.skipped));
  if (report.torn_tail) {
    std::printf("torn tail  : %llu bytes truncated\n",
                static_cast<unsigned long long>(report.torn_bytes_dropped));
  }
  RTree* tree = (*index)->tree();
  std::printf("recovered  : %llu segments, %zu nodes, height %d, "
              "lsn %llu\n",
              static_cast<unsigned long long>(tree->num_segments()),
              tree->num_nodes(), tree->height(),
              static_cast<unsigned long long>(report.recovered_lsn));
  if (Status s = tree->CheckInvariants(); !s.ok()) {
    std::printf("INVALID recovered tree: %s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = (*index)->Checkpoint(); !s.ok()) return Fail(s);
  std::printf("checkpointed recovered tree to %s (wal reset)\n",
              pgf_path.c_str());
  return 0;
}

int RunStatsWorkload(const std::string& path, DurableIndex* index);

int CmdStats(const std::string& path, int argc, char** argv) {
  bool json = false;
  bool summary = false;
  bool watch = false;
  uint64_t watch_ms = 2000;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--summary") {
      summary = true;
    } else if (arg == "--watch" || StartsWith(arg, "--watch=")) {
      watch = true;
      if (StartsWith(arg, "--watch=")) {
        const double secs = std::atof(arg.c_str() + 8);
        if (secs > 0) watch_ms = static_cast<uint64_t>(secs * 1000.0);
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (!MetricsEnabled()) {
    std::fprintf(stderr,
                 "metrics are disabled (DQMO_METRICS=off or compiled out); "
                 "nothing to report\n");
    return 1;
  }

  // The workload's writer logs through a DurableIndex over the image and a
  // scratch WAL, so sync latency is real. No checkpoint runs: the image at
  // `path` is never rewritten.
  const std::string wal_path = path + ".stats-wal";
  std::remove(wal_path.c_str());
  auto opened = DurableIndex::Open(path, wal_path, DurableIndex::Options());
  if (!opened.ok()) return Fail(opened.status());
  std::unique_ptr<DurableIndex> index = std::move(opened).value();
  if (index->tree()->dims() != 2) {
    std::remove(wal_path.c_str());
    std::fprintf(stderr, "stats command supports 2-d indexes only\n");
    return 2;
  }

  auto workload = [&]() -> int {
    const int rc = RunStatsWorkload(path, index.get());
    std::remove(wal_path.c_str());
    return rc;
  };
  if (!watch) {
    if (const int rc = workload(); rc != 0) return rc;
  } else {
    // The workload runs in the background; the foreground renders metric
    // deltas at each tick so an operator sees which families are moving.
    std::atomic<int> wrc{-1};
    std::thread bg([&] { wrc.store(workload(), std::memory_order_release); });
    auto counter_values = [] {
      std::map<std::string, uint64_t> v;
      for (const MetricsRegistry::Row& row : MetricsRegistry::Global().Rows())
        v[row.name] = row.count;
      return v;
    };
    std::map<std::string, uint64_t> prev = counter_values();
    uint64_t tick = 0;
    while (wrc.load(std::memory_order_acquire) < 0) {
      // Sleep in slices so a finished workload ends the watch promptly.
      for (uint64_t slept = 0;
           slept < watch_ms && wrc.load(std::memory_order_acquire) < 0;
           slept += 50) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      std::map<std::string, uint64_t> cur = counter_values();
      std::printf("-- watch tick %llu (+%llums)\n",
                  static_cast<unsigned long long>(++tick),
                  static_cast<unsigned long long>(watch_ms));
      for (const auto& [name, value] : cur) {
        const auto it = prev.find(name);
        const uint64_t before = it == prev.end() ? 0 : it->second;
        if (value == before) continue;
        std::printf("   %-48s %+lld (now %llu)\n", name.c_str(),
                    static_cast<long long>(value) -
                        static_cast<long long>(before),
                    static_cast<unsigned long long>(value));
      }
      prev = std::move(cur);
    }
    bg.join();
    if (const int rc = wrc.load(); rc != 0) return rc;
  }

  if (json) {
    std::printf("%s\n", MetricsRegistry::Global().JsonText().c_str());
  } else {
    std::printf("%s", MetricsRegistry::Global().PrometheusText().c_str());
  }
  if (summary) {
    std::printf("\n%s", MetricsSummaryTable().c_str());
  }
  return 0;
}

/// Arms the tracer (slowest-frame tracking + sampling) for one scope so
/// the trace metric families register during the stats workload, then
/// restores the previous configuration.
struct TracerArmGuard {
  Tracer::Options saved = Tracer::Global().options();
  TracerArmGuard() {
    Tracer::Options o = saved;
    o.track_slowest = true;
    if (o.sample_every == 0) o.sample_every = 4;
    Tracer::Global().Configure(o);
  }
  ~TracerArmGuard() { Tracer::Global().Configure(saved); }
};

int RunStatsWorkload(const std::string& path, DurableIndex* index) {
  PageStore* file = index->file();
  RTree* tree = index->tree();
  TracerArmGuard trace_arm;
  FlightRecorder::Record(FlightEventKind::kMark, -1, 1);
  // The workload mirrors a small production deployment: shared pool +
  // decoded-node cache, a writer thread inserting under the gate (each
  // batch logged and synced by the DurableIndex before the guard is
  // released), and concurrent sessions of all three kinds. Every
  // instrumented layer fires.
  BufferPool pool(file, /*capacity_pages=*/512, /*num_shards=*/8);
  DecodedNodeCache cache(/*capacity_nodes=*/256, /*num_shards=*/8);
  tree->AttachNodeCache(&cache);
  TreeGate gate(file, &pool);

  DataGeneratorOptions gen;
  gen.num_objects = 40;
  gen.horizon = 20.0;
  gen.seed = 7;
  auto fresh = GenerateMotionData(gen);
  if (!fresh.ok()) return Fail(fresh.status());

  Status writer_status;
  std::thread writer([&] {
    constexpr size_t kBatch = 16;
    for (size_t at = 0; at < fresh->size(); at += kBatch) {
      auto guard = gate.LockExclusive();
      const size_t end = std::min(at + kBatch, fresh->size());
      for (size_t i = at; i < end; ++i) {
        if (Status s = index->Insert((*fresh)[i]); !s.ok()) {
          writer_status = s;
          return;
        }
      }
      if (Status s = index->Sync(); !s.ok()) {
        writer_status = s;
        return;
      }
    }
  });

  std::vector<SessionSpec> specs;
  for (int i = 0; i < 10; ++i) {
    SessionSpec spec;
    spec.kind = i % 3 == 0   ? SessionKind::kSession
                : i % 3 == 1 ? SessionKind::kNpdq
                             : SessionKind::kKnn;
    spec.seed = static_cast<uint64_t>(100 + i);
    spec.frames = 40;
    spec.priority = static_cast<SessionPriority>(i % 3);
    // Four sessions share client 9 against a quota of two — two of them
    // are refused at admission, so the rejection counter is nonzero. The
    // rest get a client each and run unimpeded.
    spec.client_id = i >= 6 ? 9 : static_cast<uint64_t>(i);
    if (i < 2) {
      // A starvation-level node budget: these sessions' frames finish
      // degraded, so the budget-exhausted counter is nonzero.
      spec.frame_node_budget = 1;
    }
    specs.push_back(spec);
  }
  // The overload families (admission, governor, budget) register on first
  // use; wire the whole resilience stack in so `stats` exposes them too.
  AdmissionOptions aopt;
  aopt.per_client_quota = 2;
  AdmissionController admission(aopt);
  OverloadGovernor governor;
  SessionScheduler::Options sched;
  sched.num_threads = 4;
  sched.reader = &pool;
  sched.gate = &gate;
  sched.pool = &pool;
  sched.admission = &admission;
  sched.governor = &governor;
  SessionScheduler scheduler(tree, sched);
  ExecutorReport report = scheduler.Run(specs);
  writer.join();
  if (!writer_status.ok()) return Fail(writer_status);
  if (!report.status.ok()) return Fail(report.status);
  CheckNodeAccounting();

  // Failure-domain families: run a short quarantine -> park -> scrub ->
  // reinstate episode on a small sharded twin so the breaker, redo-queue,
  // and scrubber series are live in the dump, then summarize the breaker
  // plane the way an operator would read it. The twin is durable and
  // pread-backed so the disk and prefetch families register too — `stats`
  // is the one dump tools/ci.sh validates family coverage against.
  ShardedEngineOptions eopt;
  eopt.num_shards = 2;
  eopt.failure_domains = true;
  eopt.breaker.cooldown_frames = 0;
  eopt.breaker.probe_rate = 1.0;
  eopt.breaker.probe_successes_to_close = 2;
  eopt.durable_dir = path + ".stats-shards";
  eopt.io_backend = IoBackend::kPread;
  std::filesystem::create_directories(eopt.durable_dir);
  auto sharded = ShardedEngine::Create(eopt);
  if (!sharded.ok()) return Fail(sharded.status());
  if (Status s = (*sharded)->InsertBatch(*fresh); !s.ok()) return Fail(s);
  const MotionSegment extra(
      9001, StSegment(Vec(40, 40), Vec(41, 41), Interval(2.0, 3.0)));
  const int sick = (*sharded)->map().ShardOf(extra);
  (*sharded)->breaker(sick)->ForceOpen("stats workload");
  if (Status s = (*sharded)->Insert(extra); !s.ok()) return Fail(s);
  SessionSpec qspec;
  qspec.kind = SessionKind::kNpdq;
  qspec.seed = 5;
  qspec.frames = 6;
  ShardRouter::Options sropt;
  sropt.spatial_prune = false;
  const ShardRouter srouter(sharded->get(), sropt);
  (void)srouter.RunOne(qspec);  // Quarantined frames, attributed skips.
  ShardScrubber(sharded->get(), ScrubOptions()).ScrubPass();
  (void)srouter.RunOne(qspec);  // Half-open probes close the breaker.
  std::string breaker_line;
  for (int s = 0; s < (*sharded)->num_shards(); ++s) {
    const CircuitBreaker* b = (*sharded)->breaker(s);
    breaker_line += StrFormat(
        "%sshard %d %s (opened %llux)", s == 0 ? "" : ", ", s,
        BreakerStateName(b->state()),
        static_cast<unsigned long long>(b->open_events()));
  }
  std::fprintf(stderr, "# failure domains: %s\n", breaker_line.c_str());
  (*sharded).reset();
  std::error_code ec;
  std::filesystem::remove_all(eopt.durable_dir, ec);

  std::fprintf(stderr,
               "# workload: %zu sessions, %llu objects delivered, "
               "%zu segments inserted, %.3fs\n",
               report.sessions.size(),
               static_cast<unsigned long long>(report.total_objects),
               fresh->size(), report.wall_seconds);
  return 0;
}

int CmdExplain(const std::string& path, int argc, char** argv) {
  SessionKind kind = SessionKind::kSession;
  int frames = 24;
  uint64_t seed = 7;
  int shards = 4;
  int k = 8;
  bool memory = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> double {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return std::atof(argv[++i]);
    };
    if (arg == "--kind=pdq") {
      kind = SessionKind::kSession;
    } else if (arg == "--kind=npdq") {
      kind = SessionKind::kNpdq;
    } else if (arg == "--kind=knn") {
      kind = SessionKind::kKnn;
    } else if (arg == "--frames") {
      frames = static_cast<int>(next_value());
    } else if (arg == "--seed") {
      seed = static_cast<uint64_t>(next_value());
    } else if (arg == "--shards") {
      shards = static_cast<int>(next_value());
    } else if (arg == "--k") {
      k = static_cast<int>(next_value());
    } else if (arg == "--memory") {
      memory = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (!MetricsEnabled()) {
    std::fprintf(stderr,
                 "metrics are disabled (DQMO_METRICS=off or compiled out); "
                 "tracing needs them\n");
    return 1;
  }

  auto opened = OpenIndex(path);
  if (!opened.ok()) return Fail(opened.status());
  auto& [file, tree] = *opened;
  (void)file;
  if (tree->dims() != 2) {
    std::fprintf(stderr, "explain command supports 2-d indexes only\n");
    return 2;
  }
  // Pull every segment out of the index; the traced run replays them on a
  // sharded twin so the span tree shows real cross-shard structure.
  const StBox everything(
      Box(Interval(-1e30, 1e30), Interval(-1e30, 1e30)), Interval(-1e30, 1e30));
  QueryStats scan_stats;
  auto segments = tree->RangeSearch(everything, &scan_stats);
  if (!segments.ok()) return Fail(segments.status());
  if (segments->empty()) {
    std::fprintf(stderr, "index holds no segments; nothing to explain\n");
    return 1;
  }

  ShardedEngineOptions eopt;
  eopt.num_shards = shards;
  std::string scratch_dir;
  if (!memory) {
    scratch_dir = StrFormat("%s.explain-%d", path.c_str(),
                            static_cast<int>(::getpid()));
    std::filesystem::create_directories(scratch_dir);
    eopt.durable_dir = scratch_dir;
    eopt.io_backend = IoBackend::kPread;
  }
  auto engine = ShardedEngine::Create(eopt);
  if (!engine.ok()) return Fail(engine.status());
  auto cleanup = [&] {
    (*engine).reset();
    if (!scratch_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(scratch_dir, ec);
    }
  };
  Status loaded = (*engine)->InsertBatch(*segments);
  // The pread twin reads (and prefetches) image pages: install the load.
  if (loaded.ok() && !memory) loaded = (*engine)->Checkpoint();
  if (!loaded.ok()) {
    cleanup();
    return Fail(loaded);
  }

  // Arm every frame and keep the slowest — the one worth explaining.
  Tracer& tracer = Tracer::Global();
  const Tracer::Options saved = tracer.options();
  Tracer::Options topt = saved;
  topt.track_slowest = true;
  tracer.Configure(topt);
  tracer.ResetSlowestFrame();

  SessionSpec spec;
  spec.kind = kind;
  spec.seed = seed;
  spec.frames = frames;
  spec.k = k;
  const ShardRouter router(engine->get(), ShardRouter::Options());
  ShardedSessionResult res = router.RunOne(spec);
  const FrameTrace slowest = tracer.SlowestFrame();
  tracer.Configure(saved);
  if (!res.result.status.ok()) {
    cleanup();
    return Fail(res.result.status);
  }

  std::printf("session  : kind=%s frames=%d seed=%llu shards=%d backend=%s\n",
              kind == SessionKind::kSession ? "pdq"
              : kind == SessionKind::kNpdq  ? "npdq"
                                            : "knn",
              frames, static_cast<unsigned long long>(seed), shards,
              memory ? "memory" : "pread");
  std::printf("checksum : %016llx (%llu objects delivered)\n",
              static_cast<unsigned long long>(res.result.checksum),
              static_cast<unsigned long long>(res.result.objects_delivered));
  if (slowest.spans.empty()) {
    std::printf("no frame was captured (session ran zero frames?)\n");
    cleanup();
    return 1;
  }
  std::printf("\nslowest frame (merged cross-shard span tree):\n%s\n",
              slowest.ToString().c_str());

  std::printf("per-shard attribution (whole session):\n");
  for (size_t s = 0; s < res.shard_stats.size(); ++s) {
    const QueryStats& st = res.shard_stats[s];
    const uint64_t considered = st.node_reads + st.nodes_discarded;
    std::printf(
        "  shard %zu: %llu nodes visited (%llu leaves), %llu pruned "
        "(%.1f%% prune), %llu geometric tests, %llu pages skipped\n",
        s, static_cast<unsigned long long>(st.node_reads),
        static_cast<unsigned long long>(st.leaf_reads),
        static_cast<unsigned long long>(st.nodes_discarded),
        considered == 0 ? 0.0
                        : 100.0 * static_cast<double>(st.nodes_discarded) /
                              static_cast<double>(considered),
        static_cast<unsigned long long>(st.distance_computations),
        static_cast<unsigned long long>(st.pages_skipped));
  }

  // Worker-thread attribution inside the slowest frame: how much of the
  // speculation landed usefully.
  uint64_t prefetch_spans = 0, prefetch_ns = 0;
  uint64_t waste_spans = 0, waste_ns = 0;
  for (const SpanRecord& span : slowest.spans) {
    if (span.kind == SpanKind::kPrefetchRead) {
      ++prefetch_spans;
      prefetch_ns += span.duration_ns;
    } else if (span.kind == SpanKind::kPrefetchWaste) {
      ++waste_spans;
      waste_ns += span.duration_ns;
    }
  }
  std::printf(
      "prefetch attribution (slowest frame): %llu consumed (%llu us), "
      "%llu wasted (%llu us), %llu worker spans total\n",
      static_cast<unsigned long long>(prefetch_spans),
      static_cast<unsigned long long>(prefetch_ns / 1000),
      static_cast<unsigned long long>(waste_spans),
      static_cast<unsigned long long>(waste_ns / 1000),
      static_cast<unsigned long long>(slowest.remote_spans));
  cleanup();
  return 0;
}

int CmdBlackbox(const std::string& path, int argc, char** argv) {
  uint64_t since_us = 0;   // 0: no time filter.
  uint64_t frame_id = 0;   // 0: no trace filter.
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--since=")) {
      since_us = static_cast<uint64_t>(std::atoll(arg.c_str() + 8));
    } else if (StartsWith(arg, "--frame=")) {
      frame_id = static_cast<uint64_t>(std::atoll(arg.c_str() + 8));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  BlackboxDump dump;
  if (Status s = FlightRecorder::ReadBlackbox(path, &dump); !s.ok()) {
    return Fail(s);
  }
  char when[64] = "?";
  const time_t secs = static_cast<time_t>(dump.wall_unix_us / 1000000);
  struct tm tm_buf;
  if (gmtime_r(&secs, &tm_buf) != nullptr) {
    std::strftime(when, sizeof(when), "%Y-%m-%dT%H:%M:%SZ", &tm_buf);
  }
  std::printf("blackbox : %s\n", path.c_str());
  std::printf("version  : %u\n", dump.version);
  std::printf("reason   : %s\n", dump.reason.c_str());
  std::printf("captured : %s (unix %llu us)\n", when,
              static_cast<unsigned long long>(dump.wall_unix_us));
  std::printf("threads  : %zu\n", dump.threads.size());
  for (const BlackboxDump::ThreadSection& t : dump.threads) {
    std::printf("  thread %u: %zu buffered of %llu recorded\n",
                t.thread_index, t.events.size(),
                static_cast<unsigned long long>(t.recorded));
  }

  struct Row {
    uint32_t thread;
    FlightEvent ev;
  };
  std::vector<Row> rows;
  for (const BlackboxDump::ThreadSection& t : dump.threads) {
    for (const FlightEvent& ev : t.events) {
      if (since_us != 0 &&
          ev.ts_ns + since_us * 1000 < dump.snapshot_ns) {
        continue;
      }
      if (frame_id != 0 &&
          ev.trace_low != static_cast<uint32_t>(frame_id)) {
        continue;
      }
      rows.push_back(Row{t.thread_index, ev});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.ev.ts_ns < b.ev.ts_ns;
  });
  std::printf("events   : %zu%s\n", rows.size(),
              since_us != 0 || frame_id != 0 ? " (filtered)" : "");
  for (const Row& row : rows) {
    // Offsets are relative to the snapshot: "-512.3ms" = half a second
    // before the dump fired.
    const double offset_ms =
        (static_cast<double>(row.ev.ts_ns) -
         static_cast<double>(dump.snapshot_ns)) /
        1e6;
    std::printf("  %+12.3fms  t%-3u %-16s shard=%-3d detail=%-12llu%s\n",
                offset_ms, row.thread, FlightEventKindName(row.ev.kind),
                row.ev.shard,
                static_cast<unsigned long long>(row.ev.detail),
                row.ev.trace_low != 0
                    ? StrFormat(" trace=%u", row.ev.trace_low).c_str()
                    : "");
  }
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  const std::string path = argv[2];
  if (command == "build") return CmdBuild(path, argc - 3, argv + 3);
  if (command == "info") return CmdInfo(path);
  if (command == "query") {
    if (argc != 9) return Usage();
    return CmdQuery(path, argv + 3);
  }
  if (command == "knn") {
    if (argc != 7) return Usage();
    return CmdKnn(path, argv + 3);
  }
  if (command == "verify") return CmdVerify(path);
  if (command == "scrub") {
    bool repair = false;
    for (int i = 3; i < argc; ++i) {
      if (std::string(argv[i]) != "--repair") return Usage();
      repair = true;
    }
    return CmdScrub(path, repair);
  }
  if (command == "walinfo") {
    if (argc != 3) return Usage();
    if (std::filesystem::is_directory(path)) {
      return ForEachShardFile(path, ".wal", CmdWalInfo);
    }
    return CmdWalInfo(path);
  }
  if (command == "recover") {
    if (argc == 3 && std::filesystem::is_directory(path)) {
      // Sharded layout: recover every shard-NNNN.pgf with its paired WAL.
      return ForEachShardFile(path, ".pgf", [](const std::string& pgf) {
        std::string wal = pgf;
        wal.replace(wal.size() - 4, 4, ".wal");
        return CmdRecover(pgf, wal);
      });
    }
    if (argc != 4) return Usage();
    return CmdRecover(path, argv[3]);
  }
  if (command == "stats") return CmdStats(path, argc - 3, argv + 3);
  if (command == "explain") return CmdExplain(path, argc - 3, argv + 3);
  if (command == "blackbox") return CmdBlackbox(path, argc - 3, argv + 3);
  return Usage();
}

}  // namespace
}  // namespace dqmo

int main(int argc, char** argv) { return dqmo::Run(argc, argv); }
