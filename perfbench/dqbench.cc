// dqbench: runs one seeded workload of the dqmo benchmark end to end through
// the production entry points (ShardedEngine + ShardRouter) and prints one
// JSON result line. See perfbench/README.md for the workloads, the metric
// definitions and the layer map.
//
//   dqbench --workload NAME --seed N --seconds S --trace 0|1
//           --work-dir DIR [--spans-out FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics (the caller also sets DQMO_TRACE_SAMPLE=1 so the program feeds
// its dqmo_span_<kind>_ns histograms on every frame) and writes the
// benchmark's own spans to --spans-out. Exit status 1 means a checksum or
// durability mismatch; 2 means bad arguments or a setup failure.
#include <malloc.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "inputs.h"
#include "measure.h"
#include "rtree/bulk_load.h"
#include "rtree/layout.h"
#include "server/router.h"
#include "server/shard.h"
#include "storage/page.h"
#include "storage/page_file.h"

namespace perfbench {
namespace {

using namespace dqmo;

// ---------------------------------------------------------------------------
// Workload definitions. Sizes are recorded in perfbench/README.md.

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 7;
/// Session specs per run, drawn round robin by the clients.
constexpr int kSpecPool = 512;

struct Workload {
  const char* name;
  // Population: the paper's generator (objects x horizon), or, when
  // `tracked` is set, the dead-reckoning history before `t_split`.
  int objects;
  double horizon;
  bool tracked;
  double t_split;
  // Engine.
  int shards;
  bool durable;
  bool failure_domains;
  size_t page_budget_mb;  // Split over the shards: 3/4 pool, 1/4 dirty frames.
  size_t cache_nodes;     // Decoded-node cache per shard.
  // Closed-loop readers.
  int clients;
  SpecShape shape;
  // Think time between a client's frames (0: none). The client holds no
  // shard gate while it thinks.
  int think_us;
  // Open-loop writer beside the readers (rate 0: read-only workload).
  double writer_rate;  // Updates per second.
  int batch;
  int checkpoint_every;  // Acknowledged updates between checkpoints.
};

Workload PdqFlyoverMem() {
  Workload w{};
  w.name = "pdq_flyover_mem";
  w.objects = 5000;
  w.horizon = 100.0;
  w.shards = 1;
  w.page_budget_mb = 64;            // A 48 MiB pool holds the whole index.
  w.cache_nodes = size_t{1} << 20;  // Holds the whole index.
  w.clients = 4;
  w.shape.kinds = {SessionKind::kSession};
  w.shape.frames = 100;
  w.shape.mean_leg = 25.0;  // Long straight legs: SPDQ/PDQ serve most frames.
  w.shape.t0_lo = 1.0;
  w.shape.t0_hi = 85.0;
  return w;
}

Workload NpdqKnnShardedDisk() {
  Workload w{};
  w.name = "npdq_knn_sharded_disk";
  w.objects = 8000;
  w.horizon = 100.0;
  w.shards = 16;
  w.durable = true;
  w.page_budget_mb = 8;  // The index is over 6x this; see README.
  w.cache_nodes = 32;
  w.clients = 4;
  // Two NPDQ sessions per kNN session: NPDQ frames (~20x cheaper) hold the
  // median and kNN's every-shard search the tail, so neither percentile
  // sits on the boundary between the two.
  w.shape.kinds = {SessionKind::kNpdq, SessionKind::kNpdq, SessionKind::kKnn};
  w.shape.frames = 40;
  w.shape.mean_leg = 1.0;  // Observers turn often.
  w.shape.t0_lo = 1.0;
  w.shape.t0_hi = 90.0;
  return w;
}

Workload MixedUpdatesDurable() {
  Workload w{};
  w.name = "mixed_updates_durable";
  w.objects = 2500;
  w.tracked = true;
  w.t_split = 40.0;
  w.shards = 4;
  w.durable = true;
  w.failure_domains = true;
  w.page_budget_mb = 32;
  w.cache_nodes = 256;
  w.clients = 3;
  w.shape.kinds = {SessionKind::kSession, SessionKind::kNpdq,
                   SessionKind::kKnn};
  w.shape.frames = 60;
  w.shape.mean_leg = 4.0;
  // Sessions span the end of the history and the times the writer fills.
  w.shape.t0_lo = 34.0;
  w.shape.t0_hi = 38.0;
  w.think_us = 50;  // Leaves the gates free often enough for the writer.
  w.writer_rate = 600.0;
  w.batch = 60;
  w.checkpoint_every = 3000;
  return w;
}

bool FindWorkload(const std::string& name, Workload* out) {
  for (const Workload& w :
       {PdqFlyoverMem(), NpdqKnnShardedDisk(), MixedUpdatesDurable()}) {
    if (name == w.name) {
      *out = w;
      return true;
    }
  }
  return false;
}

ShardedEngineOptions EngineOptions(const Workload& w, const std::string& dir) {
  ShardedEngineOptions o;
  o.num_shards = w.shards;
  o.cache_nodes = w.cache_nodes;
  o.page_budget_mb = w.page_budget_mb;
  o.failure_domains = w.failure_domains;
  if (w.durable) {
    o.durable_dir = dir;
    o.io_backend = IoBackend::kPread;
    o.prefetch_depth = 8;
  }
  return o;
}

/// The documented durable layout: <dir>/shard-NNNN.pgf (+ .wal).
std::string ShardImagePath(const std::string& dir, int shard) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%04d.pgf", shard);
  return dir + "/" + name;
}

// ---------------------------------------------------------------------------
// Set-up.

struct SetupTimes {
  double total_s = 0.0;
  double open_s = 0.0;  // ShardedEngine::Create alone.
};

/// Builds the engine over `data`. Durable engines get per-shard STR images
/// through ShardMap::ShardOf + BulkLoad + PageFile::SaveTo, which
/// ShardedEngine::Create then opens; in-memory engines bulk-load after
/// Create, from a copy of `data` made before the clock starts.
std::unique_ptr<ShardedEngine> SetUp(const Workload& w,
                                     const std::vector<MotionSegment>& data,
                                     const std::string& dir, SpanLog* spans,
                                     SetupTimes* times) {
  const ShardedEngineOptions o = EngineOptions(w, dir);
  std::vector<MotionSegment> copy;
  if (!w.durable) copy = data;
  const uint64_t t0 = WallNs();
  if (w.durable) {
    std::filesystem::create_directories(dir);
    const ShardMap map(o.num_shards, o.space_size, o.speed_split,
                       o.speed_split_threshold);
    std::vector<std::vector<MotionSegment>> parts(
        static_cast<size_t>(o.num_shards));
    for (const MotionSegment& m : data) {
      parts[static_cast<size_t>(map.ShardOf(m))].push_back(m);
    }
    for (int i = 0; i < o.num_shards; ++i) {
      auto& part = parts[static_cast<size_t>(i)];
      if (part.empty()) continue;  // Create starts a fresh tree.
      PageFile file;
      auto tree = BulkLoad(&file, std::move(part),
                           BulkLoadOptions{o.tree, 0.5});
      DQMO_CHECK(tree.ok());
      DQMO_CHECK(file.SaveTo(ShardImagePath(dir, i)).ok());
    }
  }
  const uint64_t open0 = WallNs();
  auto engine = ShardedEngine::Create(o);
  const uint64_t open1 = WallNs();
  if (!engine.ok()) {
    std::fprintf(stderr, "ShardedEngine::Create: %s\n",
                 engine.status().ToString().c_str());
    return nullptr;
  }
  if (!w.durable) DQMO_CHECK((*engine)->BulkLoad(std::move(copy)).ok());
  const uint64_t t1 = WallNs();
  const int64_t root = spans->Add("setup", -1, 0, t0, t1);
  spans->Add("ShardedEngine::Create", root, 0, open0, open1);
  times->total_s = static_cast<double>(t1 - t0) * 1e-9;
  times->open_s = static_cast<double>(open1 - open0) * 1e-9;
  return std::move(engine).value();
}

/// One NPDQ frame whose window covers the whole space and time range: loads
/// every node once, so the pool and decoded-node cache are as warm as their
/// capacity allows before timing starts.
void WarmCaches(ShardedEngine* engine, double horizon) {
  SessionSpec s;
  s.kind = SessionKind::kNpdq;
  s.frames = 1;
  s.t0 = 0.0;
  s.frame_dt = horizon;
  s.window = 1000.0;
  const ShardedSessionResult r = ShardRouter(engine).RunOne(s);
  DQMO_CHECK(r.result.status.ok());
}

// ---------------------------------------------------------------------------
// Read phase.

/// What one closed-loop client measured.
struct ClientLog {
  // Every completed frame yields one sample: first frames (session open +
  // first query) and all later frames. The sample vectors are reserved and
  // made resident before peak_rss_mb's window opens, and their bytes are
  // subtracted from it.
  std::vector<double> first_frame_us;
  std::vector<double> frame_us;
  std::vector<double> session_ms;  // Think time excluded.
  uint64_t thought_ns = 0;         // Thinking between frames, all sessions.
  uint64_t sessions = 0;
  uint64_t frames_attempted = 0;
  uint64_t frames_completed = 0;
  uint64_t frames_failed = 0;
  uint64_t objects = 0;
  uint64_t shard_frames_pruned = 0;
  QueryStats stats;
  /// (spec index, checksum) of every completed session.
  std::vector<std::pair<size_t, uint64_t>> checksums;
  std::vector<SpanLog::Span> spans;

  /// Makes room for `frames` frames of sessions of `frames_per_session`;
  /// returns the bytes reserved.
  size_t Reserve(size_t frames, int frames_per_session) {
    const size_t sessions =
        frames / static_cast<size_t>(frames_per_session - 1) + 1;
    ReserveResident(&first_frame_us, sessions);
    ReserveResident(&frame_us, frames);
    ReserveResident(&session_ms, sessions);
    ReserveResident(&checksums, sessions);
    reserved_bytes = SampleBytes();
    return reserved_bytes;
  }

  /// Bytes of the sample vectors.
  size_t SampleBytes() const {
    return (first_frame_us.capacity() + frame_us.capacity() +
            session_ms.capacity()) * sizeof(double) +
           checksums.capacity() * sizeof(checksums[0]);
  }

  /// True when a sample vector outgrew Reserve.
  bool Outgrown() const { return SampleBytes() != reserved_bytes; }

  size_t reserved_bytes = 0;
};

/// Per-session frame clock driven by ShardRouter::Options::frame_hook,
/// which the router calls at the top of every frame on the client thread.
struct FrameClock {
  uint64_t session_start = 0;
  uint64_t prev = 0;  // Start of the open frame.
  int64_t session_span = -1;  // Index into ClientLog::spans.
  uint64_t session_id = 0;
  bool frame_spans = false;  // This session's frames go to the span log.
  uint64_t think_ns = 0;
  uint64_t session_think_ns = 0;  // Thought so far in this session.
  ClientLog* log = nullptr;

  /// Closes the open frame at `now`; the first frame began at the RunOne
  /// call, so it carries the session open.
  void EndFrame(uint64_t now, bool first) {
    (first ? log->first_frame_us : log->frame_us)
        .push_back(static_cast<double>(now - prev) * 1e-3);
    if (frame_spans) {
      log->spans.push_back(
          SpanLog::Span{"frame", session_span, session_id, prev, now});
    }
    prev = now;
  }

  /// Runs at the top of every frame, before the router takes any gate.
  void OnFrame(int frame) {
    if (frame > 1) EndFrame(WallNs(), frame == 2);
    if (think_ns > 0 && frame > 1) {
      // Spins rather than sleeps, so the think time is what was asked for
      // and the thread stays on its CPU. It is not frame or session time.
      uint64_t woke = WallNs();
      while (woke - prev < think_ns) woke = WallNs();
      session_think_ns += woke - prev;
      log->thought_ns += woke - prev;
      prev = woke;
    }
  }
};

/// Frame samples reserved per client and measured second; more than any
/// workload reaches.
constexpr double kMaxFramesPerClientPerS = 250000;

/// Frame spans are kept for one session in this many (session spans for
/// all), which bounds the span log on the fast workloads.
constexpr uint64_t kFrameSpanEvery = 16;

void RunClient(ShardedEngine* engine, const std::vector<SessionSpec>* specs,
               std::atomic<uint64_t>* next_spec, uint64_t deadline_ns,
               int think_us, bool trace, ClientLog* log) {
  FrameClock clock;
  clock.log = log;
  clock.think_ns = static_cast<uint64_t>(think_us) * 1000;
  ShardRouter::Options ro;
  ro.frame_hook = [&clock](int frame) { clock.OnFrame(frame); };
  const ShardRouter router(engine, ro);
  while (WallNs() < deadline_ns) {
    const uint64_t id = next_spec->fetch_add(1);
    const size_t index = static_cast<size_t>(id % specs->size());
    const SessionSpec& spec = (*specs)[index];
    clock.session_id = id + 1;
    clock.frame_spans = trace && id % kFrameSpanEvery == 0;
    if (trace) {
      log->spans.push_back(
          SpanLog::Span{"ShardRouter::RunOne", -1, clock.session_id, 0, 0});
      clock.session_span = static_cast<int64_t>(log->spans.size()) - 1;
    }
    clock.session_start = WallNs();
    clock.prev = clock.session_start;
    clock.session_think_ns = 0;
    const ShardedSessionResult r = router.RunOne(spec);
    const uint64_t end = WallNs();
    const SessionResult& res = r.result;
    // The last frame ends when RunOne returns.
    if (res.frames_completed >= 1) clock.EndFrame(end, res.frames_completed == 1);
    if (trace) {
      SpanLog::Span& s = log->spans[static_cast<size_t>(clock.session_span)];
      s.start_ns = clock.session_start;
      s.end_ns = end;
    }
    log->session_ms.push_back(
        static_cast<double>(end - clock.session_start -
                            clock.session_think_ns) * 1e-6);
    ++log->sessions;
    const uint64_t attempted = static_cast<uint64_t>(spec.frames);
    log->frames_attempted += attempted;
    log->frames_completed += res.frames_completed;
    const bool ok = res.status.ok() &&
                    res.outcome == SessionResult::Outcome::kCompleted &&
                    res.frames_completed == attempted;
    // Partial frames and frames never completed (shed, errored, rejected
    // session) all count as failed.
    log->frames_failed +=
        r.frames_partial + attempted - std::min(attempted, res.frames_completed);
    if (ok) log->checksums.emplace_back(index, res.checksum);
    log->objects += res.objects_delivered;
    log->shard_frames_pruned += r.shard_frames_pruned;
    log->stats += res.stats;
  }
}

// ---------------------------------------------------------------------------
// Write path.

struct WriterLog {
  std::vector<double> update_us;        // Due time -> InsertBatch OK.
  std::vector<double> insert_batch_us;  // Span around InsertBatch.
  std::vector<double> lag_us;           // How late each batch was sent.
  std::vector<double> checkpoint_ms;
  uint64_t batches_attempted = 0;
  uint64_t batches_failed = 0;
  uint64_t acked_updates = 0;
  uint64_t checkpoint_pages = 0;
  /// Length of the update stream's acknowledged prefix.
  size_t acked_prefix = 0;
  std::vector<SpanLog::Span> spans;
};

uint64_t TotalPages(ShardedEngine* engine) {
  uint64_t pages = 0;
  for (int s = 0; s < engine->num_shards(); ++s) {
    pages += engine->shard(s).file->num_pages();
  }
  return pages;
}

/// Sends batches of `updates` through InsertBatch, open loop, until the
/// deadline (or the stream ends): batch i is due at start + i * batch /
/// rate, and its latency runs from that due time.
void RunWriter(ShardedEngine* engine,
               const std::vector<MotionSegment>* updates, int batch,
               double rate, int checkpoint_every, uint64_t start_ns,
               uint64_t deadline_ns, bool trace, WriterLog* log) {
  const double interval_ns = 1e9 * batch / rate;
  uint64_t since_checkpoint = 0;
  std::vector<MotionSegment> chunk;
  for (size_t i = 0;; ++i) {
    const size_t lo = i * static_cast<size_t>(batch);
    if (lo + static_cast<size_t>(batch) > updates->size()) break;
    const uint64_t due =
        start_ns + static_cast<uint64_t>(static_cast<double>(i) * interval_ns);
    if (due >= deadline_ns) break;
    const uint64_t now = WallNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    chunk.assign(updates->begin() + static_cast<long>(lo),
                 updates->begin() + static_cast<long>(lo) + batch);
    const uint64_t begin = WallNs();
    const Status st = engine->InsertBatch(chunk);
    const uint64_t end = WallNs();
    ++log->batches_attempted;
    if (trace) log->spans.push_back({"ShardedEngine::InsertBatch", -1, 0, begin, end});
    if (!st.ok()) {
      ++log->batches_failed;
      std::fprintf(stderr, "InsertBatch: %s\n", st.ToString().c_str());
      break;  // The acknowledged prefix stays exact.
    }
    log->lag_us.push_back(static_cast<double>(begin - due) * 1e-3);
    log->update_us.push_back(static_cast<double>(end - due) * 1e-3);
    log->insert_batch_us.push_back(static_cast<double>(end - begin) * 1e-3);
    log->acked_updates += static_cast<uint64_t>(batch);
    log->acked_prefix = lo + static_cast<size_t>(batch);
    since_checkpoint += static_cast<uint64_t>(batch);
    if (checkpoint_every > 0 &&
        since_checkpoint >= static_cast<uint64_t>(checkpoint_every)) {
      since_checkpoint = 0;
      const uint64_t c0 = WallNs();
      const Status cs = engine->Checkpoint();
      const uint64_t c1 = WallNs();
      if (!cs.ok()) {
        ++log->batches_failed;
        std::fprintf(stderr, "Checkpoint: %s\n", cs.ToString().c_str());
        break;
      }
      // Each shard's image is rewritten whole.
      log->checkpoint_pages += TotalPages(engine);
      log->checkpoint_ms.push_back(static_cast<double>(c1 - c0) * 1e-6);
      if (trace) log->spans.push_back({"ShardedEngine::Checkpoint", -1, 0, c0, c1});
    }
  }
}

// ---------------------------------------------------------------------------
// Correctness.

/// Every repeat of a spec must fold to one checksum, and that checksum must
/// equal an untimed serial replay on one in-memory shard. Returns the frames
/// of mismatched sessions.
uint64_t CheckReadChecksums(const std::vector<ClientLog>& logs,
                            const std::vector<SessionSpec>& specs,
                            const std::vector<MotionSegment>& data,
                            uint64_t* sessions_checked) {
  std::vector<std::optional<uint64_t>> seen(specs.size());
  std::vector<uint64_t> repeats(specs.size(), 0);
  uint64_t mismatches = 0;
  for (const ClientLog& log : logs) {
    for (const auto& [index, checksum] : log.checksums) {
      ++repeats[index];
      if (!seen[index].has_value()) {
        seen[index] = checksum;
      } else if (*seen[index] != checksum) {
        mismatches += static_cast<uint64_t>(specs[index].frames);
      }
    }
  }
  ShardedEngineOptions o;
  o.num_shards = 1;
  auto replay = ShardedEngine::Create(o);
  DQMO_CHECK(replay.ok());
  DQMO_CHECK((*replay)->BulkLoad(data).ok());
  const ShardRouter router(replay->get());
  *sessions_checked = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (!seen[i].has_value()) continue;
    const ShardedSessionResult r = router.RunOne(specs[i]);
    *sessions_checked += repeats[i];
    if (!r.result.status.ok() || r.result.checksum != *seen[i]) {
      mismatches += repeats[i] * static_cast<uint64_t>(specs[i].frames);
      std::fprintf(stderr, "checksum mismatch: spec %zu\n", i);
    }
  }
  return mismatches;
}

/// Reopens the durable directory through ShardedEngine::Create: the segment
/// count must be loaded + acknowledged, and a seeded sample of acknowledged
/// updates must each be found exactly once by a range search over every
/// shard. Returns the number of failed checks, each counted as one failed
/// update.
uint64_t CheckDurability(const Workload& w, const std::string& dir,
                         uint64_t loaded,
                         const std::vector<MotionSegment>& updates,
                         size_t acked, uint64_t seed) {
  auto engine = ShardedEngine::Create(EngineOptions(w, dir));
  if (!engine.ok()) {
    std::fprintf(stderr, "reopen: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  uint64_t failures = 0;
  const uint64_t count = (*engine)->num_segments();
  if (count != loaded + acked) {
    std::fprintf(stderr, "reopen: %" PRIu64 " segments, want %" PRIu64 "\n",
                 count, loaded + static_cast<uint64_t>(acked));
    ++failures;
  }
  Rng rng(seed ^ 0xd0ab1e);
  const int samples = acked == 0 ? 0 : 256;
  for (int i = 0; i < samples; ++i) {
    const MotionSegment& m = updates[rng.UniformU64(acked)];
    const StSegment stored = QuantizeStored(m.seg);
    int found = 0;
    for (int s = 0; s < (*engine)->num_shards(); ++s) {
      QueryStats stats;
      auto hits = (*engine)->shard(s).tree->RangeSearch(stored.Bounds(), &stats);
      DQMO_CHECK(hits.ok());
      for (const MotionSegment& h : *hits) {
        found += h.oid == m.oid && h.seg.time.lo == stored.time.lo;
      }
    }
    if (found != 1) {
      std::fprintf(stderr, "acknowledged update oid=%u found %d times\n",
                   m.oid, found);
      ++failures;
    }
  }
  return failures;
}

// ---------------------------------------------------------------------------
// Main.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v);
    else if (k == "--trace") a->trace = std::atoi(v) != 0;
    else if (k == "--work-dir") a->work_dir = v;
    else if (k == "--spans-out") a->spans_out = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->work_dir.empty() &&
         a->seconds > 0;
}

double Median(std::vector<double> v) { return Percentile(&v, 50).value; }

int Run(const Args& args) {
  Workload w;
  if (!FindWorkload(args.workload, &w)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  SpanLog spans(args.trace);

  // Inputs, all from the seed, before any timing.
  std::vector<MotionSegment> data;
  std::vector<MotionSegment> updates;
  if (w.tracked) {
    const size_t updates_needed =
        static_cast<size_t>(w.writer_rate * args.seconds) +
        16 * static_cast<size_t>(w.batch);
    TrackedStream ts =
        MakeTrackedStream(args.seed, w.objects, w.t_split, updates_needed);
    data = std::move(ts.history);
    updates = std::move(ts.updates);
  } else {
    data = MakePopulation(args.seed, w.objects, w.horizon);
  }
  const size_t segments = data.size();
  const std::vector<SessionSpec> specs =
      MakeSpecPool(args.seed * 0x2545F4914F6CDD1DULL + 1, kSpecPool, w.shape);

  // Set-up, repeated; the last engine serves the run.
  std::vector<double> setup_s, open_s;
  std::unique_ptr<ShardedEngine> engine;
  std::string dir;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
    // Each set-up starts with no writeback pending from the one before.
    ::sync();
    dir = args.work_dir + "/engine-" + std::to_string(rep);
    SetupTimes t;
    engine = SetUp(w, data, dir, &spans, &t);
    if (engine == nullptr) return 2;
    setup_s.push_back(t.total_s);
    open_s.push_back(t.open_s);
  }
  const uint64_t pages = TotalPages(engine.get());
  const uint64_t loaded = engine->num_segments();
  // Write back the set-ups' files now, so kernel writeback does not compete
  // with the measured phase's WAL and checkpoint fsyncs.
  ::sync();
  WarmCaches(engine.get(), w.tracked ? w.t_split : w.horizon);

  // peak_rss_mb covers the read phase alone: the population leaves memory
  // (the replay check regenerates it), the sample vectors are made resident
  // now and subtracted, freed heap goes back to the system, and only then
  // is the high-water mark reset.
  std::vector<MotionSegment>().swap(data);
  std::vector<ClientLog> logs(static_cast<size_t>(w.clients));
  const size_t frames_reserved = static_cast<size_t>(
      args.seconds * kMaxFramesPerClientPerS);
  size_t sample_bytes = 0;
  for (ClientLog& log : logs) {
    sample_bytes += log.Reserve(frames_reserved, w.shape.frames);
  }
  ::malloc_trim(0);
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "# warning: cannot reset VmHWM; peak_rss_mb "
                         "includes set-up\n");
  }

  // Read phase (with the live writer on the mixed workload).
  auto pool_counts = [&engine](uint64_t* hits, uint64_t* misses) {
    *hits = *misses = 0;
    for (int s = 0; s < engine->num_shards(); ++s) {
      *hits += engine->shard(s).pool->hits();
      *misses += engine->shard(s).pool->misses();
    }
  };
  uint64_t hits0, misses0, hits1, misses1;
  pool_counts(&hits0, &misses0);
  const RegistrySnapshot reg0 = RegistrySnapshot::Take();
  const IoStats io0 = engine->TotalIoStats();

  WriterLog live;
  std::atomic<uint64_t> next_spec{0};
  const uint64_t start = WallNs();
  const uint64_t deadline = start + static_cast<uint64_t>(args.seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (ClientLog& log : logs) {
      threads.emplace_back(RunClient, engine.get(), &specs, &next_spec,
                           deadline, w.think_us, args.trace, &log);
    }
    if (w.writer_rate > 0) {
      threads.emplace_back(RunWriter, engine.get(), &updates, w.batch,
                           w.writer_rate, w.checkpoint_every, start, deadline,
                           args.trace, &live);
    }
    for (std::thread& t : threads) t.join();
  }
  const uint64_t stop = WallNs();
  const double read_s = static_cast<double>(stop - start) * 1e-9;
  // Before the correctness checks.
  const double peak_rss_mb =
      PeakRssMiB() - static_cast<double>(sample_bytes) / (1 << 20);
  const RegistrySnapshot reg = RegistrySnapshot::Take() - reg0;
  const IoStats io = engine->TotalIoStats() - io0;
  pool_counts(&hits1, &misses1);

  uint64_t frames = 0, frames_attempted = 0, frames_failed = 0, objects = 0;
  uint64_t pruned = 0, sessions = 0;
  // Frames per busy second, summed over the clients: each client's think
  // time leaves its denominator.
  double frames_per_s = 0.0;
  bool outgrown = false;
  QueryStats qs;
  for (const ClientLog& log : logs) {
    frames_per_s += static_cast<double>(log.frames_completed) /
                    (read_s - static_cast<double>(log.thought_ns) * 1e-9);
    outgrown |= log.Outgrown();
    frames += log.frames_completed;
    frames_attempted += log.frames_attempted;
    frames_failed += log.frames_failed;
    objects += log.objects;
    pruned += log.shard_frames_pruned;
    sessions += log.sessions;
    qs += log.stats;
    spans.AddBatch(log.spans);
  }
  spans.AddBatch(live.spans);

  // Correctness.
  uint64_t mismatches = 0;
  uint64_t sessions_checked = 0;
  if (w.writer_rate > 0) {
    engine.reset();  // Close every shard before reopening the directory.
    mismatches = CheckDurability(w, dir, loaded, updates, live.acked_prefix,
                                 args.seed);
  } else {
    engine.reset();
    data = MakePopulation(args.seed, w.objects, w.horizon);
    mismatches = CheckReadChecksums(logs, specs, data, &sessions_checked);
  }
  std::filesystem::remove_all(dir);
  const uint64_t attempted = frames_attempted + live.batches_attempted;
  const uint64_t failed = frames_failed + live.batches_failed + mismatches;
  const bool correct = failed == 0;

  std::vector<double> first_frame, frame, session_ms;
  for (const ClientLog& log : logs) {
    first_frame.insert(first_frame.end(), log.first_frame_us.begin(),
                       log.first_frame_us.end());
    frame.insert(frame.end(), log.frame_us.begin(), log.frame_us.end());
    session_ms.insert(session_ms.end(), log.session_ms.begin(),
                      log.session_ms.end());
  }
  std::vector<double> update = live.update_us;
  const double fr = static_cast<double>(frames);
  const OrderStat frame_p50 = Percentile(&frame, 50);
  const OrderStat frame_p99 = Percentile(&frame, 99);
  const OrderStat first_p50 = Percentile(&first_frame, 50);
  const OrderStat update_p50 = Percentile(&update, 50);
  // The writer's tail is its p95: a 20 s run sends 200 batches, which leave
  // 10 samples beyond p95 but only 2 beyond p99.
  const OrderStat update_p95 = Percentile(&update, 95);

  std::fprintf(stderr,
               "# %s seed=%" PRIu64 ": %zu segments, %" PRIu64
               " pages, %d shards; %" PRIu64 " sessions, %" PRIu64
               " frames in %.2f s; %" PRIu64 " updates acked\n",
               w.name, args.seed, segments, pages, w.shards, sessions,
               frames, read_s, live.acked_updates);
  std::fprintf(stderr,
               "# samples: frame n=%zu (p99 has %zu beyond), first frame "
               "n=%zu, update n=%zu (p95 has %zu beyond)\n",
               frame_p99.n, frame_p99.beyond, first_p50.n, update_p95.n,
               update_p95.beyond);
  if (w.writer_rate > 0) {
    std::fprintf(stderr, "# updates: p50 %.3f us, p95 %.3f us\n",
                 update_p50.value, update_p95.value);
  }
  if (outgrown) {
    std::fprintf(stderr, "# warning: frame samples outgrew their reservation; "
                         "peak_rss_mb includes the growth\n");
  }
  if (!frame_p99.honest() || (w.writer_rate > 0 && !update_p95.honest())) {
    std::fprintf(stderr, "# warning: a tail percentile has fewer than 10 "
                         "samples beyond it\n");
  }
  std::fprintf(stderr,
               "# correctness: %s (%" PRIu64 " sessions replayed, %" PRIu64
               " mismatches, %" PRIu64 "/%" PRIu64 " failed)\n",
               correct ? "ok" : "FAILED", sessions_checked, mismatches, failed,
               attempted);

  MetricList m;
  if (!args.trace) {
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("first_frame_p50_us", first_p50.value, "us");
    m.Add("frame_p50_us", frame_p50.value, "us");
    m.Add("frame_p99_us", frame_p99.value, "us");
    m.Add("frames_per_s", frames_per_s, "1/s");
    m.Add("node_reads_per_frame",
          Ratio(reg.Count("dqmo_rtree_node_loads_total"), fr), "count");
    m.Add("distance_computations_per_frame",
          Ratio(static_cast<double>(qs.distance_computations), fr), "count");
    m.Add("peak_rss_mb", peak_rss_mb, "MiB");
  } else {
    const double updates_acked = static_cast<double>(live.acked_updates);
    auto span_ns = [&reg](const char* kind) {
      return reg.Sum(std::string("dqmo_span_") + kind + "_ns");
    };
    std::vector<double> batch_us = live.insert_batch_us;
    std::vector<double> lag_us = live.lag_us;
    m.Add("trace.frames_per_s", frames_per_s, "1/s");
    m.Add("trace.frame_p50_us", frame_p50.value, "us");
    m.Add("server.session_ms", Median(session_ms), "ms");
    m.Add("server.open_s", Median(open_s), "s");
    m.Add("server.fanout_width",
          Ratio(reg.Sum("dqmo_shard_fanout_width"),
                reg.Count("dqmo_shard_fanout_width")),
          "count");
    m.Add("server.shard_prune_ratio",
          Ratio(static_cast<double>(pruned), fr * w.shards), "ratio");
    m.Add("server.merge_ns_per_frame", Ratio(span_ns("merge"), fr), "ns");
    m.Add("server.gate_wait_ns_per_frame", Ratio(span_ns("gate_wait"), fr),
          "ns");
    m.Add("server.update_p50_us", update_p50.value, "us");
    m.Add("server.update_p95_us", update_p95.value, "us");
    m.Add("server.insert_batch_p50_us", Percentile(&batch_us, 50).value, "us");
    m.Add("server.insert_batch_p95_us", Percentile(&batch_us, 95).value, "us");
    m.Add("server.checkpoint_ms", Median(live.checkpoint_ms), "ms");
    m.Add("server.generator_lag_p95_us", Percentile(&lag_us, 95).value, "us");
    m.Add("query.kernel_prune_ns_per_frame",
          Ratio(span_ns("kernel_prune"), fr), "ns");
    m.Add("query.heap_ns_per_frame", Ratio(span_ns("heap_op"), fr), "ns");
    m.Add("query.queue_pushes_per_frame",
          Ratio(static_cast<double>(qs.queue_pushes), fr), "count");
    m.Add("query.duplicates_skipped_ratio",
          Ratio(static_cast<double>(qs.duplicates_skipped),
                static_cast<double>(qs.queue_pops)),
          "ratio");
    const double npdq_discarded = reg.Sum("dqmo_npdq_discarded_per_query");
    m.Add("query.npdq_discard_ratio",
          Ratio(npdq_discarded,
                npdq_discarded + reg.Sum("dqmo_npdq_nodes_per_query")),
          "ratio");
    const double knn_cached = reg.Count("dqmo_knn_cache_answers_total");
    m.Add("query.knn_cache_answer_ratio",
          Ratio(knn_cached,
                knn_cached + reg.Count("dqmo_knn_full_searches_total")),
          "ratio");
    m.Add("query.handoffs_per_1k_frames",
          Ratio(1000.0 * (reg.Count("dqmo_session_handoffs_to_npdq_total") +
                          reg.Count("dqmo_session_handoffs_to_pdq_total")),
                fr),
          "count");
    m.Add("query.objects_per_frame", Ratio(static_cast<double>(objects), fr),
          "count");
    m.Add("rtree.decoded_hit_ratio",
          Ratio(reg.Count("dqmo_rtree_decoded_hits_total"),
                reg.Count("dqmo_rtree_node_loads_total")),
          "ratio");
    m.Add("rtree.node_fetch_ns_per_frame", Ratio(span_ns("node_fetch"), fr),
          "ns");
    m.Add("rtree.soa_decode_ns_per_frame", Ratio(span_ns("soa_decode"), fr),
          "ns");
    m.Add("rtree.cache_invalidations_per_update",
          Ratio(reg.Count("dqmo_node_cache_invalidations_total"),
                updates_acked),
          "count");
    m.Add("rtree.pages_per_1k_segments",
          Ratio(static_cast<double>(pages), static_cast<double>(loaded) / 1000.0),
          "count");
    m.Add("storage.pool_hit_ratio",
          Ratio(static_cast<double>(hits1 - hits0),
                static_cast<double>(hits1 - hits0 + misses1 - misses0)),
          "ratio");
    m.Add("storage.pool_evictions_per_frame",
          Ratio(reg.Count("dqmo_pool_evictions_total"), fr), "count");
    m.Add("storage.physical_reads_per_frame",
          Ratio(static_cast<double>(qs.node_reads), fr), "count");
    m.Add("storage.disk_read_ns_mean",
          Ratio(reg.Sum("dqmo_disk_read_ns"), reg.Count("dqmo_disk_read_ns")),
          "ns");
    const double issued = static_cast<double>(io.prefetch_issued);
    m.Add("storage.prefetch_hit_ratio",
          Ratio(static_cast<double>(io.prefetch_hits), issued), "ratio");
    m.Add("storage.prefetch_wasted_ratio",
          Ratio(static_cast<double>(io.prefetch_wasted), issued), "ratio");
    m.Add("storage.wal_syncs_per_update",
          Ratio(reg.Count("dqmo_wal_syncs_total"), updates_acked), "count");
    m.Add("storage.wal_sync_ns_mean",
          Ratio(reg.Sum("dqmo_wal_sync_ns"), reg.Count("dqmo_wal_sync_ns")),
          "ns");
    m.Add("storage.checkpoint_pages_written",
          static_cast<double>(live.checkpoint_pages), "count");
    m.Add("storage.write_bytes_per_update",
          Ratio(reg.Count("dqmo_wal_synced_bytes_total") +
                    static_cast<double>(live.checkpoint_pages) * kPageSize,
                updates_acked),
          "B");
    if (!args.spans_out.empty() && !spans.WriteJsonLines(args.spans_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.spans_out.c_str());
    }
  }
  m.Print(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, m.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dqbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--spans-out FILE]\n");
    return 2;
  }
  return perfbench::Run(args);
}
