// Chaos harness for the shard failure-domain layer (server/health.h,
// server/scrubber.h): scripted fault programs run differentially against a
// clean twin engine, with three invariants that must hold through every
// program:
//
//   1. No acked-write loss: every Insert that returned OK is queryable
//      after recovery, even when it was parked for a quarantined shard and
//      the process crashed mid-repair.
//   2. Monotone recovery: once the chaos clears, the breaker promotes
//      (open -> half-open -> closed) and stays closed; a fresh
//      differential sweep is byte-identical to the twin.
//   3. Healthy-shard isolation: quarantining shard X never changes a byte
//      of shard Y's answers. NPDQ holds it per shard
//      (FrameRecord::shard_checksums, compared frame by frame against the
//      twin). A kNN search on one shard is bounded by the other shards'
//      answers, so kNN holds it on merged answers: equal to the twin's
//      outside the fault window, and, on every frame where X served
//      nothing, equal to a twin that never held X's segments or writes.
//
// Programs: shard death (every read fails), at-rest corruption bursts
// (repaired online from checkpoint + WAL), slow-I/O storms (never
// quarantined), and crash-restart mid-repair (fork-based, one child per
// scrub crash point). Every schedule is seed-deterministic.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "oracle.h"
#include "server/health.h"
#include "server/router.h"
#include "server/scrubber.h"
#include "server/shard.h"
#include "storage/fault.h"
#include "test_util.h"
#include "workload/data_generator.h"

namespace dqmo {
namespace {

using ::dqmo::testing::ShardedOracle;

constexpr int kChaosSeeds = 8;
constexpr int kShards = 6;
constexpr int kFrames = 30;
constexpr int kFaultFrame = 8;
constexpr int kHealFrame = 18;
constexpr int kExtrasPerFrame = 2;
// FrameRecords: frames[] position f holds 1-based frame f + 1, and the
// fault and heal events fire before their frames read, so positions
// [kFaultPos, kHealPos) are the fault window.
constexpr size_t kFaultPos = kFaultFrame - 1;
constexpr size_t kHealPos = kHealFrame - 1;

std::vector<MotionSegment> ShapedData(WorkloadShape shape, uint64_t seed,
                                      int objects = 220,
                                      double horizon = 12.0) {
  DataGeneratorOptions opt;
  opt.num_objects = objects;
  opt.horizon = horizon;
  opt.seed = seed;
  opt.shape = shape;
  auto data = GenerateMotionData(opt);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return data.ok() ? std::move(data).value() : std::vector<MotionSegment>{};
}

/// Engine options every chaos program shares: failure domains on, no
/// decoded-node cache (every node visit must reach the breaker-gated
/// pool), and a breaker tuned for short deterministic programs — trips on
/// 2 consecutive exhausted reads, promotes only via the scrubber
/// (cooldown 0), probes every half-open frame, closes after 2 healthy
/// probes.
ShardedEngineOptions ChaosOptions(const std::string& durable_dir = "") {
  ShardedEngineOptions opt;
  opt.num_shards = kShards;
  opt.cache_nodes = 0;
  opt.failure_domains = true;
  opt.durable_dir = durable_dir;
  opt.breaker.consecutive_failures = 2;
  opt.breaker.cooldown_frames = 0;
  opt.breaker.probe_rate = 1.0;
  opt.breaker.probe_successes_to_close = 2;
  return opt;
}

std::unique_ptr<ShardedEngine> MakeEngine(
    const ShardedEngineOptions& opt, const std::vector<MotionSegment>& data) {
  auto engine = ShardedEngine::Create(opt);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return nullptr;
  EXPECT_TRUE((*engine)->InsertBatch(data).ok());
  return std::move(engine).value();
}

/// Exactly `count` extra segments for per-frame insert schedules, with
/// oids offset so they can never collide with a ShapedData base set.
std::vector<MotionSegment> ExtraStream(WorkloadShape shape, uint64_t seed,
                                       int count) {
  std::vector<MotionSegment> raw = ShapedData(shape, seed, count, 12.0);
  EXPECT_GE(raw.size(), static_cast<size_t>(count));
  std::vector<MotionSegment> extras;
  extras.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count && i < static_cast<int>(raw.size()); ++i) {
    extras.emplace_back(raw[static_cast<size_t>(i)].oid + 100000,
                        raw[static_cast<size_t>(i)].seg);
  }
  return extras;
}

SessionSpec ChaosSpec(SessionKind kind, uint64_t seed, int frames = kFrames) {
  SessionSpec spec;
  spec.kind = kind;
  spec.seed = 100 + seed;
  spec.frames = frames;
  spec.t0 = 1.0 + 0.05 * static_cast<double>(seed);
  spec.region_hi = 94.0;
  return spec;
}

/// The FrameRecord entry of a shard that served nothing on a frame: the
/// FNV-1a offset basis, the fold of an empty answer.
constexpr uint64_t kEmptyFold = 1469598103934665603ULL;

/// A kNN frame reads only the shards its running k-th distance reaches,
/// so the programs fly their kNN observer over the sick shard: inside the
/// diagonal square [lo, hi]^2 of the shard's root MBR (the observer
/// bounces inside such a square). Bounds only grow with inserts, so the
/// shard's root distance stays 0 and every kNN frame reads it.
void FlyOver(ShardedEngine* engine, int shard, SessionSpec* spec) {
  auto root = engine->shard(shard).tree->RootBounds();
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  const Box& box = root->spatial;
  spec->region_lo = std::max(box.extent(0).lo, box.extent(1).lo);
  spec->region_hi = std::min(box.extent(0).hi, box.extent(1).hi);
  ASSERT_LT(spec->region_lo, spec->region_hi);
}

/// Runs `spec` against `engine` with per-frame inserts from `extras`
/// (kExtrasPerFrame per frame — both engines of a differential pair get
/// the identical schedule) plus an optional chaos-event callback that
/// fires after the frame's inserts. Extras routed to `drop_shard` are left
/// out (a twin that never held that shard's writes).
ShardedSessionResult RunWithSchedule(
    ShardedEngine* engine, const SessionSpec& spec,
    const std::vector<MotionSegment>& extras,
    std::function<void(int frame)> events = nullptr, int drop_shard = -1) {
  ShardRouter::Options ropt;
  ropt.spatial_prune = false;  // Every shard evaluated every frame.
  ropt.record_frames = true;
  ropt.frame_hook = [&extras, engine, events, drop_shard](int frame) {
    // Router frames are 1-based.
    for (int j = 0; j < kExtrasPerFrame; ++j) {
      const size_t idx = static_cast<size_t>(frame - 1) * kExtrasPerFrame +
                         static_cast<size_t>(j);
      if (idx < extras.size() &&
          engine->map().ShardOf(extras[idx]) != drop_shard) {
        EXPECT_TRUE(engine->Insert(extras[idx]).ok())
            << "insert at frame " << frame;
      }
    }
    if (events) events(frame);
  };
  return ShardRouter(engine, ropt).RunOne(spec);
}

/// Runs `spec` on a twin that never held shard `sick`'s segments (of
/// `data`) or writes (of `extras`): what a frame that read nothing from
/// `sick` must deliver.
ShardedSessionResult RunWithoutShard(const ShardMap& map,
                                     const std::vector<MotionSegment>& data,
                                     const SessionSpec& spec,
                                     const std::vector<MotionSegment>& extras,
                                     int sick) {
  std::vector<MotionSegment> kept;
  for (const MotionSegment& m : data) {
    if (map.ShardOf(m) != sick) kept.push_back(m);
  }
  std::unique_ptr<ShardedEngine> bare = MakeEngine(ChaosOptions(), kept);
  EXPECT_NE(bare, nullptr);
  if (bare == nullptr) return {};
  return RunWithSchedule(bare.get(), spec, extras, nullptr, sick);
}

/// Invariant 3 for NPDQ: every healthy shard's pre-merge frame answer is
/// byte-identical to the twin's, on every frame, chaos or not.
void ExpectHealthyShardsIdentical(const ShardedSessionResult& got,
                                  const ShardedSessionResult& want, int sick,
                                  const std::string& label) {
  ASSERT_EQ(got.frames.size(), want.frames.size()) << label;
  for (size_t f = 0; f < got.frames.size(); ++f) {
    ASSERT_EQ(got.frames[f].shard_checksums.size(),
              want.frames[f].shard_checksums.size());
    for (size_t s = 0; s < got.frames[f].shard_checksums.size(); ++s) {
      if (static_cast<int>(s) == sick) continue;
      EXPECT_EQ(got.frames[f].shard_checksums[s],
                want.frames[f].shard_checksums[s])
          << label << " frame " << f << " healthy shard " << s;
      EXPECT_EQ(got.frames[f].shard_blocked[s], 0) << label << " frame " << f;
    }
  }
}

/// Invariant 3 for kNN, on merged answers. Outside the fault window every
/// frame equals the twin's. On every frame where the sick shard served
/// nothing, it equals `bare`'s (RunWithoutShard). Healthy shards are never
/// blocked.
void ExpectKnnFramesExact(const ShardedSessionResult& got,
                          const ShardedSessionResult& want,
                          const ShardedSessionResult& bare, int sick,
                          const std::string& label) {
  ASSERT_EQ(got.frames.size(), want.frames.size()) << label;
  ASSERT_EQ(got.frames.size(), bare.frames.size()) << label;
  const size_t sick_slot = static_cast<size_t>(sick);
  for (size_t f = 0; f < got.frames.size(); ++f) {
    const ShardedSessionResult::FrameRecord& frame = got.frames[f];
    if (f < kFaultPos || f >= kHealPos) {
      EXPECT_EQ(frame.merged_checksum, want.frames[f].merged_checksum)
          << label << " frame " << f << " outside the fault window";
    }
    if (frame.shard_checksums[sick_slot] == kEmptyFold) {
      EXPECT_EQ(frame.merged_checksum, bare.frames[f].merged_checksum)
          << label << " frame " << f << " without the sick shard";
    }
    for (size_t s = 0; s < frame.shard_blocked.size(); ++s) {
      if (s == sick_slot) continue;
      EXPECT_EQ(frame.shard_blocked[s], 0) << label << " frame " << f;
    }
  }
}

/// Skips attributed to exactly the sick slot; everything else clean.
void ExpectSkipsOnlyIn(const ShardedSessionResult& got, int sick,
                       const std::string& label) {
  ASSERT_EQ(got.shard_skips.size(), static_cast<size_t>(kShards)) << label;
  EXPECT_GT(got.shard_skips[static_cast<size_t>(sick)].pages_skipped(), 0u)
      << label;
  for (int s = 0; s < kShards; ++s) {
    if (s == sick) continue;
    EXPECT_EQ(got.shard_skips[static_cast<size_t>(s)].pages_skipped(), 0u)
        << label << " shard " << s;
  }
}

/// Invariant 2's second half: after the program ends, a *fresh*
/// differential sweep over both engines must be byte-identical — the
/// chaos engine's trees (including drained parked writes) converged to
/// the twin's exactly.
void ExpectConvergedToTwin(ShardedEngine* chaos, ShardedEngine* twin,
                           uint64_t seed, const std::string& label) {
  ASSERT_EQ(chaos->num_segments(), twin->num_segments()) << label;
  ShardRouter::Options ropt;
  ropt.spatial_prune = false;
  for (SessionKind kind :
       {SessionKind::kSession, SessionKind::kNpdq, SessionKind::kKnn}) {
    const SessionSpec spec = ChaosSpec(kind, seed + 50, 12);
    const ShardedSessionResult got = ShardRouter(chaos, ropt).RunOne(spec);
    const ShardedSessionResult want = ShardRouter(twin, ropt).RunOne(spec);
    ASSERT_TRUE(got.result.status.ok()) << label;
    EXPECT_EQ(got.result.checksum, want.result.checksum)
        << label << " post-recovery kind " << static_cast<int>(kind);
    EXPECT_EQ(got.result.objects_delivered, want.result.objects_delivered)
        << label;
    EXPECT_EQ(got.frames_partial, 0u) << label;
  }
}

// ---------------------------------------------------------------------------
// Program 1: shard death. Every read of the sick shard fails from
// kFaultFrame; at kHealFrame the fault clears and a scrub pass promotes.

TEST(ChaosShardDeathTest, QuarantineServesPartialThenRecoversByteIdentical) {
  for (uint64_t seed = 0; seed < kChaosSeeds; ++seed) {
    const std::vector<MotionSegment> data =
        ShapedData(WorkloadShape::kUniform, seed + 1);
    const std::vector<MotionSegment> extras = ExtraStream(
        WorkloadShape::kSkewed, seed + 1000, kFrames * kExtrasPerFrame);
    ASSERT_EQ(extras.size(), static_cast<size_t>(kFrames * kExtrasPerFrame));

    // kNpdq and kKnn re-read the tree every frame, so the quarantine is
    // exercised mid-stream; the predictive kSession executes its window up
    // front and is covered by the mid-stream test in tests/shard_test.cc.
    const SessionKind kind =
        seed % 2 == 0 ? SessionKind::kNpdq : SessionKind::kKnn;
    std::unique_ptr<ShardedEngine> engine = MakeEngine(ChaosOptions(), data);
    std::unique_ptr<ShardedEngine> twin = MakeEngine(ChaosOptions(), data);
    ASSERT_NE(engine, nullptr);
    ASSERT_NE(twin, nullptr);
    // An extra inserted mid-quarantine picks the sick shard, so the redo
    // queue provably sees traffic.
    const int sick = engine->map().ShardOf(
        extras[static_cast<size_t>((kFaultFrame + 3) * kExtrasPerFrame)]);
    ShardScrubber scrubber(engine.get(), ScrubOptions());
    SessionSpec spec = ChaosSpec(kind, seed);
    if (kind == SessionKind::kKnn) FlyOver(engine.get(), sick, &spec);

    const ShardedSessionResult want =
        RunWithSchedule(twin.get(), spec, extras);
    const ShardedSessionResult got = RunWithSchedule(
        engine.get(), spec, extras, [&](int frame) {
          if (frame == kFaultFrame) {
            FaultInjector::Options f;
            f.fail_every_kth = 1;  // Every read fails: the shard is dead.
            engine->ArmShardFault(sick, f);
          }
          if (frame == kHealFrame) {
            engine->ClearShardFault(sick);
            const auto rep = scrubber.ScrubPass();
            EXPECT_EQ(rep.shards_scrubbed, 1);
            EXPECT_EQ(rep.shards_promoted, 1);
          }
        });

    const std::string label = "death seed " + std::to_string(seed) +
                              " kind " + std::to_string(static_cast<int>(kind));
    ASSERT_TRUE(got.result.status.ok()) << label;
    ASSERT_TRUE(want.result.status.ok()) << label;

    // Degradation was visible, attributed, and bounded to the program.
    EXPECT_GT(got.frames_partial, 0u) << label;
    EXPECT_GE(got.frames_quarantined, 5u) << label;
    ExpectSkipsOnlyIn(got, sick, label);
    EXPECT_EQ(want.frames_partial, 0u) << label;
    if (kind == SessionKind::kNpdq) {
      ExpectHealthyShardsIdentical(got, want, sick, label);
    } else {
      ExpectKnnFramesExact(
          got, want,
          RunWithoutShard(engine->map(), data, spec, extras, sick), sick,
          label);
      // A dead shard serves nothing: every dark frame is the bare twin's.
      for (size_t f = kFaultPos; f < kHealPos; ++f) {
        EXPECT_EQ(got.frames[f].shard_checksums[static_cast<size_t>(sick)],
                  kEmptyFold)
            << label << " dark frame " << f;
      }
    }

    // The breaker tripped, the scrub promoted it, probes closed it.
    CircuitBreaker* b = engine->breaker(sick);
    EXPECT_GE(b->open_events(), 1u) << label;
    EXPECT_EQ(b->state(), BreakerState::kClosed) << label;
    EXPECT_GT(b->probe_frames(), 0u) << label;

    // Writes parked while dark were drained, not dropped.
    EXPECT_GT(engine->shard(sick).redo->total_parked(), 0u) << label;
    EXPECT_EQ(engine->shard(sick).redo->depth(), 0u) << label;

    // kNpdq resyncs via the router's ResetHistory at reinstatement: the
    // first post-heal frame re-delivers, everything after matches the
    // twin frame-for-frame. kKnn is stateless: equal from the heal frame
    // (the drain ran before its locks). kSession resyncs through the
    // PDQ->NPDQ handoff machinery within a bounded window.
    const size_t resync = kind == SessionKind::kKnn ? kHealPos : kHealPos + 1;
    for (size_t f = resync; f < got.frames.size(); ++f) {
      EXPECT_EQ(got.frames[f].merged_checksum, want.frames[f].merged_checksum)
          << label << " post-resync frame " << f;
    }

    // Recovery converged: a fresh sweep is byte-identical to the twin.
    ExpectConvergedToTwin(engine.get(), twin.get(), seed, label);

    // Oracle cross-check: partitioning stayed exact and lossless.
    ShardedOracle oracle(engine->map());
    for (const MotionSegment& m : data) oracle.Insert(m);
    for (const MotionSegment& m : extras) oracle.Insert(m);
    EXPECT_TRUE(oracle.PartitionExact()) << label;
    EXPECT_EQ(engine->num_segments(), data.size() + extras.size()) << label;
  }
}

// ---------------------------------------------------------------------------
// Program 2: at-rest corruption burst on a durable shard, repaired online
// (checkpoint image + WAL redo) by the scrubber.

TEST(ChaosCorruptionBurstTest, ScrubRebuildsDamagedPagesAndReinstates) {
  for (uint64_t seed = 0; seed < kChaosSeeds; ++seed) {
    const std::string dir = std::string(::testing::TempDir()) +
                            "/dqmo_chaos_corrupt_" + std::to_string(seed);
    const std::string twin_dir = dir + "_twin";
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(twin_dir);

    const std::vector<MotionSegment> data =
        ShapedData(WorkloadShape::kUniform, seed + 31);
    const std::vector<MotionSegment> extras = ExtraStream(
        WorkloadShape::kUniform, seed + 2000, kFrames * kExtrasPerFrame);

    // Half the data lands in the checkpoint image, half in the WAL tail,
    // so the online repair exercises both recovery layers.
    auto build = [&](const std::string& d) -> std::unique_ptr<ShardedEngine> {
      ShardedEngineOptions eopt = ChaosOptions(d);
      // Trip on the first exhausted read: the insert path reads the tree
      // to place a segment, so quarantine must engage within the very
      // frame the at-rest damage lands, before the next insert.
      eopt.breaker.consecutive_failures = 1;
      auto engine = ShardedEngine::Create(eopt);
      EXPECT_TRUE(engine.ok()) << engine.status().ToString();
      if (!engine.ok()) return nullptr;
      const size_t half = data.size() / 2;
      EXPECT_TRUE(
          (*engine)->InsertBatch({data.begin(), data.begin() + half}).ok());
      EXPECT_TRUE((*engine)->Checkpoint().ok());
      EXPECT_TRUE(
          (*engine)->InsertBatch({data.begin() + half, data.end()}).ok());
      return std::move(engine).value();
    };
    std::unique_ptr<ShardedEngine> engine = build(dir);
    std::unique_ptr<ShardedEngine> twin = build(twin_dir);
    ASSERT_NE(engine, nullptr);
    ASSERT_NE(twin, nullptr);

    const int sick = engine->map().ShardOf(data[0]);
    ASSERT_GT(engine->shard(sick).file->num_pages(), 0u);
    ShardScrubber scrubber(engine.get(), ScrubOptions());
    ShardScrubber::PassReport heal_report;

    const SessionKind kind =
        seed % 2 == 0 ? SessionKind::kNpdq : SessionKind::kKnn;
    SessionSpec spec = ChaosSpec(kind, seed);
    if (kind == SessionKind::kKnn) FlyOver(engine.get(), sick, &spec);
    const ShardedSessionResult want =
        RunWithSchedule(twin.get(), spec, extras);
    const ShardedSessionResult got = RunWithSchedule(
        engine.get(), spec, extras, [&](int frame) {
          if (frame == kFaultFrame) {
            // Damage the shard at rest: live pages flip bits, the pool is
            // dropped so the damage is what the next read sees. The
            // checkpoint image (written before the burst) stays clean —
            // that is what repair rebuilds from.
            ShardedEngine::Shard& s = engine->shard(sick);
            auto guard = s.gate->LockExclusive();
            const size_t n = std::min<size_t>(s.file->num_pages(), 4);
            for (PageId p = 0; p < n; ++p) {
              EXPECT_TRUE(s.file->CorruptPageForTest(p, 64, 0x5A).ok());
            }
            s.pool->Clear();
          }
          if (frame == kHealFrame) heal_report = scrubber.ScrubPass();
        });

    const std::string label = "corrupt seed " + std::to_string(seed);
    ASSERT_TRUE(got.result.status.ok()) << label;
    EXPECT_GT(got.frames_partial, 0u) << label;
    EXPECT_GE(got.frames_quarantined, 5u) << label;
    ExpectSkipsOnlyIn(got, sick, label);
    if (kind == SessionKind::kNpdq) {
      ExpectHealthyShardsIdentical(got, want, sick, label);
    } else {
      ExpectKnnFramesExact(
          got, want,
          RunWithoutShard(engine->map(), data, spec, extras, sick), sick,
          label);
    }

    // The scrub found the damage and rebuilt it from checkpoint + WAL.
    EXPECT_GT(heal_report.pages_bad, 0u) << label;
    EXPECT_EQ(heal_report.pages_rebuilt, heal_report.pages_bad) << label;
    EXPECT_EQ(heal_report.shards_promoted, 1) << label;
    EXPECT_EQ(heal_report.shards_unrepairable, 0) << label;
    EXPECT_EQ(engine->breaker(sick)->state(), BreakerState::kClosed) << label;
    EXPECT_EQ(engine->shard(sick).redo->depth(), 0u) << label;

    // Zero residual damage, byte-identical recovery.
    std::vector<PageId> bad;
    EXPECT_EQ(engine->shard(sick).file->VerifyAllPages(&bad), 0u) << label;
    ExpectConvergedToTwin(engine.get(), twin.get(), seed, label);

    engine.reset();
    twin.reset();
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(twin_dir);
  }
}

// ---------------------------------------------------------------------------
// Program 3: slow-I/O storm. The shard is slow but alive: the breaker must
// NOT open, and every delivered byte matches the twin on every frame.

TEST(ChaosSlowStormTest, SlowReadsNeverQuarantine) {
  for (uint64_t seed = 0; seed < kChaosSeeds; ++seed) {
    const std::vector<MotionSegment> data =
        ShapedData(WorkloadShape::kUniform, seed + 61);
    const std::vector<MotionSegment> extras =
        ExtraStream(WorkloadShape::kUniform, seed + 3000, 20);

    ShardedEngineOptions opt = ChaosOptions();
    // A tiny pool keeps reads flowing through the (slow) chain instead of
    // being absorbed by cache hits after the first frame.
    opt.pool_pages = 4;
    std::unique_ptr<ShardedEngine> engine = MakeEngine(opt, data);
    std::unique_ptr<ShardedEngine> twin = MakeEngine(opt, data);
    ASSERT_NE(engine, nullptr);
    ASSERT_NE(twin, nullptr);

    // The storm hits every shard: whichever shards the observer actually
    // reads this seed, their reads crawl.
    const SessionSpec spec = ChaosSpec(SessionKind::kNpdq, seed, 14);
    const ShardedSessionResult want = RunWithSchedule(twin.get(), spec, extras);
    const ShardedSessionResult got =
        RunWithSchedule(engine.get(), spec, extras, [&](int frame) {
          if (frame == 3) {
            for (int i = 0; i < kShards; ++i) {
              FaultInjector::Options f;
              f.slow_read_rate = 0.7;
              f.slow_read_delay_us = 800;
              f.seed = seed + 7 + static_cast<uint64_t>(i);
              engine->ArmShardFault(i, f);
            }
          }
          if (frame == 10) {
            for (int i = 0; i < kShards; ++i) engine->ClearShardFault(i);
          }
        });

    const std::string label = "slow seed " + std::to_string(seed);
    ASSERT_TRUE(got.result.status.ok()) << label;

    // Slow is not broken: no quarantine, no partial frames, and the
    // stream is byte-identical to the twin on *every* frame.
    for (int i = 0; i < kShards; ++i) {
      EXPECT_EQ(engine->breaker(i)->open_events(), 0u)
          << label << " shard " << i;
    }
    EXPECT_EQ(got.frames_partial, 0u) << label;
    EXPECT_EQ(got.frames_quarantined, 0u) << label;
    EXPECT_EQ(got.result.checksum, want.result.checksum) << label;
    ASSERT_EQ(got.frames.size(), want.frames.size()) << label;
    for (size_t f = 0; f < got.frames.size(); ++f) {
      EXPECT_EQ(got.frames[f].merged_checksum, want.frames[f].merged_checksum)
          << label << " frame " << f;
    }
  }
}

// ---------------------------------------------------------------------------
// Program 4: crash-restart mid-repair. A forked child quarantines a
// corrupted durable shard, parks acked writes, then dies at each scrub
// crash point; the parent re-opens the directory and must find every
// acknowledged write.

constexpr int kCrashFrames = 10;
constexpr int kCrashObjects = 120;

std::vector<MotionSegment> CrashExtras(uint64_t seed) {
  return ExtraStream(WorkloadShape::kUniform, seed + 4000,
                     kCrashFrames * kExtrasPerFrame);
}

ShardedEngineOptions CrashOptions(const std::string& dir) {
  ShardedEngineOptions opt = ChaosOptions(dir);
  opt.breaker.consecutive_failures = 1;  // Open on the first dead read.
  return opt;
}

/// Builds the full expected insert sequence into `dir` (no chaos): the
/// parent's reference for what the crashed child acknowledged.
std::unique_ptr<ShardedEngine> BuildCrashTwin(const std::string& dir,
                                              uint64_t seed) {
  auto engine = ShardedEngine::Create(CrashOptions(dir));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return nullptr;
  const std::vector<MotionSegment> data =
      ShapedData(WorkloadShape::kUniform, seed + 71, kCrashObjects);
  const size_t half = data.size() / 2;
  EXPECT_TRUE((*engine)->InsertBatch({data.begin(), data.begin() + half}).ok());
  EXPECT_TRUE((*engine)->Checkpoint().ok());
  EXPECT_TRUE((*engine)->InsertBatch({data.begin() + half, data.end()}).ok());
  for (const MotionSegment& m : CrashExtras(seed)) {
    EXPECT_TRUE((*engine)->Insert(m).ok());
  }
  return std::move(engine).value();
}

/// Child body. Exit codes: CrashPoints::kExitCode = died at the armed
/// crash point (the expected outcome), 0 = scrub completed without
/// crashing (a test bug), anything else = a precondition failed.
[[noreturn]] void RunCrashChild(const std::string& dir, uint64_t seed,
                                const char* point) {
  auto opened = ShardedEngine::Create(CrashOptions(dir));
  if (!opened.ok()) ::_exit(3);
  ShardedEngine* engine = opened->get();
  const std::vector<MotionSegment> data =
      ShapedData(WorkloadShape::kUniform, seed + 71, kCrashObjects);
  const size_t half = data.size() / 2;
  if (!engine->InsertBatch({data.begin(), data.begin() + half}).ok())
    ::_exit(4);
  if (!engine->Checkpoint().ok()) ::_exit(4);
  if (!engine->InsertBatch({data.begin() + half, data.end()}).ok()) ::_exit(4);

  const std::vector<MotionSegment> extras = CrashExtras(seed);
  // The sick shard must receive a post-quarantine insert (frame 5's first
  // extra — corruption lands at frame 3 and the breaker trips the same
  // frame), so the crash interleaves with a non-empty redo queue.
  const int sick =
      engine->map().ShardOf(extras[static_cast<size_t>(4 * kExtrasPerFrame)]);
  if (engine->shard(sick).file->num_pages() == 0) ::_exit(5);

  ShardRouter::Options ropt;
  ropt.spatial_prune = false;
  ropt.frame_hook = [&](int frame) {
    for (int j = 0; j < kExtrasPerFrame; ++j) {
      const size_t idx =
          static_cast<size_t>((frame - 1) * kExtrasPerFrame + j);
      // Every one of these returning OK is an acknowledgment the parent
      // will hold us to, parked or not.
      if (!engine->Insert(extras[idx]).ok()) ::_exit(6);
    }
    if (frame == 3) {
      {
        ShardedEngine::Shard& s = engine->shard(sick);
        auto guard = s.gate->LockExclusive();
        const size_t n = std::min<size_t>(s.file->num_pages(), 3);
        for (PageId p = 0; p < n; ++p) {
          if (!s.file->CorruptPageForTest(p, 64, 0x5A).ok()) ::_exit(7);
        }
        s.pool->Clear();
      }
      // Quarantine immediately: with some seeds no query read touches the
      // damaged shard before the next insert would, and an insert that
      // trips over at-rest damage fails instead of parking. Organic
      // tripping is programs 1-2's business; this program pins what a
      // crash during the subsequent repair does to acked writes.
      engine->breaker(sick)->ForceOpen("at-rest corruption burst");
    }
  };
  ShardRouter(engine, ropt)
      .RunOne(ChaosSpec(SessionKind::kNpdq, seed, kCrashFrames));
  if (engine->breaker(sick)->state() != BreakerState::kOpen) ::_exit(8);
  if (engine->shard(sick).redo->depth() == 0) ::_exit(9);

  CrashPoints::Arm(point);
  ShardScrubber(engine, ScrubOptions()).ScrubPass();
  ::_exit(0);  // The armed point was never reached.
}

TEST(ChaosCrashMidRepairTest, AckedWritesSurviveEveryScrubCrashPoint) {
  const char* points[] = {crash_points::kScrubBeforeRepair,
                          crash_points::kScrubBeforeDrain,
                          crash_points::kScrubAfterDrain};
  for (uint64_t seed = 0; seed < kChaosSeeds; ++seed) {
    const char* point = points[seed % 3];
    const std::string dir = std::string(::testing::TempDir()) +
                            "/dqmo_chaos_crash_" + std::to_string(seed);
    const std::string twin_dir = dir + "_twin";
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(twin_dir);

    const pid_t pid = ::fork();
    if (pid == 0) RunCrashChild(dir, seed, point);
    ASSERT_GT(pid, 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status))
        << "child died abnormally (signal " << WTERMSIG(status) << ")";
    ASSERT_EQ(WEXITSTATUS(status), CrashPoints::kExitCode)
        << "seed " << seed << " point " << point;

    // Recovery: re-open the directory the child died on. Every shard's
    // WAL (including the records parked writes appended) replays; the
    // result must be byte-identical to an engine that saw the same insert
    // sequence with no chaos at all.
    auto reopened = ShardedEngine::Create(CrashOptions(dir));
    ASSERT_TRUE(reopened.ok())
        << "seed " << seed << ": " << reopened.status().ToString();
    std::unique_ptr<ShardedEngine> twin = BuildCrashTwin(twin_dir, seed);
    ASSERT_NE(twin, nullptr);
    const std::string label =
        std::string("crash seed ") + std::to_string(seed) + " point " + point;
    ExpectConvergedToTwin(reopened->get(), twin.get(), seed, label);

    reopened->reset();
    twin.reset();
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(twin_dir);
  }
}

// ---------------------------------------------------------------------------
// Acked writes while quarantined: park -> drain -> queryable, and a
// checkpoint must skip (not orphan) a quarantined shard's parked tail.

TEST(ChaosRedoQueueTest, QuarantinedInsertParksAndDrainsOnReinstatement) {
  const std::vector<MotionSegment> data =
      ShapedData(WorkloadShape::kUniform, 5);
  std::unique_ptr<ShardedEngine> engine = MakeEngine(ChaosOptions(), data);
  ASSERT_NE(engine, nullptr);
  const uint64_t before = engine->num_segments();

  const MotionSegment extra(
      9001, StSegment(Vec(40, 40), Vec(41, 41), Interval(2.0, 3.0)));
  const int sick = engine->map().ShardOf(extra);
  engine->breaker(sick)->ForceOpen("test");

  // The insert acknowledges (OK) but parks: the tree is untouched.
  ASSERT_TRUE(engine->Insert(extra).ok());
  EXPECT_EQ(engine->shard(sick).redo->depth(), 1u);
  EXPECT_EQ(engine->num_segments(), before);

  ASSERT_TRUE(engine->DrainRedo(sick).ok());
  EXPECT_EQ(engine->shard(sick).redo->depth(), 0u);
  EXPECT_EQ(engine->num_segments(), before + 1);
}

TEST(ChaosRedoQueueTest, CheckpointSkipsQuarantinedShardWithParkedWrites) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/dqmo_chaos_ckpt";
  std::filesystem::remove_all(dir);
  const std::vector<MotionSegment> data =
      ShapedData(WorkloadShape::kUniform, 9, 80, 8.0);
  {
    auto engine = ShardedEngine::Create(ChaosOptions(dir));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->InsertBatch(data).ok());

    const MotionSegment extra(
        9002, StSegment(Vec(30, 30), Vec(31, 31), Interval(2.0, 3.0)));
    const int sick = (*engine)->map().ShardOf(extra);
    (*engine)->breaker(sick)->ForceOpen("test");
    ASSERT_TRUE((*engine)->Insert(extra).ok());

    // Checkpointing around the quarantined shard must not orphan the
    // parked record by resetting its WAL.
    ASSERT_TRUE((*engine)->Checkpoint().ok());
    EXPECT_EQ((*engine)->shard(sick).redo->depth(), 1u);
  }
  {
    // Reopen: the parked record was in the WAL, so recovery finds it.
    auto engine = ShardedEngine::Create(ChaosOptions(dir));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ((*engine)->num_segments(), data.size() + 1);
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Concurrency hammer (the TSan target in tools/ci.sh): router frames,
// inserts, fault arm/clear, and the background scrubber all racing on one
// engine. No budget and no hedging — the one documented unsafe pairing is
// concurrent budgeted sessions with hedging on.

TEST(ChaosHammerTest, FramesInsertsFaultsAndScrubberRaceSafely) {
  const std::vector<MotionSegment> data =
      ShapedData(WorkloadShape::kUniform, 41, 160, 12.0);
  std::unique_ptr<ShardedEngine> engine = MakeEngine(ChaosOptions(), data);
  ASSERT_NE(engine, nullptr);
  const std::vector<MotionSegment> extras =
      ShapedData(WorkloadShape::kSkewed, 42, 200, 12.0);

  ScrubOptions sopt;
  sopt.interval_ms = 1;
  ShardScrubber scrubber(engine.get(), sopt);
  scrubber.Start();

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  // Query threads: sharded sessions, back to back.
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&, t] {
      ShardRouter::Options ropt;
      ropt.spatial_prune = false;
      uint64_t round = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const SessionKind kind =
            round % 2 == 0 ? SessionKind::kNpdq : SessionKind::kKnn;
        const ShardedSessionResult r =
            ShardRouter(engine.get(), ropt)
                .RunOne(ChaosSpec(kind, static_cast<uint64_t>(t) + round, 8));
        if (!r.result.status.ok()) failed.store(true);
        ++round;
      }
    });
  }
  // Writer thread.
  workers.emplace_back([&] {
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (!engine->Insert(extras[i % extras.size()]).ok()) failed.store(true);
      ++i;
    }
  });
  // Chaos thread: trip shard 1, let the scrubber find and promote it.
  workers.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      FaultInjector::Options f;
      f.fail_every_kth = 1;
      engine->ArmShardFault(1, f);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      engine->ClearShardFault(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (std::thread& w : workers) w.join();
  scrubber.Stop();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(scrubber.passes(), 0u);

  // Settle: clear the fault, drain, and require a clean full recovery.
  engine->ClearShardFault(1);
  ShardScrubber settle(engine.get(), ScrubOptions());
  for (int i = 0;
       i < 3 && engine->breaker(1)->state() != BreakerState::kClosed; ++i) {
    settle.ScrubPass();
    ShardRouter::Options ropt;
    ropt.spatial_prune = false;
    ShardRouter(engine.get(), ropt).RunOne(ChaosSpec(SessionKind::kKnn, 99, 4));
  }
  EXPECT_EQ(engine->breaker(1)->state(), BreakerState::kClosed);
  EXPECT_EQ(engine->shard(1).redo->depth(), 0u);
}

}  // namespace
}  // namespace dqmo
