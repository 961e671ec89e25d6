#!/usr/bin/env bash
# Tier-1 verification, run three times: a Release-flavored build (the exact
# configuration the benchmarks use), an ASan/UBSan build that shakes out
# memory and UB bugs the optimizer can hide, and a TSan build that runs the
# concurrency test layer (executor + oracle sweep) against the
# multi-session query engine — including the durable-writes executor test,
# whose WAL appends happen under the TreeGate write guard. A
# crash-recovery stage re-runs the fork-based kill tests (every registered
# CrashPoint) explicitly under the default build and once under ASan, then
# smoke-runs the CI-size durability ablation. A final hot-path stage gates
# the A15 ablation: the zero-copy query hot path must beat the legacy AoS
# path by >= 2x ns/entry at -O3, with and without SIMD. All must pass
# cleanly.
#
#   tools/ci.sh [jobs]
#
# Build trees live in build-ci/{release,sanitize,tsan,perfbench}, leaving
# the developer's ./build untouched.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"

run_pass() {
  local name="$1"
  shift
  local dir="build-ci/${name}"
  echo "==== [${name}] configure ===="
  cmake -B "${dir}" -S . -DDQMO_WERROR=ON "$@"
  echo "==== [${name}] build ===="
  cmake --build "${dir}" -j "${jobs}"
  echo "==== [${name}] test ===="
  ctest --test-dir "${dir}" --output-on-failure -j "${jobs}"
}

run_pass release -DCMAKE_BUILD_TYPE=Release
run_pass sanitize -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDQMO_SANITIZE=address

# TSan pass: build everything, but run only the tests that exercise real
# concurrency plus one differential-oracle sweep seed — TSan's 5-15x
# slowdown makes the full suite impractical in this stage, and the
# single-threaded tests gain nothing from it.
tsan_dir="build-ci/tsan"
echo "==== [tsan] configure ===="
cmake -B "${tsan_dir}" -S . -DDQMO_WERROR=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDQMO_SANITIZE=thread
echo "==== [tsan] build ===="
cmake --build "${tsan_dir}" -j "${jobs}"
echo "==== [tsan] executor tests ===="
"${tsan_dir}/tests/executor_test"
"${tsan_dir}/tests/determinism_test"
echo "==== [tsan] hot-path kernels + decoded-node cache ===="
"${tsan_dir}/tests/kernels_test"
echo "==== [tsan] metrics histogram hammer ===="
"${tsan_dir}/tests/metrics_test"
echo "==== [tsan] oracle sweep (seed 1) ===="
"${tsan_dir}/tests/oracle_test" --gtest_filter='*seed1'
echo "==== [tsan] overload: cancellation/deadline hammer + chaos sweep ===="
"${tsan_dir}/tests/overload_test"
echo "==== [tsan] tracer remote-attribution + flight-recorder ring hammer ===="
"${tsan_dir}/tests/trace_test"
"${tsan_dir}/tests/recorder_test"

# Crash-recovery stage: the fork-based kill tests kill a child at every
# registered CrashPoint and assert recovery matches the oracle on the
# durable prefix. Run explicitly (they are in ctest too, but a regression
# here must be unmissable): once against the default build, once under
# ASan — fork is safe in both, unlike TSan. Then the CI-size durability
# ablation proves the WAL/recovery path works end-to-end at bench scale.
echo "==== [crash-recovery] default-build kill tests ===="
"build-ci/release/tests/recovery_test"
"build-ci/release/tests/wal_test"
echo "==== [crash-recovery] asan kill tests ===="
"build-ci/sanitize/tests/recovery_test"
echo "==== [crash-recovery] CI-size recovery ablation ===="
DQMO_RECOVERY_INSERTS=1000 "build-ci/release/bench/abl_recovery"

# Hot-path performance gate: the A15 ablation at CI size, against the
# Release (-O3) build the kernels are tuned for. DQMO_CHECK_SPEEDUP=1 makes
# the binary exit non-zero unless the full hot path (decoded-node cache +
# SoA kernels + SIMD dispatch) beats the legacy AoS path by >= 2x ns/entry;
# the binary itself also asserts bit-identical checksums across every
# configuration. A second run with DQMO_DISABLE_SIMD=1 proves the scalar
# fallback both stays correct and still clears the gate on cache + SoA
# alone.
hot_path_env=(DQMO_OBJECTS=1500 DQMO_TRAJECTORIES=8 DQMO_HOT_PATH_FRAMES=40
              DQMO_CACHE_DIR=build-ci/dqmo_cache DQMO_CHECK_SPEEDUP=1)
echo "==== [hot-path] A15 ablation gate (auto SIMD) ===="
env "${hot_path_env[@]}" "build-ci/release/bench/abl_hot_path"
echo "==== [hot-path] A15 ablation gate (DQMO_DISABLE_SIMD=1 fallback) ===="
env "${hot_path_env[@]}" DQMO_DISABLE_SIMD=1 \
  "build-ci/release/bench/abl_hot_path"

# Overload-resilience gate: the A16 ablation with its invariants armed.
# DQMO_CHECK_OVERLOAD=1 makes the binary abort unless the resilient stack
# sheds before it falls over — at 1x load zero sheds and zero rejections;
# under the 4x burst with injected slow reads the queue depth stays at its
# bound, p99 submit-to-start wait beats the unbounded baseline, shed and
# reject counters are nonzero, and the protected-class (interactive +
# normal) goodput holds at >= 50% of the 1x yardstick.
echo "==== [overload] A16 overload-resilience gate ===="
env DQMO_OBJECTS=2000 DQMO_CACHE_DIR=build-ci/dqmo_cache \
  DQMO_CHECK_OVERLOAD=1 "build-ci/release/bench/abl_overload"

# Sharding stage: the cross-shard differential layer (merge exactness,
# per-shard fault attribution, durable shard layout) under ASan, the
# router/writer hammer under TSan, and the A17 ablation at CI scale — the
# binary itself aborts unless every shard count's merged per-session
# checksums are byte-identical, so this doubles as the N-shard vs 1-shard
# equality gate.
echo "==== [sharding] shard_test (asan) ===="
"build-ci/sanitize/tests/shard_test"
echo "==== [sharding] router + per-shard writer hammer (tsan) ===="
"build-ci/tsan/tests/shard_test" --gtest_filter='ShardConcurrencyTest.*'
echo "==== [sharding] A17 ablation merged-checksum equality gate ===="
env DQMO_OBJECTS=60000 "build-ci/release/bench/abl_sharding"

# Chaos stage: the shard failure-domain layer under its seeded chaos
# harness — shard death, corruption bursts, slow-I/O storms, and
# crash-restart mid-repair at every scrub crash point, each program run
# differentially against a clean twin (ASan); the frames/inserts/faults/
# scrubber race under TSan; then the A18 failover ablation with its gate
# armed — with 1 of 16 shards killed the healthy-shard p99 must hold
# within 20% of the healthy baseline, and after online scrub + probation
# the same sweep must be byte-identical to it.
echo "==== [chaos] chaos harness (asan) ===="
"build-ci/sanitize/tests/chaos_test"
echo "==== [chaos] scrubber/router/writer hammer (tsan) ===="
"build-ci/tsan/tests/chaos_test" --gtest_filter='ChaosHammer*'
echo "==== [chaos] A18 failover gate ===="
env DQMO_OBJECTS=60000 DQMO_CHECK_FAILOVER=1 \
  "build-ci/release/bench/abl_failover"

# Disk stage: the disk-resident page store's differential layer under ASan
# (page-level round-trips, image interop, prefetch accounting closure, and
# the 8-seed x {PDQ,NPDQ,kNN} x {memory,pread,uring} sweep that holds
# checksums and node-level read counts byte-identical across backends),
# then the A19 cold-cache ablation with its gate armed: under the modeled
# device latency, the PDQ-driven prefetch must cut frame p99 by >= 1.5x
# with all arm checksums identical. When io_uring is unavailable the kUring
# arm degrades to the thread-pool queue — still a correctness pass, but
# uring-specific coverage is skipped, with notice.
echo "==== [disk] backend-equivalence tests (asan) ===="
"build-ci/sanitize/tests/disk_file_test"
"build-ci/sanitize/tests/disk_backend_test"
echo "==== [disk] A19 cold-cache prefetch gate ===="
disk_log="build-ci/abl_disk.log"
env DQMO_OBJECTS=60000 DQMO_CHECK_SPEEDUP=1 \
  "build-ci/release/bench/abl_disk" | tee "${disk_log}"
if grep -q 'uring(->thread)' "${disk_log}"; then
  echo "NOTICE: io_uring unavailable on this host; the kUring equivalence"
  echo "arm ran on the thread-pool fallback (uring-specific coverage"
  echo "skipped — the degradation path itself is what was exercised)."
fi

# Metrics stage, part 1: the observability layer must be free when turned
# off. Build abl_hot_path once with the compile-time kill switch
# (-DDQMO_METRICS=OFF — every record site folds out) and compare its full
# hot-path ns/entry against the instrumented Release build running under
# DQMO_METRICS=off (runtime gate only). Min of 5 runs each to shed timing
# noise; the runtime-gated build must stay within 3% of the compiled-out
# baseline, or the "one predictable branch" cost model is broken.
nometrics_dir="build-ci/nometrics"
echo "==== [metrics] configure compiled-out baseline ===="
cmake -B "${nometrics_dir}" -S . -DDQMO_WERROR=ON \
  -DCMAKE_BUILD_TYPE=Release -DDQMO_METRICS=OFF
echo "==== [metrics] build abl_hot_path (metrics compiled out) ===="
cmake --build "${nometrics_dir}" -j "${jobs}" -- abl_hot_path

# The binaries write BENCH_abl_hot_path.json into their cwd under --json;
# run them in a scratch dir so the repo-root committed copy is untouched.
metrics_tmp="build-ci/metrics-tmp"
rm -rf "${metrics_tmp}"
mkdir -p "${metrics_tmp}"
hot_path_abs_env=(DQMO_OBJECTS=1500 DQMO_TRAJECTORIES=8
                  DQMO_HOT_PATH_FRAMES=40
                  DQMO_CACHE_DIR="${PWD}/build-ci/dqmo_cache")

min_ns_per_entry() {  # $1: binary, $2: extra env (NAME=val or empty)
  local binary="$1" extra="${2:-DQMO_UNUSED=0}" best="" run
  for _ in 1 2 3 4 5; do
    (cd "${metrics_tmp}" &&
     env "${hot_path_abs_env[@]}" "${extra}" "${binary}" --json >/dev/null)
    run="$(python3 -c '
import json
with open("'"${metrics_tmp}"'/BENCH_abl_hot_path.json") as f:
    rows = json.load(f)["rows"]
print(rows[-1]["ns_per_entry"])  # Last config = full hot path.
')"
    if [[ -z "${best}" ]] || python3 -c "exit(0 if ${run} < ${best} else 1)"
    then best="${run}"; fi
  done
  echo "${best}"
}

echo "==== [metrics] hot-path overhead gate (3% vs compiled-out) ===="
off_ns="$(min_ns_per_entry "${PWD}/${nometrics_dir}/bench/abl_hot_path")"
on_ns="$(min_ns_per_entry "${PWD}/build-ci/release/bench/abl_hot_path" \
                          DQMO_METRICS=off)"
echo "compiled-out: ${off_ns} ns/entry; runtime-off: ${on_ns} ns/entry"
python3 -c "
off, on = ${off_ns}, ${on_ns}
overhead = (on - off) / off * 100
print(f'runtime-gated overhead: {overhead:+.2f}%')
assert on <= off * 1.03, (
    f'FAIL: DQMO_METRICS=off hot path {on:.2f} ns/entry exceeds the '
    f'compiled-out baseline {off:.2f} by more than 3%')
"

# Recorder overhead gate: the always-on flight recorder must be nearly
# free. Same protocol as the metrics gate above (min of 5, full hot path
# ns/entry, instrumented Release build), comparing DQMO_RECORDER=off
# against the default-on configuration: recording an event is three
# relaxed stores plus a release head bump, so default-on must stay within
# 3% of off or the always-on posture is not viable.
echo "==== [recorder] flight-recorder overhead gate (3% vs off) ===="
rec_off_ns="$(min_ns_per_entry "${PWD}/build-ci/release/bench/abl_hot_path" \
                               DQMO_RECORDER=off)"
rec_on_ns="$(min_ns_per_entry "${PWD}/build-ci/release/bench/abl_hot_path")"
echo "recorder-off: ${rec_off_ns} ns/entry; recorder-on: ${rec_on_ns} ns/entry"
python3 -c "
off, on = ${rec_off_ns}, ${rec_on_ns}
overhead = (on - off) / off * 100
print(f'flight-recorder overhead: {overhead:+.2f}%')
assert on <= off * 1.03, (
    f'FAIL: default-on flight recorder hot path {on:.2f} ns/entry exceeds '
    f'the DQMO_RECORDER=off baseline {off:.2f} by more than 3%')
"

# Metrics stage, part 2: `dqmo_tool stats` must emit parseable Prometheus
# text exposition covering at least 40 distinct metric families across the
# storage / WAL / gate / cache / query layers, plus the resilience and
# observability layers added since: breaker / hedged / scrub / redo (shard
# failure domains), disk / prefetch (disk-resident store), trace / span /
# recorder (causal tracing + flight recorder).
echo "==== [metrics] dqmo_tool stats Prometheus exposition ===="
stats_pgf="${metrics_tmp}/ci-stats.pgf"
"build-ci/release/tools/dqmo_tool" build "${stats_pgf}" --objects 300
"build-ci/release/tools/dqmo_tool" stats "${stats_pgf}" \
  > "${metrics_tmp}/stats.prom"
awk '
  /^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* / { next }
  /^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$/ {
    families[$3] = 1; next
  }
  /^#/ { print "bad comment line: " $0; bad = 1; next }
  /^dqmo_[a-z0-9_]+(\{le="([0-9]+|\+Inf)"\})? -?[0-9]+(\.[0-9]+)?$/ { next }
  { print "bad sample line: " $0; bad = 1 }
  END {
    layers["storage"]; layers["wal"]; layers["gate"]
    layers["pool"]; layers["node_cache"]; layers["pdq"]
    layers["breaker"]; layers["hedged"]; layers["scrub"]; layers["redo"]
    layers["disk"]; layers["prefetch"]
    layers["trace"]; layers["span"]; layers["recorder"]
    n = 0
    for (f in families) {
      ++n
      for (l in layers) if (index(f, "dqmo_" l "_") == 1) seen[l] = 1
    }
    printf "prometheus exposition: %d metric families\n", n
    if (n < 40) { print "FAIL: fewer than 40 metric families"; bad = 1 }
    for (l in layers) if (!(l in seen)) {
      print "FAIL: no dqmo_" l "_* metric in the exposition"; bad = 1
    }
    exit bad
  }
' "${metrics_tmp}/stats.prom"

# Benchmark smoke: one short seeded run of each BENCHMARK.json workload
# through the production path (ShardedEngine + ShardRouter, built from
# this checkout into build-ci/perfbench). run.py exits non-zero when a
# session checksum disagrees with the 1-shard serial replay or a durable
# reopen does not match, so the bench's own correctness gate runs here.
for workload in pdq_flyover_mem npdq_knn_sharded_disk mixed_updates_durable; do
  echo "==== [perfbench] ${workload} smoke ===="
  CARGO_TARGET_DIR=build-ci/perfbench python3 perfbench/run.py \
    --workload "${workload}" --seed 1 --seconds 2 --trace 0
done

echo "==== ci.sh: all passes green ===="
