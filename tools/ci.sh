#!/usr/bin/env bash
# Tier-1 verification, run three times: a Release-flavored build (the exact
# configuration the benchmarks use), an ASan/UBSan build that shakes out
# memory and UB bugs the optimizer can hide, and a TSan build that runs the
# concurrency test layer (executor + oracle sweep) against the
# multi-session query engine — including the durable-writes executor test,
# whose DurableIndex inserts and syncs run inside the TreeGate write guard. A
# crash-recovery stage re-runs the fork-based kill tests (every registered
# CrashPoint) explicitly under the default build and once under ASan, then
# smoke-runs the CI-size durability ablation. A storage-tools stage drives
# dqmo_tool's scrub, walinfo and recover on real files, and an explain
# stage its traced sharded session on both backends. An env stage checks
# that only the observability and bench-harness files read the
# environment, that the docs name no variable nothing reads, that only
# the log and DurableIndex touch the WAL, that no source names the disk
# store's deleted working copy (CreateFromImage, dirty_frame_budget, a
# .live path: the checkpoint image is each disk shard's one file), and
# that no committed bench artifact names a metric family the code no
# longer registers. The TSan
# pass also runs disk_file_test, whose Prefetcher owns its pread worker
# threads. A hot-path stage gates the A15 ablation: the zero-copy query
# hot path must beat the paper's naive snapshot search by >= 1.2x
# ns/entry at -O3 (same process, min of alternating passes), with and
# without SIMD. A bench-check stage holds
# the committed bench counts and checksums exact (tools/bench.sh --check).
# All must pass cleanly.
#
#   tools/ci.sh [jobs]
#
# Build trees live in build-ci/{release,sanitize,tsan,perfbench}, leaving
# the developer's ./build untouched.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"

# Env stage (no build needed): the engine takes every setting from the code
# that runs it. Only these files may read the environment: the env helpers,
# the observability switches (metrics, recorder, tracer, SIMD tier, slow
# device reads) and the bench harness. And every DQMO_* name README.md or
# DESIGN.md mentions must be read by some GetEnv*/getenv call in src/,
# bench/ or tools/, unless it is a CMake option or macro (named in
# CMakeLists.txt).
echo "==== [env] one place reads the environment ===="
env_readers="$(grep -rlE 'GetEnv|getenv' src | sort)"
env_allowed="$(printf '%s\n' src/common/env.cc src/common/env.h \
  src/common/metrics.cc src/common/recorder.cc src/common/trace.cc \
  src/harness/experiment.cc src/query/kernels.cc src/storage/disk_file.cc |
  sort)"
env_extra="$(comm -23 <(echo "${env_readers}") <(echo "${env_allowed}"))"
if [[ -n "${env_extra}" ]]; then
  echo "FAIL: files outside the allowed set read the environment:"
  echo "${env_extra}"
  exit 1
fi
python3 - <<'PYEOF'
import pathlib
import re
import sys

read = set()
for root in ("src", "bench", "tools"):
    for path in pathlib.Path(root).rglob("*"):
        if path.suffix in (".cc", ".h"):
            read |= set(re.findall(r'(?:GetEnv\w*|getenv)\(\s*"(DQMO_\w+)"',
                                   path.read_text()))
cmake = set(re.findall(r"DQMO_\w+", pathlib.Path("CMakeLists.txt").read_text()))
bad = False
for doc in ("README.md", "DESIGN.md"):
    named = set(re.findall(r"DQMO_[A-Z0-9_]+", pathlib.Path(doc).read_text()))
    for name in sorted(named - read - cmake):
        print(f"FAIL: {doc} names {name}, which nothing reads")
        bad = True
sys.exit(1 if bad else 0)
PYEOF

# One owner for durability: DurableIndex (server/durability.*) logs, syncs
# and replays every write. With // comments stripped, no other src/ file
# but the log itself (storage/wal.*) may name the writer, its appends, or a
# wal() accessor.
echo "==== [env] one owner for the WAL ===="
wal_users=()
while IFS= read -r f; do
  case "${f}" in
    src/storage/wal.h | src/storage/wal.cc | src/server/durability.h | \
      src/server/durability.cc) continue ;;
  esac
  if sed 's|//.*||' "${f}" |
    grep -E '\b(WalWriter|AppendInsert|AppendCheckpoint)\b|\bwal\(\)' \
      > /dev/null; then
    wal_users+=("${f}")
  fi
done < <(find src \( -name '*.h' -o -name '*.cc' \) | sort)
if (( ${#wal_users[@]} > 0 )); then
  echo "FAIL: only storage/wal.* and server/durability.* may touch the WAL:"
  printf '%s\n' "${wal_users[@]}"
  exit 1
fi

# One file per durable disk shard: a DiskPageFile reads its checkpoint
# image in place, and pages written since live in memory until the next
# checkpoint. With // comments stripped, no source in src/, bench/, tools/
# or tests/ (this script aside) may name the deleted working copy's
# builder (CreateFromImage), its write-back budget (dirty_frame_budget) or
# a .live path.
echo "==== [env] one file per durable disk shard ===="
live_users=()
while IFS= read -r f; do
  [[ "${f}" == tools/ci.sh ]] && continue
  if sed 's|//.*||' "${f}" |
    grep -E '\b(CreateFromImage|dirty_frame_budget)\b|\.live\b' \
      > /dev/null; then
    live_users+=("${f}")
  fi
done < <(find src bench tools tests \( -name '*.h' -o -name '*.cc' \
  -o -name '*.py' -o -name '*.sh' \) | sort)
if (( ${#live_users[@]} > 0 )); then
  echo "FAIL: the disk store's image is its one file; these name a copy:"
  printf '%s\n' "${live_users[@]}"
  exit 1
fi

# Every metric family a committed BENCH_*.json reports must still exist:
# a string literal in src/, or dqmo_span_<kind>_ns for a kind that
# SpanKindName (src/common/trace.cc) names. A family the code stopped
# registering means the artifact predates that change and needs a rerun.
echo "==== [env] committed bench artifacts name live metric families ===="
python3 - <<'PYEOF'
import json
import pathlib
import re
import sys

literals = set()
for path in pathlib.Path("src").rglob("*"):
    if path.suffix in (".cc", ".h"):
        literals |= set(re.findall(r'"(dqmo_\w+)"', path.read_text()))
trace = pathlib.Path("src/common/trace.cc").read_text()
body = re.search(r"const char\* SpanKindName\(SpanKind kind\) \{(.*?)\n\}",
                 trace, re.S).group(1)
literals |= {f"dqmo_span_{kind}_ns"
             for kind in re.findall(r'return "(\w+)";', body)}
bad = False
for path in sorted(pathlib.Path(".").glob("BENCH_*.json")):
    metrics = json.loads(path.read_text()).get("metrics") or {}
    for kind in ("counters", "gauges", "histograms"):
        for family in sorted(metrics.get(kind) or {}):
            if family not in literals:
                print(f"FAIL: {path} names {family}, which src/ no longer "
                      "registers")
                bad = True
sys.exit(1 if bad else 0)
PYEOF

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

# Outside input must not reach undefined behaviour: a huge
# DQMO_SLOW_FRAME_US once overflowed the tracer's microseconds-to-
# nanoseconds conversion, which UBSan (recovery off) turns into exit 1.
echo "==== [sanitize] tracer knobs saturate on huge input ===="
san_tools="build-ci/sanitize-tools"
rm -rf "${san_tools}"
mkdir -p "${san_tools}"
"build-ci/sanitize/tools/dqmo_tool" build "${san_tools}/ci.pgf" \
  --objects 300 --seed 7 > /dev/null
DQMO_SLOW_FRAME_US=9223372036854775807 "build-ci/sanitize/tools/dqmo_tool" \
  explain "${san_tools}/ci.pgf" --memory --shards 2 --frames 2 > /dev/null

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
echo "==== [tsan] prefetcher: pread workers vs hint/read/cancel/quiesce ===="
"${tsan_dir}/tests/disk_file_test"

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

# Storage-tools stage: dqmo_tool's one scrub, walinfo and recover, end to
# end on real files (no unit test drives the CLI). A clean image scrubs to
# exit 0; one flipped byte in page 3 must exit 1 and be reported at file
# offset 16384, where the one image layout keeps page 3 (4096-byte header
# block + 3 pages). Garbage appended to a WAL must show as walinfo's torn
# tail and be truncated by recover. Then scrub and walinfo run once over a
# sharded directory (shard-NNNN.pgf + .wal, paired up by recover).
echo "==== [storage-tools] scrub / walinfo / recover ===="
tool="build-ci/release/tools/dqmo_tool"
st_dir="build-ci/storage-tools"
rm -rf "${st_dir}"
mkdir -p "${st_dir}/shards"
st_fail() { echo "FAIL: $1"; shift; cat "$@"; exit 1; }
img="${st_dir}/ci.pgf"
"${tool}" build "${img}" --objects 300 --seed 7 > /dev/null
"${tool}" scrub "${img}" > "${st_dir}/scrub-clean.txt"
grep -q ': 0 corrupt$' "${st_dir}/scrub-clean.txt" ||
  st_fail "clean image did not scrub clean" "${st_dir}/scrub-clean.txt"
python3 - "${img}" <<'PYEOF'
import sys
with open(sys.argv[1], "r+b") as f:
    f.seek(16384 + 100)  # Page 3's payload.
    b = f.read(1)
    f.seek(-1, 1)
    f.write(bytes([b[0] ^ 0x5A]))
PYEOF
rc=0
"${tool}" scrub "${img}" > "${st_dir}/scrub-bad.txt" || rc=$?
[[ ${rc} -eq 1 ]] ||
  st_fail "scrub of a damaged image exited ${rc}, want 1" \
    "${st_dir}/scrub-bad.txt"
grep -q '^CORRUPT page 3 at file offset 16384: ' "${st_dir}/scrub-bad.txt" &&
  grep -q ': 1 corrupt$' "${st_dir}/scrub-bad.txt" ||
  st_fail "page 3 not reported (alone) at offset 16384" \
    "${st_dir}/scrub-bad.txt"
wal="${st_dir}/ci.wal"
"${tool}" build "${img}" --objects 300 --seed 7 > /dev/null
"${tool}" recover "${img}" "${wal}" > "${st_dir}/recover-fresh.txt"
printf 'torn-tail' >> "${wal}"  # 9 bytes no record can parse as.
"${tool}" walinfo "${wal}" > "${st_dir}/walinfo-torn.txt"
grep -q '^torn tail  : 9 trailing bytes damaged' \
  "${st_dir}/walinfo-torn.txt" ||
  st_fail "walinfo missed the 9-byte torn tail" "${st_dir}/walinfo-torn.txt"
"${tool}" recover "${img}" "${wal}" > "${st_dir}/recover-torn.txt"
grep -q '^torn tail  : 9 bytes truncated' "${st_dir}/recover-torn.txt" &&
  grep -q '^recovered  : ' "${st_dir}/recover-torn.txt" ||
  st_fail "recover did not truncate the torn tail" \
    "${st_dir}/recover-torn.txt"
"${tool}" walinfo "${wal}" > "${st_dir}/walinfo-clean.txt"
grep -q '^torn tail  : none' "${st_dir}/walinfo-clean.txt" ||
  st_fail "torn tail survived recover" "${st_dir}/walinfo-clean.txt"
for shard in 0 1; do
  "${tool}" build "${st_dir}/shards/shard-000${shard}.pgf" --objects 200 \
    --seed "$((shard + 1))" > /dev/null
done
"${tool}" recover "${st_dir}/shards" > "${st_dir}/recover-shards.txt"
"${tool}" scrub "${st_dir}/shards" > "${st_dir}/scrub-shards.txt"
[[ "$(grep -c '^   shard-000[01].pgf: 0/[0-9]*$' \
      "${st_dir}/scrub-shards.txt")" -eq 2 ]] ||
  st_fail "sharded scrub summary wrong" "${st_dir}/scrub-shards.txt"
"${tool}" walinfo "${st_dir}/shards" > "${st_dir}/walinfo-shards.txt"
[[ "$(grep -c '^torn tail  : none' "${st_dir}/walinfo-shards.txt")" -eq 2 ]] ||
  st_fail "sharded walinfo wrong" "${st_dir}/walinfo-shards.txt"

# Explain stage: `dqmo_tool explain` replays an index on a sharded twin
# built from the default engine options plus its flags. The durable pread
# twin and the in-memory one must print the same session checksum and a
# slowest-frame tree, and the pread run must remove its scratch directory.
# kNN runs one bounded search at every shard count, so its sessions at 1
# and 16 shards, on both backends, must all print one checksum.
echo "==== [explain] dqmo_tool explain on both backends ===="
ex_img="${st_dir}/explain.pgf"
"${tool}" build "${ex_img}" --objects 300 --seed 7 > /dev/null
explain_run() {  # $1: output name, then explain's flags.
  local out="${st_dir}/explain-$1.txt"
  shift
  "${tool}" explain "${ex_img}" "$@" > "${out}" ||
    st_fail "explain ($*) exited non-zero" "${out}"
  grep -q '^slowest frame' "${out}" ||
    st_fail "explain ($*) printed no slowest frame" "${out}"
}
explain_run npdq-pread --kind=npdq --shards 4 --frames 8
explain_run npdq-memory --kind=npdq --shards 4 --frames 8 --memory
[[ "$(grep '^checksum :' "${st_dir}/explain-npdq-pread.txt")" == \
   "$(grep '^checksum :' "${st_dir}/explain-npdq-memory.txt")" ]] ||
  st_fail "explain checksums differ between pread and memory" \
    "${st_dir}/explain-npdq-pread.txt" "${st_dir}/explain-npdq-memory.txt"
for shards in 1 16; do
  explain_run "knn-${shards}-pread" --kind=knn --shards "${shards}" --frames 8
  explain_run "knn-${shards}-memory" --kind=knn --shards "${shards}" \
    --frames 8 --memory
done
[[ "$(grep -h '^checksum :' "${st_dir}"/explain-knn-*.txt | sort -u |
      wc -l)" -eq 1 ]] ||
  st_fail "explain kNN checksums differ across shard counts or backends" \
    "${st_dir}"/explain-knn-*.txt
if compgen -G "${ex_img}.explain-*" > /dev/null; then
  st_fail "explain left its scratch directory behind" /dev/null
fi

# Hot-path performance gate: the A15 ablation at CI size, against the
# Release (-O3) build the kernels are tuned for. DQMO_CHECK_SPEEDUP=1 makes
# the binary exit non-zero unless the full hot path (decoded-node cache +
# SoA kernels + SIMD dispatch) beats the paper's naive snapshot search
# (RTree::RangeSearch over the same frame windows) by >= 1.2x ns/entry,
# comparing the fastest of 15 passes per side alternated in one process;
# the binary itself also asserts bit-identical checksums across every
# hot-path configuration. A second run with DQMO_DISABLE_SIMD=1 proves the
# scalar fallback both stays correct and still clears the gate on cache +
# SoA alone.
a15_env=(DQMO_OBJECTS=1500 DQMO_TRAJECTORIES=8 DQMO_HOT_PATH_FRAMES=40
              DQMO_CACHE_DIR=build-ci/dqmo_cache DQMO_CHECK_SPEEDUP=1)
echo "==== [hot-path] A15 ablation gate (auto SIMD) ===="
env "${a15_env[@]}" "build-ci/release/bench/abl_hot_path"
echo "==== [hot-path] A15 ablation gate (DQMO_DISABLE_SIMD=1 fallback) ===="
env "${a15_env[@]}" DQMO_DISABLE_SIMD=1 \
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
# the 8-seed x {PDQ,NPDQ,kNN} x {memory,pread} sweep that holds checksums
# and node-level read counts byte-identical across backends), then the A19
# cold-cache ablation with its gate armed: under the modeled device
# latency, the PDQ-driven prefetch must cut frame p99 by >= 1.5x with all
# arm checksums identical.
echo "==== [disk] backend-equivalence tests (asan) ===="
"build-ci/sanitize/tests/disk_file_test"
"build-ci/sanitize/tests/disk_backend_test"
# Writes landing between frames on the disk twins (tsan): the prefetcher's
# pread workers land speculative reads while the writer writes pages back.
echo "==== [disk] interleaved writes vs prefetch (tsan) ===="
"${tsan_dir}/tests/shard_test" \
  --gtest_filter='*.DiskShardsMatchMemoryWithWritesBetweenFrames'
echo "==== [disk] A19 cold-cache prefetch gate ===="
env DQMO_OBJECTS=60000 DQMO_CHECK_SPEEDUP=1 "build-ci/release/bench/abl_disk"

# Bench-check stage: the paper's cost axes and every answer must match the
# committed numbers exactly. tools/bench.sh --check re-runs figs 06-13,
# A15, A17 and A19 at their committed scales in a scratch directory and
# compares every node, leaf and distance count and every checksum with the
# checkout's BENCH_*.json (timings are not compared).
echo "==== [bench-check] committed counts and checksums ===="
tools/bench.sh --check build-ci/release

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
a15_abs_env=(DQMO_OBJECTS=1500 DQMO_TRAJECTORIES=8
                  DQMO_HOT_PATH_FRAMES=40
                  DQMO_CACHE_DIR="${PWD}/build-ci/dqmo_cache")

min_ns_per_entry() {  # $1: binary, $2: extra env (NAME=val or empty)
  local binary="$1" extra="${2:-DQMO_UNUSED=0}" best="" run
  for _ in 1 2 3 4 5; do
    (cd "${metrics_tmp}" &&
     env "${a15_abs_env[@]}" "${extra}" "${binary}" --json >/dev/null)
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
# observability layers added since: breaker / scrub / redo (shard
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
    layers["breaker"]; layers["scrub"]; layers["redo"]
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
