#!/usr/bin/env bash
# Runs the benchmark suite in JSON mode and collects the machine-readable
# results as BENCH_<name>.json in the repo root, for committing alongside
# code changes (the perf trajectory of the repo).
#
#   tools/bench.sh [build-dir]
#   tools/bench.sh --check [build-dir]
#
# Uses ./build-bench (Release, the configuration the kernels are tuned
# for) unless a build directory is given; configures and builds it if
# needed. Scale is CI-size by default — set DQMO_FULL=1 / DQMO_OBJECTS /
# DQMO_TRAJECTORIES for bigger sweeps (bench/bench_common.h documents the
# knobs).
#
# --check is the exact-count regression gate: it re-runs the benches whose
# counts are deterministic into a scratch directory, each at the scale its
# committed JSON was produced at (figs 06-13 and A15 at this script's
# default scale, A17 at DQMO_FULL=1, A19 at DQMO_OBJECTS=60000), and
# tools/bench_check.py compares every count field and checksum of every
# row with the checkout's BENCH_*.json. Timings are not compared. Exits 1
# on any difference; the checkout's files are left untouched.
set -euo pipefail

cd "$(dirname "$0")/.."
check=0
if [[ "${1:-}" == "--check" ]]; then
  check=1
  shift
fi
build="${1:-build-bench}"
jobs="$(nproc)"

if [[ ! -f "${build}/CMakeCache.txt" ]]; then
  cmake -B "${build}" -S . -DCMAKE_BUILD_TYPE=Release
fi

if (( check )); then
  figures=(fig06_pdq_io fig07_pdq_cpu fig08_pdq_size_io fig09_pdq_size_cpu
           fig10_npdq_io fig11_npdq_cpu fig12_npdq_size_io
           fig13_npdq_size_cpu)
  cmake --build "${build}" -j "${jobs}" -- "${figures[@]}" \
    abl_hot_path abl_sharding abl_disk
  build_abs="$(cd "${build}" && pwd)"
  bin="${build_abs}/bench"
  cache="$(realpath -m "${DQMO_CACHE_DIR:-${build_abs}/dqmo_cache}")"
  run_dir="$(mktemp -d)"
  trap 'rm -rf "${run_dir}"' EXIT
  # No DQMO_* variable of the caller reaches the benches: only the scale
  # each committed JSON states (and the index cache location).
  clear_env=()
  for name in $(compgen -e); do
    if [[ "${name}" == DQMO_* ]]; then clear_env+=(-u "${name}"); fi
  done
  run() {  # $1: bench, then its scale as NAME=value words.
    local bench="$1"
    shift
    echo "==== ${bench} ($*) ===="
    (cd "${run_dir}" &&
     env ${clear_env[@]+"${clear_env[@]}"} DQMO_CACHE_DIR="${cache}" "$@" \
       "${bin}/${bench}" --json >/dev/null)
  }
  for bench in "${figures[@]}" abl_hot_path; do
    run "${bench}" DQMO_OBJECTS=1500 DQMO_TRAJECTORIES=8
  done
  run abl_sharding DQMO_FULL=1
  run abl_disk DQMO_OBJECTS=60000
  echo "==== counts and checksums vs committed ===="
  python3 tools/bench_check.py "${run_dir}" .
  exit
fi

# Every driver that emits a BENCH_<name>.json under --json. The figure
# sweeps shrink to CI size via the env below; abl_hot_path additionally
# runs its 5-configuration matrix (the naive snapshot search and four SoA
# hot-path configurations).
json_benches=(
  fig06_pdq_io fig07_pdq_cpu fig08_pdq_size_io fig09_pdq_size_cpu
  fig10_npdq_io fig11_npdq_cpu fig12_npdq_size_io fig13_npdq_size_cpu
  abl_session abl_hot_path abl_overload abl_sharding abl_failover
  abl_disk
)
cmake --build "${build}" -j "${jobs}" -- "${json_benches[@]}"

export DQMO_CACHE_DIR="${DQMO_CACHE_DIR:-${build}/dqmo_cache}"
export DQMO_OBJECTS="${DQMO_OBJECTS:-1500}"
export DQMO_TRAJECTORIES="${DQMO_TRAJECTORIES:-8}"

for bench in "${json_benches[@]}"; do
  echo "==== ${bench} ===="
  "${build}/bench/${bench}" --json
done

echo "==== collected ===="
ls -l BENCH_*.json

# Latency-trajectory diff: every BENCH_*.json carries a MetricsSnapshot
# block; compare each histogram's p99 against the committed (HEAD) copy so
# a latency regression is visible in the run that introduces it.
# Informational — machine noise makes an automatic gate here too twitchy;
# the enforced overhead gate lives in tools/ci.sh.
echo "==== p99 vs committed (HEAD) ===="
for f in BENCH_*.json; do
  git show "HEAD:${f}" > "${f}.head" 2>/dev/null || { rm -f "${f}.head"; continue; }
  python3 - "$f" "${f}.head" <<'PYEOF'
import json, sys

def p99s(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError):
        return {}
    hists = doc.get("metrics", {}).get("histograms", {})
    return {name: h["p99"] for name, h in hists.items() if h.get("count")}

new, old = p99s(sys.argv[1]), p99s(sys.argv[2])
rows = [(n, old[n], v) for n, v in sorted(new.items())
        if n in old and old[n] > 0]
if rows:
    print(f"-- {sys.argv[1]}")
    for name, was, now in rows:
        delta = (now - was) / was * 100
        flag = "  <-- regressed >25%" if delta > 25 else ""
        print(f"  {name}: p99 {was} -> {now} ({delta:+.1f}%){flag}")
elif new:
    print(f"-- {sys.argv[1]}: no committed p99 baseline to diff against")
PYEOF
  rm -f "${f}.head"
done
