#!/usr/bin/env python3
"""Compares re-run bench rows with the committed BENCH_*.json, exactly.

    tools/bench_check.py RUN_DIR [COMMITTED_DIR]

For each checked bench, RUN_DIR/BENCH_<name>.json must have as many rows
as COMMITTED_DIR/BENCH_<name>.json (default: the current directory), and
every compared field of every row must equal the committed row's at the
same position. Compared are the paper's cost axes and the answers: node,
leaf and distance counts, objects returned and result checksums, plus the
labels that say which row is which. Not compared: wall times, latency
percentiles, prefetch outcomes (they depend on when a speculative read
lands) and the metrics blocks. Exits 1 on any difference. tools/bench.sh
--check produces RUN_DIR at the committed scales.
"""
import json
import os
import sys

FIGURES = [
    "fig06_pdq_io", "fig07_pdq_cpu", "fig08_pdq_size_io",
    "fig09_pdq_size_cpu", "fig10_npdq_io", "fig11_npdq_cpu",
    "fig12_npdq_size_io", "fig13_npdq_size_cpu",
]

# Bench -> the row fields compared; None compares every field (a figure
# row holds nothing but its sweep point and averaged counts).
CHECKED = {name: None for name in FIGURES}
CHECKED.update({
    # A15: the simd label is the host's kernel tier, not a result.
    "abl_hot_path": ["config", "path", "cache", "entries", "node_reads",
                     "decoded_hits", "objects", "checksum"],
    "abl_sharding": ["shards", "objects_population", "segments", "sessions",
                     "node_reads", "decoded_hits", "objects_returned",
                     "checksum_fold"],
    "abl_disk": ["phase", "backend", "config", "frames", "checksum",
                 "node_reads", "physical_reads", "match",
                 "checksums_identical"],
})


def rows(path):
    with open(path) as f:
        return json.load(f)["rows"]


def check(name, fields, run_dir, committed_dir):
    """Returns the differences of one bench, as printable lines."""
    path = f"BENCH_{name}.json"
    try:
        got = rows(os.path.join(run_dir, path))
    except (OSError, ValueError, KeyError) as e:
        return [f"{path}: no re-run rows ({e})"]
    want = rows(os.path.join(committed_dir, path))
    if len(got) != len(want):
        return [f"{path}: {len(got)} rows, committed {len(want)}"]
    diffs = []
    for i, (g, w) in enumerate(zip(got, want)):
        for field in fields if fields is not None else sorted(set(g) | set(w)):
            if field not in w and field not in g:
                continue  # Not a field of this row kind.
            if g.get(field) != w.get(field):
                diffs.append(f"{path} row {i} {field}: {g.get(field)!r}, "
                             f"committed {w.get(field)!r}")
    return diffs


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit("usage: tools/bench_check.py RUN_DIR [COMMITTED_DIR]")
    run_dir = sys.argv[1]
    committed_dir = sys.argv[2] if len(sys.argv) == 3 else "."
    failed = False
    for name, fields in CHECKED.items():
        diffs = check(name, fields, run_dir, committed_dir)
        print(f"{'FAIL' if diffs else 'ok'}  BENCH_{name}.json")
        for d in diffs:
            print(f"      {d}")
        failed |= bool(diffs)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
