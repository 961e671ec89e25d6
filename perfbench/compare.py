#!/usr/bin/env python3
"""Records sets of benchmark runs and compares two of them (A/A or A/B).

  # Ten untraced runs per workload, seeds 1..10, into a JSON-lines file:
  python3 perfbench/compare.py record --out a.jsonl --seeds 1-10
  # Options: --workloads w1,w2  --trace 0|1  --seconds S (default: BENCHMARK.json)

  # Spread of one set: median, quartiles, (q3-q1)/median per metric:
  python3 perfbench/compare.py show a.jsonl

  # Verdict of set B against set A under the bounds in BENCHMARK.json:
  python3 perfbench/compare.py compare a.jsonl b.jsonl

For every workload x end-to-end metric, `compare` prints both medians and
quartiles, the change of B's median against A's (positive = worse), and a
verdict: "ok" when B is not worse than A by more than the metric's bound,
"REGRESSION" when it is, and "unresolved" when either set's spread exceeds
the bound. When a set also holds traced runs
(--trace 1), the tracing overhead is printed from the traced run's own
frames_per_s and frame_p50_us against the untraced medians.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(args):
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for w in workloads:
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", w, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
                done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True)
                lines = done.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else None
                notes = [l for l in done.stderr.splitlines() if l.startswith("# ")]
                row = {"workload": w, "seed": seed, "trace": args.trace,
                       "exit": done.returncode, "result": result, "notes": notes}
                out.write(json.dumps(row) + "\n")
                out.flush()
                ok = result is not None and result["correct"] and done.returncode == 0
                print(f"{w} seed={seed} trace={args.trace} "
                      f"{'ok' if ok else 'FAILED'}", file=sys.stderr)


def load_runs(path):
    """{(workload, trace): {metric: [values]}} plus failure count."""
    runs, failures = {}, 0
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            res = row["result"]
            if res is None or not res["correct"] or row["exit"] != 0:
                failures += 1
                continue
            slot = runs.setdefault((row["workload"], row["trace"]), {})
            for name, m in res["metrics"].items():
                slot.setdefault(name, []).append(m["value"])
    return runs, failures


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def show(args):
    spec = load_spec()
    runs, failures = load_runs(args.a)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':24} {'metric':34} {'n':>3} {'q1':>12} {'median':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for (w, trace), metrics in sorted(runs.items()):
        for name, values in metrics.items():
            q1, q2, q3 = quartiles(values)
            b = bounds.get(name)
            flag = ""
            if b is not None:
                s = spread(values)
                flag = " STEADY" if s < b / 3 else (" ok" if s <= b else " WIDE")
            print(f"{w:24} {name:34} {len(values):3d} {q1:12.6g} {q2:12.6g} "
                  f"{q3:12.6g} {spread(values):7.3f} "
                  f"{'' if b is None else f'{b:6.2f}'}{flag}")
    print(f"failed runs: {failures}")
    return 1 if failures else 0


def compare(args):
    spec = load_spec()
    a, fa = load_runs(args.a)
    b, fb = load_runs(args.b)
    worst = 0
    print(f"{'workload':24} {'metric':32} {'A median':>11} {'A q1..q3':>23} "
          f"{'B median':>11} {'B q1..q3':>23} {'change':>8} {'bound':>6}  verdict")
    for w in [x["name"] for x in spec["workloads"]]:
        ma, mb = a.get((w, 0), {}), b.get((w, 0), {})
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            if name not in ma or name not in mb:
                print(f"{w:24} {name:32} missing in {'A' if name not in ma else 'B'}")
                worst = max(worst, 1)
                continue
            qa, qb = quartiles(ma[name]), quartiles(mb[name])
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("inf")
            if m["better"] == "higher":
                change = -change
            wide = spread(ma[name]) > bound or spread(mb[name]) > bound
            if change > bound:
                verdict, worst = "REGRESSION", max(worst, 1)
            elif wide:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{w:24} {name:32} {qa[1]:11.5g} "
                  f"{qa[0]:11.5g}..{qa[2]:<11.5g} {qb[1]:11.5g} "
                  f"{qb[0]:11.5g}..{qb[2]:<11.5g} {change:+8.3f} {bound:6.2f}  "
                  f"{verdict}")
        for label, runs in (("A", a), ("B", b)):
            untraced, traced = runs.get((w, 0), {}), runs.get((w, 1), {})
            if "trace.frames_per_s" in traced and "frames_per_s" in untraced:
                fps = statistics.median(untraced["frames_per_s"])
                tfps = statistics.median(traced["trace.frames_per_s"])
                p50 = statistics.median(untraced["frame_p50_us"])
                tp50 = statistics.median(traced["trace.frame_p50_us"])
                print(f"{w:24} tracing overhead ({label}): frames_per_s "
                      f"{100 * (1 - tfps / fps):+.1f}%, frame_p50_us "
                      f"{100 * (tp50 / p50 - 1):+.1f}%")
    print(f"failed runs: A {fa}, B {fb}")
    return 1 if worst or fa or fb else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("record")
    r.add_argument("--out", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads", default="")
    r.add_argument("--trace", type=int, default=0, choices=(0, 1))
    r.add_argument("--seconds", type=float, default=0)
    s = sub.add_parser("show")
    s.add_argument("a")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args()
    if args.cmd == "record":
        record(args)
        return 0
    return show(args) if args.cmd == "show" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
