#!/usr/bin/env python3
"""Run the benchmark once per seed and summarize each metric's spread.

Usage, from the repository root:

    python3 perfbench/seed_runs.py --workload serve-light --seeds 1-10
    python3 perfbench/seed_runs.py --workload all --seeds 1-10 --write-baseline

For every end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)), and the spread: the
interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json. --write-baseline stores the medians and
quartiles in perfbench/baseline.json, which the benchmark prints beside
every metric.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
BASELINE = ROOT / "perfbench" / "baseline.json"


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    print(f"{workload} seed {seed}: {time.monotonic() - start:.1f} s wall", flush=True)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stdout}\n{out.stderr}")
    doc = json.loads(last)
    if not doc["correct"]:
        sys.exit(f"{workload} seed {seed} failed its checks:\n{out.stdout}")
    return doc


def summarize(workload, docs, metrics):
    rows = {}
    print(f"\n{workload}: {len(docs)} runs")
    for m in metrics:
        values = [d["metrics"][m["name"]]["value"] for d in docs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = m["bound"]
        flag = ""
        if m["name"] != "setup_s":
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"  {m['name']:<32} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
              f"spread {spread:7.4f}  bound {bound}  {flag}")
        rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "runs": len(values)}
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()
    names = [w["name"] for w in BENCH["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    for w in workloads:
        docs = [run(w, s, args.seconds) for s in seeds(args.seeds)]
        rows = summarize(w, docs, BENCH["end_to_end"])
        if args.write_baseline:
            baseline[w] = rows
    if args.write_baseline:
        BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {BASELINE.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
