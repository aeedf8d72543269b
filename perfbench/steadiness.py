#!/usr/bin/env python3
"""Runs sets of untraced benchmark runs and tabulates their steadiness.

    python3 perfbench/steadiness.py --sets A:1-10 B:1-10 C:11-20 \
        --raw runs.jsonl > table.md

Each set runs every seed of its range on every workload, interleaved
(seed 1 on each workload, then seed 2, ...), through `perfbench/run.py`.
Each run's details and result are written to `--raw` as one JSON line.
The table gives, per set, workload and end-to-end metric, the median,
the quartiles (`statistics.quantiles(n=4)`) and the quartile spread as a
share of the median, then each set's median shift against the first set.
It also checks that every run of one seed printed the same digest.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["fleet-day", "enclosure-chaos", "net-churn"]


def parse_set(text):
    name, _, span = text.partition(":")
    lo, _, hi = span.partition("-")
    return name, list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    ).stdout.strip().splitlines()
    return json.loads(out[-2])["perfbench"], json.loads(out[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float,
                   help="seconds per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--sets", nargs="+", default=["A:1-10", "B:1-10", "C:11-20"])
    p.add_argument("--raw", required=True, help="JSON-lines file the runs are written to")
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    with open(args.raw, "w") as raw:
        for name, seeds in map(parse_set, args.sets):
            for seed in seeds:
                for w in WORKLOADS:
                    details, result = run_once(w, seed, args.seconds)
                    runs.append({"set": name, "workload": w, "seed": seed,
                                 "details": details, "result": result})
                    raw.write(json.dumps(runs[-1]) + "\n")
                    raw.flush()
                    print(f"set {name} seed {seed} {w}: correct={result['correct']}",
                          file=sys.stderr)

    sets = list(dict.fromkeys(r["set"] for r in runs))
    print("| set | workload | metric | median | q1 | q3 | spread | shift vs " + sets[0] + " |")
    print("|---|---|---|---|---|---|---|---|")
    first = {}
    for s in sets:
        for w in WORKLOADS:
            rs = [r for r in runs if r["set"] == s and r["workload"] == w]
            if not rs:
                continue
            for m in rs[0]["result"]["metrics"]:
                v = [r["result"]["metrics"][m]["value"] for r in rs]
                unit = rs[0]["result"]["metrics"][m]["unit"]
                med = statistics.median(v)
                q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
                base = first.setdefault((w, m), med)
                print(f"| {s} ({len(v)} runs) | {w} | {m} ({unit}) | {med:.6g} | {q1:.6g} | "
                      f"{q3:.6g} | {(q3 - q1) / med:.3f} | {(med - base) / base:+.3f} |")
    digests = {}
    for r in runs:
        digests.setdefault((r["workload"], r["seed"]), set()).add(r["details"]["digest"])
    unstable = {k: v for k, v in digests.items() if len(v) > 1}
    incorrect = sum(not r["result"]["correct"] for r in runs)
    print()
    print(f"{len(runs)} runs, {incorrect} incorrect; digests differing within one "
          f"(workload, seed): {unstable or 'none'}")


if __name__ == "__main__":
    main()
