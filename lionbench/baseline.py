#!/usr/bin/env python3
"""Measure the benchmark's baseline and its run-to-run spread.

    python3 lionbench/baseline.py [--seeds 1001-1010] [--workloads a,b]
                                  [--trace] [--write]

Runs lionbench/run.py once per (workload, seed), one run at a time, with
BENCHMARK.json's run_seconds. For every metric it prints the median over
the seeds and the spread (distance between the first and third quartile,
statistics.quantiles(n=4), as a share of the median) next to the metric's
bound. A run that fails or prints no result is reported and counted.

--write stores the medians, quartiles, spreads and a machine fingerprint
(nproc, compiler, build type) as the "baseline" of
lionbench/benchmark_record.json; --trace adds one traced run per workload
(the first seed) and stores its per-layer figures.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD = os.path.join(HERE, "benchmark_record.json")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def fingerprint():
    cxx = subprocess.run(["c++", "--version"], capture_output=True,
                         text=True).stdout.splitlines()
    return {
        "nproc": os.cpu_count(),
        "compiler": cxx[0] if cxx else "unknown",
        "build_type": "Release",
        "machine": platform.machine(),
        "kernel": platform.release(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1001-1010")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]

    baseline = {"date": datetime.date.today().isoformat(),
                "machine": fingerprint(), "run_seconds": seconds,
                "seeds": seeds, "workloads": {}}
    failures = 0
    for workload in workloads:
        values = {}
        for seed in seeds:
            code, result = run_once(workload, seed, seconds, False)
            ok = code == 0 and result is not None and result["correct"]
            failures += 0 if ok else 1
            shown = {} if result is None else {
                k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print("%s seed %d exit %d correct %s %s" %
                  (workload, seed, code, ok, shown), flush=True)
            if result is not None:
                for k, v in result["metrics"].items():
                    values.setdefault(k, []).append(v["value"])
        summary = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else float("nan")
            summary[name] = {"median": med, "q1": q[0], "q3": q[2],
                             "spread": spread, "runs": len(vals)}
            bound = bounds.get(name)
            print("  %-18s median %14.6g  spread %.4f  bound %s%s" %
                  (name, med, spread, bound,
                   "" if bound is None or spread < bound / 3 else
                   "  (above a third of the bound)"), flush=True)
        entry = {"end_to_end": summary}
        if args.trace:
            code, result = run_once(workload, seeds[0], seconds, True)
            failures += 0 if code == 0 else 1
            if result is not None:
                entry["per_layer_seed"] = seeds[0]
                entry["per_layer"] = {k: v["value"] for k, v in
                                      result["metrics"].items()}
        baseline["workloads"][workload] = entry

    if args.write:
        with open(RECORD) as f:
            record = json.load(f)
        record["baseline"] = baseline
        with open(RECORD, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")
        print("baseline written to %s" % RECORD)
    print("failed runs: %d" % failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
