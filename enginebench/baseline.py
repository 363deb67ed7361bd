#!/usr/bin/env python3
"""Runs the engine benchmark over several seeds and summarises the spread.

For every workload and seed it runs

    <command> --workload <w> --seed <s> --seconds <run_seconds> --trace 0

with the command and settings of BENCHMARK.json (taken from the
repository root), reads the last line of each run, and reports, per
end-to-end metric, the median, the first and third quartile (as Python's
statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median next to the metric's bound. With --traced it also runs
each workload once with --trace 1 and keeps its per-layer metrics.

    python3 enginebench/baseline.py --seeds 1-10 [--workloads a,b] \
        [--traced] [--out enginebench/baseline/set-a.json]

Run it from the repository root. It exits non-zero when a run fails or a
spread exceeds its bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def commit():
    """BENCH_COMMIT when set, else the checkout's git HEAD, else "unknown"."""
    if os.environ.get("BENCH_COMMIT"):
        return os.environ["BENCH_COMMIT"]
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(command, workload, seed, seconds, trace):
    """One run's last line; a run without one counts as failed."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, BENCH_COMMIT=commit())
    proc = subprocess.run(args, capture_output=True, text=True, check=False, env=env)
    lines = proc.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        line = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    line["exit"] = proc.returncode
    if proc.returncode != 0:
        print(f"  {workload} seed {seed} trace {trace}: exit {proc.returncode}, "
              f"failed {line['failed']} of {line['attempted']}")
    return line


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default="")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = opts.workloads.split(",") if opts.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seeds_of(opts.seeds)
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=False).stdout.strip()
    report = {"seeds": seeds, "run_seconds": bench["run_seconds"], "commit": commit(), "rustc": rustc,
              "nproc": os.cpu_count(), "machine": platform.machine(), "workloads": {}}
    ok = True
    for w in workloads:
        values = {}
        runs = []
        for s in seeds:
            line = run(bench["command"], w, s, bench["run_seconds"], 0)
            ok &= line["correct"] and line["failed"] == 0 and line["exit"] == 0
            runs.append({"seed": s, "correct": line["correct"], "attempted": line["attempted"],
                         "failed": line["failed"], "exit": line["exit"]})
            for name, m in line["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        entry = {"runs": runs, "end_to_end": {}}
        print(f"{w}:")
        for name, vals in values.items():
            s = summary(vals)
            entry["end_to_end"][name] = s
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] > bound:
                flag, ok = "  OVER BOUND", False
            print(f"  {name:<16} median {s['median']:<14.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
                  f" spread {s['spread']:.4f} (bound {bound}){flag}")
        if opts.traced:
            traced = run(bench["command"], w, seeds[0], bench["run_seconds"], 1)
            ok &= traced["correct"] and traced["exit"] == 0
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][w] = entry
    if opts.out:
        os.makedirs(os.path.dirname(opts.out) or ".", exist_ok=True)
        with open(opts.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
