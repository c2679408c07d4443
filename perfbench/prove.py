#!/usr/bin/env python3
"""Run the benchmark several times per workload and summarise the spread.

From the repository root:

    python3 perfbench/prove.py                      # 10 seeds per workload
    python3 perfbench/prove.py --workloads serve --runs 5
    python3 perfbench/prove.py --trace-runs 3 --record

Each run is the `BENCHMARK.json` command with `--workload W --seed S
--seconds run_seconds --trace 0`, seeds S = 1, 2, ..., --runs. For
every end-to-end metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the quartile spread
as a share of the median, against the metric's bound: a spread above a
third of the bound is flagged. `--trace-runs K` follows each of the first K
runs with a traced run at the same seed, and reports per-layer medians
and the tracing overhead: the median over those pairs of traced wall
over untraced wall, minus one. `--record` appends the
summary, stamped with nproc, the CPU model and the git revision, to
`perfbench/trajectory.json`. Exits 1 if any run reports a failed check.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    took = time.monotonic() - t0
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return res, took


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "n": len(values),
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev():
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2 for quartiles")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = list(range(1, args.runs + 1))

    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
        cwd=ROOT, check=True,
    )
    summary = {}
    failed = False
    for w in args.workloads.split(","):
        if w not in names:
            sys.exit(f"unknown workload {w!r} (known: {', '.join(names)})")
        values, took, layer, overheads = {}, [], {}, []
        for i, seed in enumerate(seeds):
            res, secs = run_once(spec, w, seed, seconds, 0)
            took.append(secs)
            failed |= not res["correct"] or res["failed"] != 0
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            units = {k: m["unit"] for k, m in res["metrics"].items()}
            if i < args.trace_runs:
                traced, _ = run_once(spec, w, seed, seconds, 1)
                failed |= not traced["correct"] or traced["failed"] != 0
                for k, m in traced["metrics"].items():
                    layer.setdefault(k, []).append(m["value"])
                overheads.append(traced["metrics"]["traced_wall_s"]["value"]
                                 / res["metrics"]["wall_s"]["value"] - 1)
        print(f"\n{w}: {args.runs} runs, {min(took):.1f}-{max(took):.1f} s each")
        print(f"  {'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        summary[w] = {"end_to_end": {}}
        for k, vs in values.items():
            s = summarise(vs)
            flag = "" if s["spread"] < bounds[k] / 3 else "  <-- above bound/3"
            print(f"  {k:<14} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g}"
                  f" {s['spread']:>8.2%} {bounds[k]:>6}{flag}")
            summary[w]["end_to_end"][k] = dict(s, unit=units[k])
        if layer:
            per_layer = {k: statistics.median(vs) for k, vs in layer.items()}
            overhead = statistics.median(overheads)
            print(f"  per-layer medians over {len(overheads)} traced runs; "
                  f"tracing overhead {overhead:+.2%}")
            for k, v in per_layer.items():
                print(f"    {k:<30} {v:.6g}")
            summary[w]["per_layer_median"] = per_layer
            summary[w]["tracing_overhead_frac"] = overhead

    if args.record:
        path = os.path.join(HERE, "trajectory.json")
        points = []
        if os.path.exists(path):
            with open(path) as f:
                points = json.load(f)
        points.append({
            "git_rev": git_rev(),
            "date": time.strftime("%Y-%m-%d", time.gmtime()),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "run_seconds": seconds,
            "seeds": seeds,
            "workloads": summary,
        })
        with open(path, "w") as f:
            json.dump(points, f, indent=1)
            f.write("\n")
        print(f"\nappended a point to {os.path.relpath(path, ROOT)}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
