#!/usr/bin/env python3
"""Run one or more workloads over several seeds and report each
end-to-end metric's median, quartiles and quartile spread.

    python3 perfbench/steadiness.py --workloads serve_get model_batch --seeds 10

Run from the repository root. It runs the command in BENCHMARK.json
with seeds 1 to N; `--json` writes every run's result to a file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, wall


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--json")
    a = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = a.seconds or bench["run_seconds"]
    workloads = a.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer" if a.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    record = {}
    print("| workload | metric | median | q1 | q3 | spread | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for w in workloads:
        runs = []
        for seed in range(1, a.seeds + 1):
            result, wall = run(cmd, w, seed, seconds, a.trace)
            runs.append({"seed": seed, "wall_s": wall, **result})
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={wall:.1f}s", file=sys.stderr)
        summary = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2 or any(v is None for v in values):
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name]}
            bound = bounds[name]
            verdict = "" if bound is None else (
                "below a third of bound" if spread < bound / 3
                else "within bound" if spread <= bound else "OVER BOUND")
            print(f"| {w} | `{name}` | {med:.5g} | {q1:.5g} | {q3:.5g} | {spread:.4f} | "
                  f"{'' if bound is None else bound} | {verdict} |")
        record[w] = {"runs": runs, "summary": summary}
    if a.json:
        with open(a.json, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
