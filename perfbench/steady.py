#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and report the spread.

Runs the command in BENCHMARK.json untraced, for its run_seconds, once
per (run, workload), seed `--seed0 + run`, alternating the workload order
between runs, then prints for every metric the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, next to
the metric's bound and a verdict:
`ok` when the spread is below a third of the bound, `WIDE` otherwise.
setup_s carries no spread requirement. It also prints the share of failed
operations per workload. Raw results go to perfbench/out/steady-*.json.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads fused_spill_medium
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=101)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    command = bench["command"]
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {name: [] for name in names}
    for run in range(args.runs):
        order = names if run % 2 == 0 else list(reversed(names))
        for name in order:
            seed = args.seed0 + run
            res = run_once(command, name, seed, seconds)
            results[name].append(res)
            print(f"run {run} {name} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"({res['elapsed_s']:.1f} s)", flush=True)

    out = Path("perfbench") / "out"
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (out / f"steady-{stamp}.json").write_text(json.dumps(results, indent=1))

    wide = 0
    for name in names:
        runs = results[name]
        failed = [r["failed"] / r["attempted"] for r in runs]
        print(f"\n== {name}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}, failed shares: {sorted(set(failed))}")
        print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None and metric != "setup_s":
                verdict = "ok" if spread < bound / 3 else "WIDE"
                wide += verdict == "WIDE"
            bound_text = f"{bound:6.2f}" if bound is not None else "     -"
            print(f"{metric:28} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} "
                  f"{bound_text} {verdict}")
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
