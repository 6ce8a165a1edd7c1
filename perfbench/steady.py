#!/usr/bin/env python3
"""Steadiness check: runs one workload N times and prints, per metric, the
median, the quartiles and the quartile spread as a share of the median.

    python3 perfbench/steady.py --workload sync --runs 10 [--seconds 10]
        [--first-seed 1] [--trace 0] [--other /path/to/another/checkout]

Run i uses seed first-seed + i. With --other, every seed also runs in that
checkout (another build of the repository, e.g. the parent commit), the two
alternating which goes first, and both sides are printed. The spreads are
what BENCHMARK.json's bounds are set against.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def summarize(name, results):
    print(f"== {name}: {len(results)} runs")
    shares = sorted({(r["failed"], r["attempted"]) for r in results})
    print("   correct: %s   failed/attempted: %s" % (
        all(r["correct"] for r in results),
        sorted({round(f / a, 9) for f, a in shares})))
    for metric in sorted(results[0]["metrics"]):
        values = [r["metrics"][metric]["value"] for r in results]
        unit = results[0]["metrics"][metric]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"   {metric:24s} median {med:12.6g} {unit:6s} q1 {q1:12.6g}  q3 {q3:12.6g}"
              f"  spread {spread:7.3%}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--other", help="another checkout to alternate with")
    args = parser.parse_args()

    sides = [ROOT] + ([os.path.abspath(args.other)] if args.other else [])
    results = {side: [] for side in sides}
    for i in range(args.runs):
        seed = args.first_seed + i
        order = sides if i % 2 == 0 else list(reversed(sides))
        for side in order:
            r = run_once(side, args.workload, seed, args.seconds, args.trace)
            results[side].append(r)
            print(f"   run {i + 1}/{args.runs} seed {seed} {side}: "
                  + json.dumps(r["metrics"]), file=sys.stderr, flush=True)
    for side in sides:
        summarize(f"{args.workload} @ {side}", results[side])


if __name__ == "__main__":
    main()
