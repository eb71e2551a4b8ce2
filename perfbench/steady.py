#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of one build.

    python3 perfbench/steady.py [--workloads w1,w2] [--runs 10] [--sets 2]
                                [--seconds S] [--trace 0|1]

Run from the root of the repository. Each run goes through run.py with its own
seed (set k, run i uses seed 1000*k + i + 1); the sets' runs alternate. For
every metric and set the script prints the median, the quartiles and the
spread (quartile distance over the median, as `statistics.quantiles(n=4)`
gives the quartiles), then how far each later set's median lies from the
first set's, in the metric's worse direction. With --trace 0 it checks each
end-to-end metric against its bound in BENCHMARK.json: spread within the
bound (setup_s exempt), later medians no worse than the bound, and the same
share of failed operations in every set. It exits 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    bench = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    specs = {m["name"]: m for m in bench["end_to_end" if args.trace == 0 else "per_layer"]}

    ok = True
    for workload in args.workloads.split(","):
        results = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            for k in range(args.sets):
                r = run_once(workload, 1000 * k + i + 1, args.seconds, args.trace)
                results[k].append(r)
                values = " ".join(f"{n}={r['metrics'][n]['value']:.6g}" for n in specs)
                print(f"{workload} set {k} seed {1000 * k + i + 1}: correct {r['correct']}, "
                      f"{r['failed']}/{r['attempted']} failed, {values}", file=sys.stderr)
        print(f"== {workload}: {args.sets} sets x {args.runs} runs of {args.seconds} s")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in results]
        correct = all(r["correct"] for rs in results for r in rs)
        print(f"   all correct: {correct}; failed share per set: {shares}")
        ok &= correct and len(set(shares)) == 1
        for name, spec in specs.items():
            firsts = None
            for k, rs in enumerate(results):
                values = [r["metrics"][name]["value"] for r in rs]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                line = (f"   {name:<34} set {k}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                        f"spread {spread:.4f}")
                if args.trace == 0:
                    bound = spec["bound"]
                    line += f" (bound {bound}, third {bound / 3:.4f})"
                    if name != "setup_s" and spread > bound:
                        ok = False
                        line += " SPREAD OVER BOUND"
                    if firsts is None:
                        firsts = med
                    elif firsts:
                        worse = (med - firsts) / firsts
                        if spec["better"] == "higher":
                            worse = -worse
                        line += f" worse than set 0 by {worse:+.4f}"
                        if worse > bound:
                            ok = False
                            line += " OVER BOUND"
                print(line)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
