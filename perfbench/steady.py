#!/usr/bin/env python3
"""Runs the benchmark named in BENCHMARK.json and summarises its results.

    python3 perfbench/steady.py all [--seed N] [--seconds S]
        Every workload once untraced and once traced; prints every
        end-to-end and per-layer metric with its unit.

    python3 perfbench/steady.py steady --workload W [--runs N] [--seed0 K]
                                       [--seconds S] [--sets M]
        Runs one workload untraced N times with seeds K, K+1, ...; prints
        each end-to-end metric's median, quartiles and spread (distance
        between the quartiles as a share of the median) next to its bound.
        With --sets 2 it runs a second set on fresh seeds and reports how
        far the second median moved against the first, in the metric's
        worse direction, next to the bound.

Run from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def cmd_all(args):
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            result, lines = run_once(w["name"], args.seed, args.seconds, trace)
            context = next((l for l in lines if l.startswith("# context ")), "")
            print(f"== {w['name']} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            print(f"   {context[2:]}")
            for name, m in result["metrics"].items():
                print(f"   {name:<36} {m['value']:>18.4f} {m['unit']}")


def one_set(args, seed0):
    values, shares = {}, []
    for i in range(args.runs):
        result, _ = run_once(args.workload, seed0 + i, args.seconds, 0)
        if not result["correct"]:
            sys.exit(f"seed {seed0 + i}: correct is false")
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"  seed {seed0 + i}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)
    return values, shares


def cmd_steady(args):
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    sets = []
    for s in range(args.sets):
        print(f"set {s + 1}: {args.runs} runs of {args.workload}", flush=True)
        sets.append(one_set(args, args.seed0 + s * args.runs))
    print(f"\n{'metric':<16} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14}"
          f" {'spread':>8} {'bound':>6} {'moved':>8}")
    for name, spec in bounds.items():
        first = None
        for s, (values, _) in enumerate(sets):
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / med
            moved = ""
            if first is None:
                first = med
            else:
                worse = (med - first) if spec["better"] == "lower" else (first - med)
                moved = f"{worse / first:+.4f}"
            print(f"{name:<16} {s + 1:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g}"
                  f" {spread:>8.4f} {spec['bound']:>6} {moved:>8}")
    for s, (_, shares) in enumerate(sets):
        print(f"failed share, set {s + 1}: {sorted(set(shares))}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="mode", required=True)
    a = sub.add_parser("all")
    a.add_argument("--seed", type=int, default=1)
    a.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    s = sub.add_parser("steady")
    s.add_argument("--workload", required=True,
                   choices=[w["name"] for w in SPEC["workloads"]])
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--seed0", type=int, default=1)
    s.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    s.add_argument("--sets", type=int, default=1)
    args = p.parse_args()
    cmd_all(args) if args.mode == "all" else cmd_steady(args)


if __name__ == "__main__":
    main()
