#!/usr/bin/env python3
"""Interleaved A/B of two checkouts on this host.

Runs the benchmark in a base checkout (usually the parent commit) and a
change checkout in alternating order, one pair per seed, and reports for
every end-to-end metric each side's median and quartiles, the change's
median relative to the base's, and how many pairs the change won. Both
checkouts should hold identical copies of this benchmark directory. Each
run lasts the change's BENCHMARK.json run_seconds. Stops if the two
sides report a different sim_ipc_geomean at the same seed: the change
then alters simulated results and is no speed-only change.

    python3 simbench/ab.py --base ../parent --change . \
        --workload bv_sensitive --pairs 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("simbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                         text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"ab: {checkout} seed {seed}: result not correct")
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    spec_path = os.path.join(args.change, "BENCHMARK.json")
    with open(spec_path) as handle:
        spec = json.load(handle)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        seed = i + 1
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for side in order:
            checkout = args.base if side == "base" else args.change
            runs[side].append(run_once(checkout, args.workload, seed,
                                       seconds))
        ipc = [runs[side][-1]["sim_ipc_geomean"]["value"]
               for side in ("base", "change")]
        if ipc[0] != ipc[1]:
            sys.exit(f"ab: seed {seed}: sim_ipc_geomean differs "
                     f"(base {ipc[0]!r}, change {ipc[1]!r})")
        print(f"pair {i + 1}/{args.pairs} done (seed {seed}, "
              f"{order[0]} first)", file=sys.stderr)

    print(f"{'metric':18} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'change/base':>11} wins")
    for name, direction in better.items():
        base = [r[name]["value"] for r in runs["base"]]
        change = [r[name]["value"] for r in runs["change"]]
        wins = sum((c > b) if direction == "higher" else (c < b)
                   for b, c in zip(base, change))

        def summary(values):
            if len(values) < 2:
                return f"{values[0]:.6g}"
            q1, med, q3 = statistics.quantiles(values, n=4)
            return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"

        base_med = statistics.median(base)
        rel = statistics.median(change) / base_med if base_med else \
            float("nan")
        print(f"{name:18} {summary(base):>34} {summary(change):>34} "
              f"{rel:>11.4f} {wins}/{args.pairs}")


if __name__ == "__main__":
    main()
