#!/usr/bin/env python3
"""Short-window self-check of the simulator benchmark.

Runs every workload named in BENCHMARK.json for two seconds at seed 0,
once untraced and once traced, and checks each output: a fingerprint line,
then a result line whose jobs all passed and whose metrics are exactly
the ones BENCHMARK.json names for that mode, each with its unit, finite
and non-negative.

    python3 simbench/selfcheck.py

Exits non-zero and names every problem found.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINT_KEYS = {"cpu_model", "nproc", "compiler", "build_type",
                    "source", "workload", "seed", "worker_threads", "trace"}
SECONDS = 2
SEED = 0


def check_run(workload, trace, wanted):
    """Problems found in one run's output (empty when it is valid)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    where = f"{workload} --trace {trace}"
    lines = run.stdout.splitlines()
    if run.returncode != 0 or len(lines) < 2:
        return [f"{where}: exit code {run.returncode}, "
                f"{len(lines)} output lines"]
    problems = []
    fingerprint = json.loads(lines[-2]).get("fingerprint", {})
    if set(fingerprint) != FINGERPRINT_KEYS:
        problems.append(f"{where}: fingerprint keys {sorted(fingerprint)}")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or \
            result["attempted"] < 1:
        problems.append(f"{where}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    for extra in sorted(set(metrics) - set(wanted)):
        problems.append(f"{where}: unexpected metric {extra}")
    for name, unit in wanted.items():
        metric = metrics.get(name)
        if metric is None:
            problems.append(f"{where}: missing metric {name}")
            continue
        value = metric.get("value")
        if metric.get("unit") != unit:
            problems.append(f"{where}: {name} unit {metric.get('unit')!r},"
                            f" expected {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value) \
                or value < 0:
            problems.append(f"{where}: {name} = {value!r}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in modes.items():
            found = check_run(workload, trace, wanted)
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print("selfcheck: " + problem, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
