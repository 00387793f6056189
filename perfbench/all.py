#!/usr/bin/env python3
"""Run every workload of the benchmark once and print each result.

    python3 perfbench/all.py --seed 1 --seconds 20 --trace 0

Run from the root of the repository.  Calls `run.py` once per workload in
`BENCHMARK.json` order and prints, per workload, its name and each metric
with its unit, then a summary line.  Exits non-zero if any workload
failed or was not correct.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    attempted = failed = 0
    correct = True
    for workload in workloads:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.exit(f"all: {workload} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        print(f"{workload}: correct={result['correct']} "
              f"solves_failed={result['failed']} of {result['attempted']}")
        for name, metric in result["metrics"].items():
            print(f"  {name} = {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed}))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
