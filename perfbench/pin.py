#!/usr/bin/env python3
"""Regenerate `pins.json`: the coloring hash of each workload and seed.

    python3 perfbench/pin.py --seeds 0-20

Run from the root of the repository.  Each pin is the FNV-1a hash of the
coloring `perfbench` produces for the workload at full size and that
seed.  `run.py` fails any solve whose hash differs from the pin, so
regenerate the pins only for a change that is meant to alter colorings,
and say so in that change.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-20")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    pins = {}
    for workload in run.WORKLOADS:
        pins[workload] = {}
        for seed in range(lo, hi + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", "0", "--trace", "0", "--unpinned"]
            done = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                sys.exit(f"pin: {workload} seed {seed} failed")
            lines = done.stdout.strip().splitlines()
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            if not result["correct"] or len(info["hashes"]) != 1:
                sys.exit(f"pin: {workload} seed {seed} did not solve cleanly")
            pins[workload][str(seed)] = info["hashes"][0]
            print(f"{workload} {seed} {info['hashes'][0]}", file=sys.stderr)
    with open(os.path.join(HERE, "pins.json"), "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
