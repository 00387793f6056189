#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload sparse_gnm --seed 1 --seconds 20 --trace 0

Run from the root of the repository.  The script builds the `perfbench`
binary (a package of its own next to this file) into `$CARGO_TARGET_DIR`
(default `.bench_build`), generates the workload graph from `--seed`
several times (the set-up), then either

* `--trace 0`: solves it in a closed loop for `--seconds` seconds with
  tracing off and reports the end-to-end metrics, or
* `--trace 1`: alternates untraced and traced solves for `--seconds`
  seconds, times every layer's public entry point, and reports the
  per-layer metrics.

Every coloring is checked with `verify_coloring`, every solve of a run
must produce the same coloring, and where `pins.json` pins a hash for
the workload and seed the coloring must match it.  The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--size tiny` runs a few thousand nodes per workload (the self-test).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sparse_gnm", "powerlaw_partition", "exhaustive_search")
# Set-up runs per benchmark run; `setup_s` is their median.
SETUP_RUNS = 5


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target):
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def run_child(binary, mode, args, workdir, seconds=None):
    cmd = [binary, mode, "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--dir", workdir]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"`perfbench {mode}` exited with {done.returncode}")
    return json.loads(lines[-1])


def pinned_hash(workload, seed, size):
    if size != "full":
        return None
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def check_hashes(child, pin):
    """Failure notes for colorings that disagree with the pin or with
    each other; the child already counted panics and invalid colorings.
    In a traced run this also checks that the traced solves, whose seed
    searches go through the wrapping searcher, chose the untraced seeds."""
    notes = list(child["failures"])
    hashes = child["hashes"]
    if pin is not None:
        notes += [f"coloring {h} differs from pinned {pin}" for h in hashes if h != pin]
    elif len(set(hashes)) > 1:
        notes.append(f"colorings differ across solves: {sorted(set(hashes))}")
    return notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--unpinned", action="store_true",
                    help="skip the pinned-hash check (pin.py uses this to make pins)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target)
    workdir = os.path.join(target, "perfbench-work")
    try:
        setups = [run_child(binary, "setup", args, workdir) for _ in range(SETUP_RUNS)]
        child = run_child(binary, "trace" if args.trace else "solve", args, workdir, args.seconds)
    finally:
        stem = f"{args.workload}-{args.seed}-{args.size}"
        for ext in (".pcg", ".coloring"):
            path = os.path.join(workdir, stem + ext)
            if os.path.exists(path):
                os.remove(path)

    pin = None if args.unpinned else pinned_hash(args.workload, args.seed, args.size)
    notes = check_hashes(child, pin)
    for note in notes:
        print(f"perfbench: {note}", file=sys.stderr)
    info = {k: child[k] for k in ("workload", "seed", "host_threads", "workers", "simd_path")}
    info.update({k: setups[0][k] for k in ("n", "m", "max_degree")})
    info["hashes"] = sorted(set(child["hashes"]))
    info["solves_attempted"] = child["attempted"]
    info["solves_failed"] = len(notes)
    if args.trace:
        metrics = child["metrics"]
        info.update({k: child[k] for k in ("untraced_s", "traced_s") if k in child})
    else:
        samples = child["solve_s"]
        info["solve_samples_s"] = samples
        metrics = {}
        if samples:
            metrics = {
                "solve_s": {"value": statistics.median(samples), "unit": "s"},
                "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
                "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
                "colors_used": {"value": child["colors_used"], "unit": "count"},
                "mpc_rounds": {"value": child["mpc_rounds"], "unit": "count"},
                "local_rounds": {"value": child["local_rounds"], "unit": "count"},
                "max_machine_words": {"value": child["max_machine_words"], "unit": "words"},
            }
    print(json.dumps(info))
    attempted = max(child["attempted"], 1)
    failed = min(len(notes), attempted)
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
