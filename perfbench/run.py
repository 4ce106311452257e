#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from anywhere; the benchmark works from the repository root.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      Build (release, offline) and run one workload. Standard output is
      the benchmark's own; its last line is the JSON result.
  python3 perfbench/run.py --print-pins
      Print pins.rs for the current simulator.
  python3 perfbench/run.py --steady [--sets 1]
      Steadiness mode: run every workload 10 times per set, each run
      with its own seed and BENCHMARK.json's run_seconds, and print each
      end-to-end metric's median and quartile spread next to its bound.
      setup_s is exempt from the spread check, as in the acceptance rule
      (see perfbench/README.md). With --sets 2 or more it also checks
      that each set's median lies within the bound of the first set's.

The build goes to $CARGO_TARGET_DIR, or .bench_build at the root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(PACKAGE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"building the benchmark failed (cargo exit {done.returncode})")
    return target / "release" / "duplex-perfbench"


def run_once(exe, workload, seed, seconds):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result")
    return result, wall


def spread(values):
    """Quartile distance over the median, as the acceptance rule takes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def drift(first, second):
    """How far `second` moved from `first`, as a share of `first`."""
    return abs(second - first) / first


RUNS = 10


def steady(sets):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    exe = build()
    medians = {}
    ok = True
    for s in range(sets):
        for workload in workloads:
            values = {m["name"]: [] for m in metrics}
            walls = []
            for i in range(RUNS):
                seed = 1 + s * RUNS + i
                result, wall = run_once(exe, workload, seed, seconds)
                walls.append(wall)
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"\nset {s + 1} {workload}: {RUNS} runs, "
                  f"wall {min(walls):.1f}-{max(walls):.1f} s per run")
            print(f"  {'metric':<28} {'median':>14} {'spread':>8} "
                  f"{'bound':>6} {'spread/bound':>12}  {'vs set 1':>8}")
            for m in metrics:
                name = m["name"]
                med, sp = spread(values[name])
                line = (f"  {name:<28} {med:>14.6g} {sp:>8.4f} {m['bound']:>6} "
                        f"{sp / m['bound']:>12.2f}")
                # Set-up time is exempt from the spread check (it is
                # only held to its drift between sets).
                steady_enough = name == "setup_s" or sp < m["bound"] / 3
                if s == 0:
                    medians[(workload, name)] = med
                else:
                    moved = drift(medians[(workload, name)], med)
                    line += f"  {moved:>8.4f}"
                    steady_enough = steady_enough and moved <= m["bound"]
                if name == "setup_s":
                    line += "  (spread exempt)"
                if not steady_enough:
                    line += "  <-- too wide"
                    ok = False
                print(line)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    if "--steady" not in argv:
        exe = build()
        sys.exit(subprocess.run([str(exe)] + argv, cwd=ROOT).returncode)
    parser = argparse.ArgumentParser()
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--sets", type=int, default=1)
    opts = parser.parse_args(argv)
    if opts.sets < 1:
        parser.error("--sets must be at least 1")
    sys.exit(steady(opts.sets))

if __name__ == "__main__":
    main()
