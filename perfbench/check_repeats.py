#!/usr/bin/env python3
"""Exact-repeat check for the benchmark's deterministic outputs.

For one seed, runs every workload twice and requires the same row
fingerprint (final positions and radii bit for bit, rounds, messages,
coverage, ring searches, adjacency patches and, on async_lossy, the
event and message counters) and the same deterministic metrics. On the
workloads that run at two threads it also runs them at one thread and
requires the same. Cache hits and snapshot bytes depend on scheduling
at two threads and are not compared.

Run from the repository root:

    python3 perfbench/check_repeats.py [--seed N] [--seconds S]

Exits 0 when everything repeats, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["corner_converge", "async_lossy", "host_stream"]
MULTI_THREADED = {"host_stream"}
EXACT = ["rounds", "messages", "max_radius", "balance_jain", "covered_fraction"]


def run(command, workload, seed, seconds, threads=None):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    if threads is not None:
        args += ["--threads", str(threads)]
    out = subprocess.run(args, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    row = json.loads(lines[-2])["row"]
    result = json.loads(lines[-1])
    exact = {name: result["metrics"][name]["value"] for name in EXACT}
    return row["fingerprint"], exact, result["failed"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=2)
    opts = parser.parse_args()
    with open("BENCHMARK.json") as f:
        command = json.load(f)["command"]
    ok = True
    for workload in WORKLOADS:
        runs = {"run 1": run(command, workload, opts.seed, opts.seconds),
                "run 2": run(command, workload, opts.seed, opts.seconds)}
        if workload in MULTI_THREADED:
            runs["threads 1"] = run(command, workload, opts.seed, opts.seconds, threads=1)
        reference = runs["run 1"]
        for label, got in runs.items():
            same = got[:2] == reference[:2]
            ok &= same and got[2] == 0
            print(f"{workload:16s} {label:9s} fingerprint {got[0]} failed {got[2]} "
                  f"{'same' if same else 'DIFFERS'}")
    print("all outputs repeat exactly" if ok else "outputs do not repeat")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
