#!/usr/bin/env python3
"""Builds and runs the ShieldStore benchmark of record.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) built against the repository's crates by path;
Cargo's target directory is $CARGO_TARGET_DIR, or perfbench/target. The
binary's output is passed through; its last line is one JSON object with
the keys correct, attempted, failed and metrics. The metric names are
checked against BENCHMARK.json when it is present. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINARY = "shieldstore-perfbench"
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    command = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Cargo writes progress to stderr; keep stdout for the result alone.
    done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    return os.path.join(ROOT, target, "release", BINARY)


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if result is None:
        sys.stdout.write(done.stdout)
        fail(f"no result line (exit code {done.returncode})")
    want = expected_metrics(args.trace == 1)
    if want is not None and set(result["metrics"]) != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"metrics {sorted(set(result['metrics']) ^ want)} differ from BENCHMARK.json")
    sys.stdout.write(done.stdout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
