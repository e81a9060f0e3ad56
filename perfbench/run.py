#!/usr/bin/env python3
"""End-to-end host-cost benchmark of the Pegasus simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe in the release profile with dune (build
directory .bench_build/dune), runs it, checks that the metrics it
reports are exactly the ones BENCHMARK.json declares for the mode, and
relays its output.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is main.exe's: 0 when every outcome check passed, non-zero on a
digest mismatch, a failed simulated operation, a build failure or a
malformed result.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def declared_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    names = {w["name"] for w in spec["workloads"]}
    return names, {m["name"]: m["unit"] for m in section}


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    if not os.path.exists("dune-project"):
        fail("no dune-project here: run from the root of a source checkout")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    cmd = [dune, "build", "--root", ".", "--profile", "release",
           "--build-dir", os.path.abspath(BUILD_DIR), "./perfbench/main.exe"]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed (exit %d)" % r.returncode)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    workloads, metrics = declared_metrics(args.trace == 1)
    if args.workload not in workloads:
        fail("workload %r is not in BENCHMARK.json" % args.workload)
    build()

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", os.path.join("perfbench", "golden.tsv"),
           "--nproc", str(len(os.sched_getaffinity(0)))]
    if args.trace == 1:
        spans = os.path.join(".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)

    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(r.stdout)
        fail("main.exe printed no result line (exit %d)" % r.returncode)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(result))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != metrics:
        fail("reported metrics %s differ from BENCHMARK.json %s"
             % (sorted(got.items()), sorted(metrics.items())))
    sys.stdout.write("\n".join(lines) + "\n")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
