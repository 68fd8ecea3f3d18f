#!/usr/bin/env python3
"""Entry point of the repository benchmark (contract: BENCHMARK.json).

Builds the benchmark program and the dbim library from source under
.bench_build/ at the repository root, runs one workload, and prints its
report. The last line of standard output is the JSON result:
{"correct", "attempted", "failed", "metrics"}. End-to-end metrics with
--trace 0, per-layer metrics with --trace 1.

  python3 perfbench/run.py --workload audit --seed 1 --seconds 20 --trace 0

Exits non-zero, without a result line, when the build fails, and with
"correct": false when a correctness check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("audit", "repair-loop", "service-durable")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then (re)builds dbim_perfbench; returns its path."""
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "--target", "dbim_perfbench",
                    "-j", "2"], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "dbim_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.SubprocessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    workdir = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if not lines:
        print("perfbench: dbim_perfbench printed nothing (exit %d)"
              % proc.returncode, file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        print("perfbench: metrics %s do not match BENCHMARK.json %s"
              % (sorted(got.items()), sorted(want.items())), file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
