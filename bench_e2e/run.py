#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the checkout it sits in.

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench_e2e/run.py --smoke

Run from the checkout root. The first run configures and builds the library
and the benchmark into .bench_build/e2e (Release); later runs rebuild only
what changed. The benchmark binary prints one "metric" line per measurement;
this script relays its output and ends with one JSON line holding the
verdict and the metrics BENCHMARK.json names for the mode: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Per-layer
metrics of layers a workload does not run read 0. With --trace 1 the spans
go to .bench_build/e2e/spans-<workload>-<seed>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
RUN_TIMEOUT_S = 175  # every run must end within 180 s


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("bench_e2e: no library sources beside the benchmark")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("bench_e2e: build failed: " + " ".join(step))


def run(argv):
    """Runs the binary, relaying its stdout; returns (exit code, stdout)."""
    proc = subprocess.Popen([BINARY] + argv, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("bench_e2e: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out)
    return proc.returncode, out


def parse(out):
    metrics, result = {}, None
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[0] == "metric":
            metrics[fields[2]] = (float(fields[3]), fields[4])
        elif fields and fields[0] == "result":
            result = dict(f.split("=", 1) for f in fields[2:])
    return metrics, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if not args.smoke and args.workload not in names:
        parser.error("--workload must be one of " + ", ".join(names))

    build()
    if args.smoke:
        sys.stdout.flush()
        sys.exit(subprocess.run([BINARY, "--smoke"], timeout=RUN_TIMEOUT_S)
                 .returncode)

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    if args.trace:
        argv += ["--trace", os.path.join(
            BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    code, out = run(argv)
    measured, result = parse(out)
    if result is None:
        sys.exit("bench_e2e: the run printed no result (exit %d)" % code)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        value, unit = measured.get(m["name"], (None, m["unit"]))
        if value is None:
            if not args.trace:
                sys.exit("bench_e2e: end-to-end metric %s missing" % m["name"])
            value = 0.0  # a layer this workload does not exercise
        if unit != m["unit"]:
            sys.exit("bench_e2e: %s measured in %s, declared in %s"
                     % (m["name"], unit, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": result["correct"] == "1" and code == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    sys.exit(code)


if __name__ == "__main__":
    main()
