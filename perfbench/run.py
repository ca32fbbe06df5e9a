#!/usr/bin/env python3
"""Wall-clock benchmark of DistME: builds the engine and the benchmark from
this checkout, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. The traced run also writes a Chrome
trace of its spans into the build directory.

--smoke runs every workload at tiny sizes, traced and untraced, checks that
each prints exactly the metrics BENCHMARK.json names, and checks that a
corrupted output element is counted as a failed op.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
at the checkout root). Exit status: 0 ok, 1 wrong results, 2 build or usage
error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dense-square", "sparse-common-dim", "gnmf-gpu")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary path. Both
    steps are incremental, so only the first run in a checkout compiles."""
    out = build_dir()
    steps = [["cmake", "-S", HERE, "-B", out],
             ["cmake", "--build", out, "--target", "distme_perfbench",
              "-j", str(os.cpu_count() or 1)]]
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            sys.exit(2)
    return os.path.join(out, "distme_perfbench")


def run(binary, args, capture):
    try:
        return subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        sys.exit(2)


def check_trace(path):
    with open(path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    assert spans, "trace has no spans"
    for e in spans:
        assert e["name"] and e["dur"] >= 0 and e["ts"] >= 0, e
        assert {"parent", "op"} <= set(e["args"]), e


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            trace_out = os.path.join(build_dir(), f"smoke-{workload}.json")
            args = ["--workload", workload, "--seed", "1", "--seconds", "0.3",
                    "--trace", str(trace), "--smoke", "--trace-out", trace_out]
            done = run(binary, args, capture=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert done.returncode == 0 and result["correct"], (workload, trace)
            assert set(result["metrics"]) == expected[trace], (
                workload, trace, set(result["metrics"]) ^ expected[trace])
            if trace == 1:
                check_trace(trace_out)
            # One perturbed output element must count as a failed op.
            done = run(binary, args + ["--corrupt-op", "0"], capture=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert done.returncode == 1 and not result["correct"], (workload, trace)
            assert result["failed"] >= 1, (workload, trace)
            print(f"smoke: {workload} trace={trace}: ok, corruption caught")
    print("smoke: OK")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.smoke:
        smoke(binary)
        return 0
    command = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            build_dir(), f"trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    return run(binary, command, capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
