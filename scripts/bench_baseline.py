#!/usr/bin/env python3
"""Perf-regression baseline harness for the deterministic benchmarks.

Each bench binary accepts --bench-json=<path> and writes
{"bench": <name>, "results": {<key>: <number>, ...}}. This script runs the
deterministic subset (model-derived byte/task counts, not wall-clock), merges
the outputs, and either records them as the committed baseline or checks the
fresh numbers against it.

  scripts/bench_baseline.py --record            # (re)write BENCH_BASELINE.json
  scripts/bench_baseline.py --check             # fail on >15% drift
  scripts/bench_baseline.py --check --tolerance=0.30

Exit status: 0 = within tolerance, 1 = regression / missing key / bench
failure. Only relative drift beyond the tolerance fails; keys present in the
fresh run but absent from the baseline are reported as "new" and do not fail
(record again to adopt them).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# (binary, extra argv) pairs. Deterministic benches only: their results are
# closed-form model outputs (shuffle bytes, task counts, analytic costs),
# identical on every machine. Wall-clock benches (bench_fig7_systems etc.)
# are excluded on purpose. The overhead ratios are the exception that
# proves the rule: *_overhead_ratio keys are wall-clock derived but
# scale-free (feature-on time / feature-off time, min of ABBA-ordered
# reps), so ~1.0 on any machine — drift beyond tolerance means the flight
# events the analyzers read got expensive to record.
BENCHES = [
    ("bench_table2_costs", []),
    ("bench_validation_real", []),
    ("bench_fig7_comm", []),
    # Its gpu_util_* / gpu_overlap_ratio keys come from the virtual device
    # timeline — deterministic on any machine — and the binary itself fails
    # when the analytic model drifts from the measured overlap.
    ("bench_fig7_gpu_util", []),
    ("bench_micro_engine",
     ["--analyzer-overhead-only", "--gpu-obs-overhead-only",
      "--pipeline-overlap-only"]),
]

# Per-key tolerance overrides: (bench, key) -> allowed relative drift. The
# overhead ratios centre on 1.0, so the default 15% would wave through a
# feature that suddenly costs 15% of every run — gate them at 5% instead
# (a recorded baseline of ~1.02 plus 5% still rejects anything near 1.10).
TOLERANCE_OVERRIDES = {
    ("bench_micro_engine", "analyzer_overhead_ratio"): 0.05,
    ("bench_micro_engine", "gpu_obs_overhead_ratio"): 0.05,
    # Overlap gate, not an overhead gate: the bench floors the recorded
    # depth-4 / depth-0 fetch-wait ratio at 0.35, so a 1.00 relative
    # tolerance on the 0.35 base fails exactly when the fresh ratio exceeds
    # 0.70 — i.e. when the prefetch pipeline stops hiding at least 30% of
    # the fleet's fetch-wait time.
    ("bench_micro_engine", "pipeline_fetch_wait_ratio"): 1.00,
}

BASELINE = "BENCH_BASELINE.json"


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_benches(build_dir):
    """Runs every bench with --bench-json and returns {bench: {key: value}}."""
    merged = {}
    for bench, extra_args in BENCHES:
        binary = os.path.join(build_dir, "bench", bench)
        if not os.path.isfile(binary):
            print(f"bench_baseline: missing binary {binary} (build first?)",
                  file=sys.stderr)
            return None
        with tempfile.NamedTemporaryFile(
                suffix=".json", prefix=f"{bench}.", delete=False) as tmp:
            out_path = tmp.name
        try:
            proc = subprocess.run(
                [binary, f"--bench-json={out_path}"] + extra_args,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
                print(f"bench_baseline: {bench} exited "
                      f"{proc.returncode}", file=sys.stderr)
                return None
            with open(out_path) as f:
                payload = json.load(f)
            merged[bench] = payload["results"]
        finally:
            os.unlink(out_path)
    return merged


def compare(baseline, fresh, tolerance):
    """Returns (ok, lines): per-key verdicts of fresh vs baseline. The
    default tolerance applies unless TOLERANCE_OVERRIDES names a tighter
    (or looser) one for a specific (bench, key)."""
    ok = True
    lines = []
    for bench, base_results in sorted(baseline.items()):
        fresh_results = fresh.get(bench)
        if fresh_results is None:
            ok = False
            lines.append(f"MISSING BENCH {bench}")
            continue
        for key, base_value in sorted(base_results.items()):
            if key not in fresh_results:
                ok = False
                lines.append(f"MISSING {bench}:{key}")
                continue
            value = fresh_results[key]
            key_tolerance = TOLERANCE_OVERRIDES.get((bench, key), tolerance)
            if base_value == 0:
                # No relative scale; any nonzero drift on an exact-zero
                # baseline is a behavior change.
                drift_ok = value == 0
                rel = float("inf") if value != 0 else 0.0
            else:
                rel = (value - base_value) / abs(base_value)
                drift_ok = abs(rel) <= key_tolerance
            if not drift_ok:
                ok = False
                lines.append(
                    f"REGRESSION {bench}:{key}: {base_value:g} -> "
                    f"{value:g} ({rel:+.1%}, tolerance {key_tolerance:.0%})")
        for key in sorted(set(fresh_results) - set(base_results)):
            lines.append(f"new (unbaselined) {bench}:{key} = "
                         f"{fresh_results[key]:g}")
    for bench in sorted(set(fresh) - set(baseline)):
        lines.append(f"new (unbaselined) bench {bench}")
    return ok, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true",
                      help=f"run benches and (re)write {BASELINE}")
    mode.add_argument("--check", action="store_true",
                      help=f"run benches and compare against {BASELINE}")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed relative drift per key (default 0.15)")
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory (default: build)")
    parser.add_argument("--baseline", default=None,
                        help=f"baseline path (default: <repo>/{BASELINE})")
    args = parser.parse_args()

    root = repo_root()
    build_dir = args.build_dir if os.path.isabs(args.build_dir) \
        else os.path.join(root, args.build_dir)
    baseline_path = args.baseline or os.path.join(root, BASELINE)

    fresh = run_benches(build_dir)
    if fresh is None:
        return 1

    if args.record:
        with open(baseline_path, "w") as f:
            json.dump(fresh, f, indent=2, sort_keys=True)
            f.write("\n")
        total = sum(len(r) for r in fresh.values())
        print(f"bench_baseline: recorded {total} keys from "
              f"{len(fresh)} benches to {baseline_path}")
        return 0

    if not os.path.isfile(baseline_path):
        print(f"bench_baseline: no baseline at {baseline_path}; "
              f"run --record first", file=sys.stderr)
        return 1
    with open(baseline_path) as f:
        baseline = json.load(f)

    ok, lines = compare(baseline, fresh, args.tolerance)
    for line in lines:
        print(f"bench_baseline: {line}")
    checked = sum(len(r) for r in baseline.values())
    if ok:
        print(f"bench_baseline: OK — {checked} keys within "
              f"{args.tolerance:.0%} of {os.path.basename(baseline_path)}")
        return 0
    print("bench_baseline: FAILED", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
