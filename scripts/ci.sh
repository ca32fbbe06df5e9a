#!/usr/bin/env bash
# The one-command gate: build + ctest + strict -Werror build + trace lint +
# bench-baseline (perf-regression) check + causal-analyzer smoke (a sim
# flight dump must analyze and self-diff cleanly) + the wall-clock
# benchmark's smoke run (perfbench builds, and its oracles hold, at tiny
# sizes). This is the command CI runs and the command to run locally before
# sending a change.
#
# Usage: scripts/ci.sh [--sanitize] [--lint] [--analyze]
#   (from anywhere in the repo)
#
#   --lint       distme-lint over src/ tests/ bench/, the linter's own
#                fixture suite, and (when clang-tidy is installed) an
#                advisory clang-tidy pass — tidy findings are printed, never
#                fatal; the distme-lint stages are mandatory.
#   --analyze    the lock-discipline gates (DESIGN.md §4.8): distme-lint's
#                lock-annotate/lock-held/atomic-order passes + fixture suite
#                (always, fatal), a clang -DDISTME_THREAD_SAFETY=ON build
#                when clang++ is installed, and the *enforced* clang-tidy
#                concurrency profile (.clang-tidy-enforced, fatal) when
#                clang-tidy is installed. The clang stages print a visible
#                skip notice in gcc-only environments.
#   --sanitize   the sanitizer matrix: the full tier-1 ctest suite under
#                ASan+UBSan (build-asan/), and the concurrency stress,
#                live-telemetry, GPU-timeline, pipeline and fault-tolerance
#                suites under TSan (build-tsan/). Suppression files live in
#                scripts/sanitizers/ and start out empty — a report is a bug.

set -euo pipefail
cd "$(dirname "$0")/.."

run_sanitize=0
run_lint=0
run_analyze=0
for arg in "$@"; do
  case "$arg" in
    --sanitize) run_sanitize=1 ;;
    --lint) run_lint=1 ;;
    --analyze) run_analyze=1 ;;
    *) echo "ci: unknown argument '$arg'" >&2; exit 2 ;;
  esac
done

tier1_args=(--bench)
if [[ "$run_lint" -eq 1 ]]; then
  tier1_args+=(--lint)
fi
if [[ "$run_analyze" -eq 1 ]]; then
  tier1_args+=(--analyze)
fi
scripts/check_tier1.sh "${tier1_args[@]}"

echo
echo "== causal analyzer smoke: sim flight dump -> distme_analyze =="
analyze=./build/src/obs/distme_analyze
dump_a="$(mktemp /tmp/distme_flight.XXXXXX.json)"
dump_b="$(mktemp /tmp/distme_flight.XXXXXX.json)"
trap 'rm -f "$dump_a" "$dump_b"' EXIT
./build/bench/bench_micro_engine --sim-flight-dump="$dump_a" >/dev/null
./build/bench/bench_micro_engine --sim-flight-dump="$dump_b" >/dev/null
"$analyze" "$dump_a"
# Two dumps of the same workload must diff to a stable top-1 bottleneck.
diff_out="$("$analyze" "$dump_a" "$dump_b")"
echo "$diff_out"
grep -q '\[stable\]' <<<"$diff_out"

echo
echo "== gpu timeline smoke: device interval dump -> --gpu / --timeline =="
gpu_dump="$(mktemp /tmp/distme_gpu.XXXXXX.json)"
gpu_dump_b="$(mktemp /tmp/distme_gpu.XXXXXX.json)"
gpu_trace="$(mktemp /tmp/distme_gpu_trace.XXXXXX.json)"
trap 'rm -f "$dump_a" "$dump_b" "$gpu_dump" "$gpu_dump_b" "$gpu_trace"' EXIT
./build/bench/bench_micro_engine --gpu-flight-dump="$gpu_dump" >/dev/null
./build/bench/bench_micro_engine --gpu-flight-dump="$gpu_dump_b" >/dev/null
"$analyze" "$gpu_dump" --gpu
# The dump is deterministic, so two of them must analyze byte-identically.
cmp <("$analyze" "$gpu_dump" --gpu --json) \
    <("$analyze" "$gpu_dump_b" --gpu --json)
# The Chrome-trace export of the dump must satisfy the viewer invariants.
"$analyze" "$gpu_dump" --timeline "$gpu_trace" >/dev/null
python3 scripts/trace_lint.py "$gpu_trace"

echo
echo "== wall-clock benchmark smoke: perfbench/run.py --smoke =="
# Builds the benchmark from this checkout and runs every workload tiny,
# traced and untraced, with its correctness oracles — an engine change that
# breaks the benchmark fails here rather than in the benchmark run.
python3 perfbench/run.py --smoke

if [[ "$run_lint" -eq 1 ]]; then
  echo
  echo "== clang-tidy (advisory) =="
  if command -v clang-tidy >/dev/null 2>&1; then
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    # Advisory: report, don't fail. The mandatory checks are distme-lint's.
    clang-tidy -p build --quiet \
      $(git ls-files 'src/*.cc' 2>/dev/null || find src -name '*.cc') \
      || echo "ci: clang-tidy reported findings (advisory, not fatal)"
  else
    echo "ci: clang-tidy not installed — skipping advisory pass"
  fi
fi

if [[ "$run_analyze" -eq 1 ]]; then
  echo
  echo "== clang-tidy (enforced concurrency profile) =="
  if command -v clang-tidy >/dev/null 2>&1; then
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    # Fatal, unlike the --lint advisory pass: .clang-tidy-enforced holds the
    # concurrency-* / use-after-move subset we always fix.
    clang-tidy -p build --quiet --config-file=.clang-tidy-enforced \
      $(git ls-files 'src/*.cc' 2>/dev/null || find src -name '*.cc')
  else
    echo "ci: clang-tidy not installed — skipping the enforced concurrency"
    echo "ci: profile (.clang-tidy-enforced); distme-lint's lock rules ran"
    echo "ci: above and remain the enforced floor"
  fi
fi

if [[ "$run_sanitize" -eq 1 ]]; then
  echo
  echo "== sanitizer matrix: ASan+UBSan over the full tier-1 suite =="
  cmake -B build-asan -S . -DDISTME_SANITIZE="address;undefined" >/dev/null
  cmake --build build-asan -j "$(nproc)"
  (cd build-asan && \
    ASAN_OPTIONS="suppressions=$PWD/../scripts/sanitizers/asan.supp:detect_leaks=1:abort_on_error=1" \
    UBSAN_OPTIONS="suppressions=$PWD/../scripts/sanitizers/ubsan.supp:print_stacktrace=1:halt_on_error=1" \
    ctest --output-on-failure -j "$(nproc)")

  echo
  echo "== sanitizer matrix: TSan over the concurrency + telemetry suites =="
  # stress_concurrency_test: every shared component hammered by writers
  #   while one reader thread snapshots the registry and flight ring;
  #   includes PipelinedMultiplyHammer, the regression test for
  #   the RealExecutor fetch-to-worker handoff (8-slot prefetch pipelines
  #   crossing one shared staging queue and the per-node prefetch gates).
  # live_telemetry_test: the scrape endpoint thread against session
  #   teardown — the shutdown-ordering bugs TSan sees.
  # gpu_timeline_test: device interval emission (ring writes from under the
  #   device mutex) and the snapshot-side reconstruction.
  # pipeline_test / fault_tolerance_test: the shared staging queue closing
  #   while fetch threads may still push, and attempts crashing
  #   mid-prefetch — the queue teardown and staged-state release paths.
  tsan_suites=(stress_concurrency_test live_telemetry_test gpu_timeline_test
               pipeline_test fault_tolerance_test)
  cmake -B build-tsan -S . -DDISTME_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$(nproc)" --target "${tsan_suites[@]}"
  for suite in "${tsan_suites[@]}"; do
    TSAN_OPTIONS="suppressions=$PWD/scripts/sanitizers/tsan.supp:halt_on_error=1:second_deadlock_stack=1" \
      "./build-tsan/tests/$suite"
  done
fi

echo
echo "ci: all requested gates passed"
