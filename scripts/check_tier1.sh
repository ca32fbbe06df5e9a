#!/usr/bin/env bash
# Tier-1 verification plus the correctness gates:
#   1. the ROADMAP.md tier-1 line: configure, build, ctest
#   2. a strict whole-tree -Werror build (error discipline: every dropped
#      Status/Result fails here, via the class-level [[nodiscard]])
#   3. an end-to-end trace: run a bench with --trace-out= and lint the JSON,
#      failing if the bench's flight ring dropped any event
#   4. with --lint: distme-lint over src/ tests/ bench/ plus the linter's own
#      fixture suite (see scripts/distme_lint.py)
#   5. with --bench: the perf-regression baseline check (deterministic
#      bench outputs vs BENCH_BASELINE.json, >15% drift fails)
#   6. with --analyze: the lock-discipline gates — distme-lint's
#      lock-annotate/lock-held/atomic-order passes (always) and, when a
#      clang++ is installed, a -DDISTME_THREAD_SAFETY=ON build that turns
#      the DISTME_* annotations into clang -Werror=thread-safety errors.
#      Without clang the compiler stage prints a visible skip notice; the
#      Python passes are the portable floor and always run.
#
# Usage: scripts/check_tier1.sh [--bench] [--lint] [--analyze]
#   (from the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

run_bench_check=0
run_lint=0
run_analyze=0
for arg in "$@"; do
  case "$arg" in
    --bench) run_bench_check=1 ;;
    --lint) run_lint=1 ;;
    --analyze) run_analyze=1 ;;
    *) echo "check_tier1: unknown argument '$arg'" >&2; exit 2 ;;
  esac
done

echo "== tier-1: configure + build + ctest =="
cmake -B build -S .
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

echo
echo "== whole tree under -Wall -Wextra -Werror =="
cmake -B build-strict -S . -DDISTME_WERROR=ON >/dev/null
cmake --build build-strict -j "$(nproc)"

echo
echo "== emitted trace passes trace_lint and dropped no flight event =="
trace_out="$(mktemp /tmp/distme_trace.XXXXXX.json)"
trap 'rm -f "$trace_out"' EXIT
./build/bench/bench_validation_real --trace-out="$trace_out" >/dev/null
python3 scripts/trace_lint.py "$trace_out"

if [[ "$run_lint" -eq 1 ]]; then
  echo
  echo "== distme-lint: repo invariants =="
  python3 scripts/distme_lint.py src/ tests/ bench/
  echo
  echo "== distme-lint fixture suite =="
  python3 scripts/distme_lint_test.py
fi

if [[ "$run_analyze" -eq 1 ]]; then
  echo
  echo "== lock discipline: distme-lint lock-annotate / lock-held / atomic-order =="
  # The lock rules are part of the default rule set; run the full linter and
  # the fixture suite so a green --analyze means the same thing everywhere.
  python3 scripts/distme_lint.py src/ tests/ bench/
  python3 scripts/distme_lint_test.py
  echo
  echo "== lock discipline: clang -Wthread-safety =="
  if command -v clang++ >/dev/null 2>&1; then
    cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DDISTME_THREAD_SAFETY=ON >/dev/null
    cmake --build build-tsa -j "$(nproc)"
  else
    echo "check_tier1: clang++ not installed — skipping the -Wthread-safety"
    echo "check_tier1: build stage; the distme-lint lock rules above are the"
    echo "check_tier1: enforced floor in this environment"
  fi
fi

if [[ "$run_bench_check" -eq 1 ]]; then
  echo
  echo "== bench baseline (perf-regression) check =="
  python3 scripts/bench_baseline.py --check
fi

echo
echo "check_tier1: all gates passed"
