#!/usr/bin/env bash
# Tier-1 verification driver: builds and tests the default preset, then the
# ASan+UBSan preset, in one command. Run from the repository root:
#
#   tools/check.sh                  # default + asan
#   tools/check.sh --fast           # default preset only
#   tools/check.sh --preset asan    # one named preset only
#
# Tests run per label tier — unit (fast, always-on), property (randomized
# differential suites), golden (cycle-baseline lockdown, see
# tests/golden/cycles.json), chaos (fault-recovery: scheduled link-flaps
# under serving load, tail must recover within the documented budget),
# perf (benchmark smoke runs, e.g. bench_sim_throughput --smoke, which
# re-checks the golden line-rate cycle count through the bench path) —
# with per-tier wall-clock timing so a slow tier is visible at a glance.
# The golden and chaos tiers run on BOTH presets: a cycle count (or a
# recovery path) that drifts only under sanitizers is still a bug. Both
# tiers compare the event-driven Run() against the Step() loop, so the
# sanitizer pass also exercises the event core's arming DCHECKs, which are
# compiled out of the default build. The perf tier runs on the default
# preset only — sanitizer timings are not
# representative, and its correctness content is already covered there.
#
# The asan preset (see CMakePresets.json) configures into build-asan/ with
# FPGADP_SANITIZE=ON, so sanitized and regular build trees never collide.
#
# JOBS defaults to the machine's core count; override with JOBS=N. On a
# tier failure the script keeps going through the remaining tiers and exits
# nonzero with a summary of exactly which (preset, tier) pairs broke.
set -uo pipefail
cd "$(dirname "$0")/.."

if command -v nproc >/dev/null 2>&1; then
  DEFAULT_JOBS="$(nproc)"
else
  DEFAULT_JOBS="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 4)"
fi
JOBS="${JOBS:-$DEFAULT_JOBS}"

PRESETS=(default asan)
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast)
      PRESETS=(default)
      shift
      ;;
    --preset)
      [[ $# -ge 2 ]] || { echo "error: --preset needs a name" >&2; exit 2; }
      PRESETS=("$2")
      shift 2
      ;;
    *)
      echo "error: unknown argument '$1'" >&2
      echo "usage: tools/check.sh [--fast] [--preset <name>]" >&2
      exit 2
      ;;
  esac
done

LABELS=(unit property golden chaos)
FAILURES=()

for preset in "${PRESETS[@]}"; do
  echo "=== [$preset] configure ==="
  if ! cmake --preset "$preset"; then
    FAILURES+=("$preset:configure")
    continue
  fi
  echo "=== [$preset] build ==="
  if ! cmake --build --preset "$preset" -j "$JOBS"; then
    FAILURES+=("$preset:build")
    continue
  fi
  tiers=("${LABELS[@]}")
  if [[ "$preset" == "default" ]]; then
    tiers+=(perf)
  fi
  for label in "${tiers[@]}"; do
    echo "=== [$preset] test: -L $label ==="
    start=$SECONDS
    if ! ctest --preset "$preset" -j "$JOBS" -L "$label"; then
      FAILURES+=("$preset:$label")
    fi
    echo "--- [$preset] $label tier took $((SECONDS - start))s ---"
  done
done

if [[ ${#FAILURES[@]} -gt 0 ]]; then
  echo "FAILED: ${FAILURES[*]}" >&2
  exit 1
fi
echo "All presets green: ${PRESETS[*]} (tiers: ${LABELS[*]} + perf on default)"
