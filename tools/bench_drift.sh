#!/usr/bin/env bash
# Perf-drift gate: re-runs the two headline benches and compares every
# committed speedup/scaling row against the fresh run. Cycle-derived
# ratios (bench_shard_scaling: requests per simulated second) are
# bit-stable on a healthy tree and gated at ±15%. The wall-clock
# speedup_vs_step rows of bench_sim_throughput (Run() against the Step()
# loop) still swing ~20% run to run even after the bench's best-of-5
# steadying of Run(), so they get a wider ±40% band — a real scheduler
# regression collapses the sparse-topology speedups toward 1×, far past it.
#
#   tools/bench_drift.sh [build_dir]    # default: build
#
# On intentional performance-model changes, refresh the committed
# baselines from a full run and say why in the commit message:
#   build/bench/bench_shard_scaling  --json=BENCH_shard_scaling.json
#   build/bench/bench_sim_throughput --json=BENCH_sim_throughput.json
# Tolerance override (percent): BENCH_DRIFT_TOL_PCT=20 tools/bench_drift.sh
set -uo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
TOL_PCT="${BENCH_DRIFT_TOL_PCT:-15}"

for b in bench_shard_scaling bench_sim_throughput; do
  if [[ ! -x "$BUILD_DIR/bench/$b" ]]; then
    echo "error: $BUILD_DIR/bench/$b not built" >&2
    exit 2
  fi
done

ok=1

echo "=== bench-drift gate: fresh full runs ($BUILD_DIR, +/-${TOL_PCT}%) ==="
# Full (non-smoke) runs: the committed baselines are full-size, and the
# cycle-ratio rows only match their committed values at matching size.
# These runs also re-assert the benches' own floors (scatter-tree >= 6x,
# auto within 5% of the best static topology).
if ! "$BUILD_DIR/bench/bench_shard_scaling" \
    --json="$BUILD_DIR/BENCH_shard_scaling_fresh.json" >/dev/null; then
  echo "FAILED: bench_shard_scaling asserted or crashed" >&2
  ok=0
fi
if ! "$BUILD_DIR/bench/bench_sim_throughput" \
    --json="$BUILD_DIR/BENCH_sim_throughput_fresh.json" >/dev/null; then
  echo "FAILED: bench_sim_throughput asserted or crashed" >&2
  ok=0
fi

if [[ $ok -eq 1 ]]; then
  # Gated rows: every shard_scaling ratio is derived from simulated cycles
  # (deterministic), so all rows are compared at the tight tolerance.
  # sim_throughput's speedup_vs_step is wall-clock; only the rows the
  # bench steadies with best-of-5 timing (the .run rows) are gated at all —
  # the single-run .step rows swing with box load — and even those get the
  # wide band.
  # Per-spec tolerance: '-' means the default ($TOL_PCT).
  python3 - "$TOL_PCT" \
      BENCH_shard_scaling.json "$BUILD_DIR/BENCH_shard_scaling_fresh.json" \
          '.*' - speedup_vs_flat scaling_vs_1shard -- \
      BENCH_sim_throughput.json "$BUILD_DIR/BENCH_sim_throughput_fresh.json" \
          '\.run$' 40 speedup_vs_step <<'EOF' || ok=0
import json, re, sys

default_tol = float(sys.argv[1]) / 100.0
specs, cur = [], None
for arg in sys.argv[2:]:
    if arg == "--":
        cur = None
    elif cur is None:
        cur = [arg, None, None, None, []]
        specs.append(cur)
    elif cur[1] is None:
        cur[1] = arg
    elif cur[2] is None:
        cur[2] = arg
    elif cur[3] is None:
        cur[3] = default_tol if arg == "-" else float(arg) / 100.0
    else:
        cur[4].append(arg)

failed = False
for baseline_path, fresh_path, row_filter, tol, fields in specs:
    base = {r["name"]: r for r in json.load(open(baseline_path))["rows"]}
    fresh = {r["name"]: r for r in json.load(open(fresh_path))["rows"]}
    # Row-set drift is checked over ALL rows (cheap and deterministic):
    # a renamed or vanished row means the baseline no longer matches the
    # bench, whatever its timing.
    missing = sorted(set(base) - set(fresh))
    extra = sorted(set(fresh) - set(base))
    if missing:
        print(f"FAIL {baseline_path}: rows gone from fresh run: {missing}")
        failed = True
    if extra:
        print(f"FAIL {baseline_path}: baseline is stale, fresh run has new "
              f"rows: {extra} — refresh the committed JSON")
        failed = True
    gate = re.compile(row_filter)
    drifted = 0
    gated = 0
    for name in sorted(set(base) & set(fresh)):
        if not gate.search(name):
            continue
        gated += 1
        for field in fields:
            want = base[name].get(field)
            got = fresh[name].get(field)
            if want is None or got is None:
                continue
            if abs(got - want) > tol * abs(want):
                print(f"FAIL {baseline_path}: {name}.{field} drifted "
                      f"{want:.3f} -> {got:.3f} "
                      f"({(got - want) / want * 100.0:+.1f}%)")
                failed = True
                drifted += 1
    print(f"{baseline_path}: {gated} rows x {len(fields)} field(s) "
          f"gated at +/-{tol * 100:.0f}%, {drifted} drifted")
sys.exit(1 if failed else 0)
EOF
fi

if [[ $ok -ne 1 ]]; then
  echo "FAILED: bench perf baselines drifted beyond tolerance — see above." >&2
  echo "If intentional, refresh the committed BENCH JSONs and say why in the commit." >&2
  exit 1
fi
echo "bench-drift gate green: all speedup/scaling rows within tolerance"
