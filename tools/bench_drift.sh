#!/usr/bin/env bash
# Perf-drift gate: re-runs the benches behind every committed BENCH file
# and compares each committed row against the fresh run.
#
# Every field derived from simulated cycles is bit-stable on a healthy tree,
# so it must match exactly: BENCH_serving_slo.json, BENCH_failover.json and
# BENCH_shard_scaling_rep2.json in every field except wall time
# (wall_clock_sec, wall_sec), and BENCH_shard_scaling.json's ratios
# (speedup_vs_flat, scaling_vs_1shard). The one wall-clock comparison is
# bench_sim_throughput's speedup_vs_step on the .run rows (Run() against
# the Step() loop, steadied by the bench's best-of-5 timing of Run()); it
# still swings ~20% run to run, so it gets a +/-40% band — a real scheduler
# regression collapses the sparse-topology speedups toward 1x, far past it.
#
#   tools/bench_drift.sh [build_dir]    # default: build
#
# On intentional model or performance changes, refresh the committed
# baselines from full runs and say why in the commit message:
#   build/bench/bench_shard_scaling  --json=BENCH_shard_scaling.json
#   build/bench/bench_shard_scaling  --replication=2 --gather=flat \
#                                    --json=BENCH_shard_scaling_rep2.json
#   build/bench/bench_sim_throughput --json=BENCH_sim_throughput.json
#   build/bench/bench_serving_slo    --json=BENCH_serving_slo.json
#   build/bench/bench_serving_slo    --failover --json=BENCH_failover.json
set -uo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"

for b in bench_shard_scaling bench_sim_throughput bench_serving_slo; do
  if [[ ! -x "$BUILD_DIR/bench/$b" ]]; then
    echo "error: $BUILD_DIR/bench/$b not built" >&2
    exit 2
  fi
done

ok=1

# Runs one full-size bench into $BUILD_DIR/<json>_fresh.json. Full (non-smoke)
# runs: the committed baselines are full-size. They also re-assert the
# benches' own floors (scatter-tree >= 6x, auto within 5% of the best static
# topology, the serving and failover shapes).
fresh_run() {
  local json="$1" bench="$2"
  shift 2
  if ! "$BUILD_DIR/bench/$bench" "$@" \
      --json="$BUILD_DIR/${json%.json}_fresh.json" >/dev/null; then
    echo "FAILED: $bench $* asserted or crashed" >&2
    ok=0
  fi
}

echo "=== bench-drift gate: fresh full runs ($BUILD_DIR) ==="
fresh_run BENCH_shard_scaling.json bench_shard_scaling
fresh_run BENCH_shard_scaling_rep2.json bench_shard_scaling \
  --replication=2 --gather=flat
fresh_run BENCH_sim_throughput.json bench_sim_throughput
fresh_run BENCH_serving_slo.json bench_serving_slo
fresh_run BENCH_failover.json bench_serving_slo --failover

if [[ $ok -eq 1 ]]; then
  python3 - "$BUILD_DIR" <<'EOF' || ok=0
import json, re, sys

build = sys.argv[1]
WALL = {"name", "wall_sec"}
# (baseline, rows gated, tolerance (0 = exact), fields gated; None = every
# field but the row name and wall time)
SPECS = [
    ("BENCH_shard_scaling.json", ".*", 0,
     ["speedup_vs_flat", "scaling_vs_1shard"]),
    ("BENCH_shard_scaling_rep2.json", ".*", 0, None),
    ("BENCH_serving_slo.json", ".*", 0, None),
    ("BENCH_failover.json", ".*", 0, None),
    ("BENCH_sim_throughput.json", r"\.run$", 0.40, ["speedup_vs_step"]),
]

failed = False
for baseline_path, row_filter, tol, fields in SPECS:
    fresh_path = f"{build}/{baseline_path[:-len('.json')]}_fresh.json"
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
    drifted = gated = 0
    for name in sorted(set(base) & set(fresh)):
        if not gate.search(name):
            continue
        gated += 1
        names = fields or sorted((set(base[name]) | set(fresh[name])) - WALL)
        for field in names:
            want = base[name].get(field)
            got = fresh[name].get(field)
            if tol == 0:
                if got != want:
                    print(f"FAIL {baseline_path}: {name}.{field} "
                          f"{want} -> {got}")
                    failed = True
                    drifted += 1
            elif want is not None and got is not None and \
                    abs(got - want) > tol * abs(want):
                print(f"FAIL {baseline_path}: {name}.{field} drifted "
                      f"{want:.3f} -> {got:.3f} "
                      f"({(got - want) / want * 100.0:+.1f}%)")
                failed = True
                drifted += 1
    what = "every field but wall time" if fields is None else \
        f"{len(fields)} field(s)"
    bound = "exactly" if tol == 0 else f"at +/-{tol * 100:.0f}%"
    print(f"{baseline_path}: {gated} rows x {what} gated {bound}, "
          f"{drifted} drifted")
sys.exit(1 if failed else 0)
EOF
fi

if [[ $ok -ne 1 ]]; then
  echo "FAILED: committed bench baselines drifted — see above." >&2
  echo "If intentional, refresh the committed BENCH JSONs and say why in the commit." >&2
  exit 1
fi
echo "bench-drift gate green: every committed row matches its fresh run"
