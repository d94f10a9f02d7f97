#!/usr/bin/env python3
"""Runs the repository's benchmark on one workload and prints the result.

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 30 --trace 0

Builds perfbench/ (and with it the program under src/) into
.bench_build/perfbench, runs the benchmark binary, checks that it reported
exactly the metrics BENCHMARK.json lists for the mode (end_to_end with
--trace 0, per_layer with --trace 1), attaches their units, and prints one
JSON object as the last line of stdout:

    {"correct": true, "attempted": 300000, "failed": 0,
     "metrics": {"host_s": {"value": 0.59, "unit": "s"}, ...}}

The line before it records the run conditions (engine defaults,
FPGADP_ENGINE, build type, CPU count). Build output goes to stderr. With
--trace 1 the spans of the last traced iteration are written to
.bench_build/perfbench/spans-<workload>.tsv. Any failure exits non-zero
without printing a result.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# A run must end within 180 s; leave room for start-up and the build check.
RUN_TIMEOUT_S = 165


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_env():
    # Keep compiler temporaries inside the checkout.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no program sources (src/) next to perfbench/; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"]
    env = build_env()

    def attempt():
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            if subprocess.call(configure, stdout=sys.stderr, env=env) != 0:
                return False
        return subprocess.call(compile_, stdout=sys.stderr, env=env) == 0

    if attempt():
        return
    # A stale cache (say, from a copy of this checkout elsewhere) is the one
    # failure a clean rebuild fixes.
    shutil.rmtree(BUILD, ignore_errors=True)
    if not attempt():
        fail("build failed")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans", os.path.join(BUILD, "spans-%s.tsv" % args.workload)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)

    lines = out.strip().splitlines()
    if len(lines) < 2:
        fail("benchmark printed no result")
    conditions = json.loads(lines[-2])
    result = json.loads(lines[-1])
    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    values = result["values"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in wanted})
    if missing or extra:
        fail("metrics do not match BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))
    metrics = {}
    for m in wanted:
        v = values[m["name"]]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail("metric %s is not a finite number: %r" % (m["name"], v))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps(conditions))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


def on_term(signum, frame):
    # Turn SIGTERM into SystemExit so the finally clause stops the child.
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_term)
    main()
