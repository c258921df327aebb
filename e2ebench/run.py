#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark and prints its result.

    python3 e2ebench/run.py --workload train-wide-delta --seed 20220429 \
        --seconds 10 --trace 0 [--out results.jsonl]

Builds e2ebench/ (and through it ../src) in Release into .bench_build/ at the
checkout root, runs the e2e_bench binary, checks its metrics against
BENCHMARK.json, prints every metric with its unit on stderr, and prints the
result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--out appends the full record (result, model identity, host stamp) as one
JSON line, the input format of compare.py. Exits non-zero, printing no
result, when the build or the run fails.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2e_bench")
RUN_TIMEOUT_S = 150


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once and builds; a stale build tree is wiped and rebuilt."""
    jobs = str(min(4, os.cpu_count() or 1))
    for attempt in range(2):
        cmds = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            cmds.append(cmd)
        cmds.append(["cmake", "--build", BUILD, "-j", jobs,
                     "--target", "e2e_bench"])
        if all(subprocess.run(c, stdout=sys.stderr).returncode == 0
               for c in cmds):
            return True
        if attempt == 0 and os.path.isdir(BUILD):
            log("run.py: build failed; retrying from a clean build tree")
            shutil.rmtree(BUILD)
    return False


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", help="append the full record to this JSONL file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"run.py: unknown workload {args.workload!r}")
        return 2
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}

    if not build():
        log("run.py: build failed")
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: e2e_bench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        log(f"run.py: e2e_bench exited with {p.returncode}")
        return 1
    record = json.loads(lines[-1])
    info = record["info"]
    if info["build_type"] != "Release":
        log(f"run.py: refusing a {info['build_type']} build; timings need "
            "Release")
        return 1

    metrics = record["metrics"]
    if set(metrics) != set(wanted):
        log("run.py: metric names differ from BENCHMARK.json:",
            sorted(set(metrics) ^ set(wanted)))
        return 1
    correct = record["correct"]
    for name, unit in wanted.items():
        m = metrics[name]
        value = m["value"]
        log(f"  {name:34s} {value!r:>24} {m['unit']}")
        if m["unit"] != unit:
            log(f"run.py: {name} is in {m['unit']}, BENCHMARK.json says {unit}")
            return 1
        if value is None or not math.isfinite(value):
            log(f"run.py: {name} is not a finite number")
            correct = False
        elif not args.trace and value <= 0:
            log(f"run.py: end-to-end metric {name} is {value}")
            correct = False
    log(f"  workload {args.workload} seed {args.seed} model "
        f"{info['fingerprint']} virtual_s {info['virtual_s']!r} "
        f"final_top1 {info['final_top1']!r}")

    result = {"correct": correct, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    if args.out:
        stamp = dict(info, git_sha=git_sha(), seconds=args.seconds)
        with open(args.out, "a") as f:
            f.write(json.dumps(dict(result, info=stamp)) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
