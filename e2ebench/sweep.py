#!/usr/bin/env python3
"""Runs every end-to-end workload R times timed and once traced.

Runs on one checkout or alternates between several:

    python3 e2ebench/sweep.py                        # this checkout, 3 runs
    python3 e2ebench/sweep.py --checkout ../parent --checkout . --repeat 10
    python3 e2ebench/compare.py .bench_results/0-parent.jsonl \
        .bench_results/1-repo.jsonl

Each checkout builds its own sources (its run.py builds into its own
.bench_build/) and appends to .bench_results/<index>-<name>.jsonl. With
several checkouts the order alternates every round, so drift on the host
falls on both sides alike. Exits 1 if any run fails or any correctness check does
not hold (replay identity, LSH recall, served top-k equality).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 20220429  # seed 7 is held out for claims


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", action="append",
                    help="checkout root to measure (repeatable; default: "
                         "this one)")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    checkouts = [os.path.abspath(c) for c in (args.checkout or [ROOT])]
    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    outs = [os.path.join(out_dir,
                         f"{i}-{os.path.basename(c.rstrip('/')) or 'root'}.jsonl")
            for i, c in enumerate(checkouts)]

    def run(i, workload, trace):
        cmd = [sys.executable, os.path.join(checkouts[i], "e2ebench", "run.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
               "--out", outs[i]]
        print(f"== {checkouts[i]}: {workload} trace={trace}", file=sys.stderr,
              flush=True)
        p = subprocess.run(cmd, cwd=checkouts[i], stdout=subprocess.PIPE,
                           text=True)
        if p.returncode != 0:
            return False
        result = json.loads(p.stdout.strip().splitlines()[-1])
        return result["correct"] and result["failed"] == 0

    ok = True
    for r in range(args.repeat):
        order = list(range(len(checkouts)))
        if r % 2:
            order.reverse()
        for w in workloads:
            for i in order:
                ok &= run(i, w, 0)
    for w in workloads:
        for i in range(len(checkouts)):
            ok &= run(i, w, 1)
    for o in outs:
        print(f"results: {o}", file=sys.stderr)
    if not ok:
        print("sweep.py: a run failed or a correctness check did not hold",
              file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
