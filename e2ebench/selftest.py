#!/usr/bin/env python3
"""Self-checks of the end-to-end benchmark (ctest -L bench-smoke).

    python3 e2ebench/selftest.py smoke --bench .bench_build/e2e_bench
    python3 e2ebench/selftest.py compare

smoke: every workload at tiny shapes, timed and traced. Each run must pass
its own correctness checks (replay identity, served top-k equality, LSH
recall), report exactly the metric names in BENCHMARK.json, attribute all
but 5% of the replay wall to spans, and the whole pass must take < 10 s.

compare: compare.py on crafted result sets — identical sets are clean, a
samples_per_s drop of 1.5x its bound is a regression, a steady 5% gain
over ten run pairs is an improvement, a changed fingerprint, a run that
failed its checks and more failed operations are flagged, and a gain with
more failed operations is not called an improvement.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def smoke(bench):
    start = time.monotonic()
    for w in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            cmd = [bench, "--workload", w, "--seed", "7", "--seconds", "0.3",
                   "--trace", str(trace), "--tiny"]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if p.returncode != 0:
                fail(f"{' '.join(cmd)} exited with {p.returncode}")
            r = json.loads(p.stdout.strip().splitlines()[-1])
            where = f"{w} trace={trace}"
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                fail(f"{where}: correct={r['correct']} failed={r['failed']} "
                     f"attempted={r['attempted']}")
            wanted = {m["name"] for m in
                      SPEC["per_layer" if trace else "end_to_end"]}
            if set(r["metrics"]) != wanted:
                fail(f"{where}: metric names differ from BENCHMARK.json: "
                     f"{sorted(set(r['metrics']) ^ wanted)}")
            values = {k: v["value"] for k, v in r["metrics"].items()}
            if not trace and min(values.values()) <= 0:
                fail(f"{where}: an end-to-end metric is not positive")
            if trace and values["trace.unattributed_share"] > 0.05:
                fail(f"{where}: {values['trace.unattributed_share']:.3f} of "
                     "the replay wall is outside every span")
            print(f"ok {where}")
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        fail(f"smoke pass took {elapsed:.1f} s (limit 10 s)")
    print(f"smoke pass: {elapsed:.1f} s")


def record(samples_per_s, fingerprint="00c0ffee00c0ffee", correct=True,
           failed=0):
    metrics = {m["name"]: {"value": 100.0, "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    metrics["samples_per_s"]["value"] = samples_per_s
    return {"correct": correct, "attempted": 1000, "failed": failed,
            "metrics": metrics,
            "info": {"workload": "train-wide-delta", "seed": 20220429,
                     "mode": "timed", "fingerprint": fingerprint,
                     "virtual_s": 0.25, "final_top1": 0.5}}


def compare():
    noise = [1.000, 1.004, 0.997, 1.002, 0.999, 1.003, 0.998, 1.001, 0.996,
             1.000]
    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "samples_per_s")
    base = [record(1000.0 * n) for n in noise]
    slow = [record(1000.0 * (1 - 1.5 * bound) * n) for n in noise]
    fast = [record(1050.0 * n) for n in noise]
    moved = base[:-1] + [record(1000.0, "0123456789abcdef")]
    wrong = base[:-1] + [record(1000.0, correct=False)]
    failing = [record(1050.0 * n, failed=1) for n in noise]
    cases = [("identical sets", base, 0, "unchanged"),
             ("samples_per_s drop beyond its bound", slow, 1, "regressed"),
             ("steady gain over ten pairs", fast, 0, "improved"),
             ("changed fingerprint", moved, 1, "output changed"),
             ("a change run failed its checks", wrong, 1, "incorrect"),
             ("steady gain with more failed operations", failing, 1,
              "more failures")]
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        parent = os.path.join(tmp, "parent.jsonl")
        with open(parent, "w") as f:
            f.writelines(json.dumps(r) + "\n" for r in base)
        for name, change_records, code, marker in cases:
            change = os.path.join(tmp, "change.jsonl")
            with open(change, "w") as f:
                f.writelines(json.dumps(r) + "\n" for r in change_records)
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "compare.py"), parent,
                 change], stdout=subprocess.PIPE, text=True)
            if p.returncode != code or marker not in p.stdout:
                print(p.stdout)
                fail(f"{name}: exit {p.returncode} (want {code}), "
                     f"{marker!r} {'missing' if marker not in p.stdout else 'present'}")
            if code == 0 and ("regressed" in p.stdout
                              or "output changed" in p.stdout):
                print(p.stdout)
                fail(f"{name}: flagged a difference")
            if change_records is failing and "improved" in p.stdout:
                print(p.stdout)
                fail(f"{name}: claimed a gain despite more failures")
            print(f"ok {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("check", choices=("smoke", "compare"))
    ap.add_argument("--bench", help="e2e_bench binary (smoke)")
    args = ap.parse_args()
    if args.check == "smoke":
        if not args.bench:
            fail("smoke needs --bench")
        smoke(args.bench)
    else:
        compare()
    return 0


if __name__ == "__main__":
    sys.exit(main())
