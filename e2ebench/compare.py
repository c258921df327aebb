#!/usr/bin/env python3
"""Compares two result sets of the end-to-end benchmark.

    python3 e2ebench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the JSON lines run.py --out (or sweep.py) appends: N runs of
each workload. Per (workload, end-to-end metric) it prints each side's
median and quartiles and one verdict, using the bounds in BENCHMARK.json,
tightened per workload by TIGHT_BOUNDS below:

  regressed     the change's median is worse than the parent's by more than
                the bound (a share of the parent's median)
  unresolved    either side's spread (quartile distance / median) exceeds
                the bound, unless every change run beats every parent run;
                also any would-be gain on a workload where the change fails
                more operations
  improved      over at least 10 run pairs (i-th parent run vs i-th change
                run), the change wins >= 9/10 of them (ties count for
                neither) and the medians differ by more than the parent's
                quartile distance
  unchanged     otherwise

Per workload it also reports:

  incorrect       a change run failed its own correctness checks (model
                  identity across repeats and replays, served top-k equal
                  to a single-thread scan, LSH recall, generator lateness)
  more failures   the change fails a larger share of its attempted
                  operations (shed or failed requests) than the parent
  output changed  the model fingerprint, sim.virtual_s or final_top1
                  differs between runs of the same workload and seed

Exits 1 on a regression or any of these three, else 0.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10  # fewer pairs cannot support a claimed gain

# BENCHMARK.json has one bound per metric, shared by every workload, so it
# is as wide as the noisiest workload needs: training throughput and
# latency spread 3-15% (quartile distance / median over 10 seeds) on a
# 4-vCPU VM. These workloads measured far steadier, so a regression there
# is judged against bounds about three times their measured spread:
# serving latency 1.2-2.7%, served rate <= 0.7%, peak RSS <= 0.6%.
TIGHT_BOUNDS = {
    "serve-4k": {"latency_p50_ms": 0.08, "latency_p90_ms": 0.08,
                 "samples_per_s": 0.02, "peak_rss_mb": 0.02},
    "serve-16k": {"latency_p50_ms": 0.08, "latency_p90_ms": 0.08,
                  "samples_per_s": 0.02, "peak_rss_mb": 0.02},
    "train-wide-delta": {"peak_rss_mb": 0.02},
    "train-wide-int8-adam": {"peak_rss_mb": 0.02},
}


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def timed_values(records, metric):
    """Workload -> list of metric values of the timed runs, in file order."""
    out = {}
    for r in records:
        if metric in r["metrics"]:
            out.setdefault(r["info"]["workload"], []).append(
                r["metrics"][metric]["value"])
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound, higher_is_better):
    sign = 1.0 if higher_is_better else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if sign * (pm - cm) > bound * abs(pm):
        return "regressed"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    spread_p = (p3 - p1) / abs(pm) if pm else 0.0
    spread_c = (c3 - c1) / abs(cm) if cm else 0.0
    if (spread_p > bound or spread_c > bound) and not all_better:
        return "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and sign * (cm - pm) > p3 - p1):
        return "improved"
    return "unchanged"


def failure_shares(records):
    """Workload -> (failed, attempted) summed over all its runs."""
    out = {}
    for r in records:
        f, a = out.get(r["info"]["workload"], (0, 0))
        out[r["info"]["workload"]] = (f + r["failed"], a + r["attempted"])
    return out


def identities(records):
    """(workload, seed) -> set of (fingerprint, virtual_s, final_top1)."""
    out = {}
    for r in records:
        i = r["info"]
        out.setdefault((i["workload"], i["seed"]), set()).add(
            (i["fingerprint"], i["virtual_s"], i["final_top1"]))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load(args.parent), load(args.change)

    bad = False
    # Workloads whose change runs fail checks or operations the parent did
    # not: no gain is claimed on them.
    flagged = set()
    for r in change:
        if not r["correct"]:
            i = r["info"]
            print(f"incorrect: {i['workload']} seed {i['seed']} {i['mode']} "
                  "run failed its correctness checks")
            flagged.add(i["workload"])
    fails_p, fails_c = failure_shares(parent), failure_shares(change)
    for w in sorted(set(fails_p) & set(fails_c)):
        (failed_p, tried_p), (failed_c, tried_c) = fails_p[w], fails_c[w]
        if failed_c * tried_p > failed_p * tried_c:
            print(f"more failures: {w}: {failed_c} of {tried_c} operations "
                  f"failed, parent {failed_p} of {tried_p}")
            flagged.add(w)
    bad |= bool(flagged)

    print(f"{'workload':22s} {'metric':16s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s}  verdict")
    for m in spec["end_to_end"]:
        pv = timed_values(parent, m["name"])
        cv = timed_values(change, m["name"])
        for w in sorted(set(pv) & set(cv)):
            bound = TIGHT_BOUNDS.get(w, {}).get(m["name"], m["bound"])
            v = verdict(pv[w], cv[w], bound, m["better"] == "higher")
            if v == "improved" and w in flagged:
                v = "unresolved"
            bad |= v == "regressed"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{w:22s} {m['name']:16s} {fmt(quartiles(pv[w])):>32s} "
                  f"{fmt(quartiles(cv[w])):>32s}  {v} "
                  f"({len(pv[w])} vs {len(cv[w])} runs, {m['unit']}, "
                  f"bound {bound:g})")

    ids_p, ids_c = identities(parent), identities(change)
    for key in sorted(set(ids_p) | set(ids_c)):
        seen = ids_p.get(key, set()) | ids_c.get(key, set())
        if len(seen) > 1:
            bad = True
            print(f"output changed: {key[0]} seed {key[1]}: "
                  + "; ".join(f"model {f} virtual_s {v!r} final_top1 {t!r}"
                              for f, v, t in sorted(seen)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
