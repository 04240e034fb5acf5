#!/usr/bin/env python3
"""Compare two checkouts on the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py PARENT CHANGE \\
        [--claim WORKLOAD:METRIC ...] [--out report.json]

PARENT and CHANGE are checkouts of the two commits (directories holding
``src/repro``).  Both are measured with this checkout's benchmark code
and BENCHMARK.json's settings: ten pairs of runs, alternating which
side runs first, pair *i* on seed *i*, every workload in a fresh
process.

Verdicts, per workload and end-to-end metric:

* a **claim** passes when the change wins at least 9 of 10 pairs (ties
  count for neither) and the medians differ, in the better direction,
  by more than the parent's interquartile range;
* every other metric is **ok** when the change's median is no worse
  than the parent's by more than the metric's bound in BENCHMARK.json,
  **regressed** when it is, and **unresolved** when either side's
  spread (IQR / median) exceeds the bound — unless every change run
  reads better than every parent run;
* count metrics of one traced run per side (unit ``count`` or
  ``steps``) must match exactly.

Run with the same directory twice (an A/A comparison) to see whether two
sets of runs of the same code agree within the benchmark's bounds.  The
exit status is non-zero on a failed claim, a regression, an unresolved
metric, a count mismatch, or a failed run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import run as bench

PAIRS = 10
WIN_SHARE = 0.9
COUNT_UNITS = ("count", "steps")


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def better(a, b, direction):
    """Whether value ``a`` reads better than ``b``."""
    return a < b if direction == "lower" else a > b


def judge(parent, change, metric, claimed):
    """Verdict for one metric on one workload; ``parent`` and
    ``change`` are per-pair values in pair order."""
    direction, bound = metric["better"], metric["bound"]
    p, c = summarize(parent), summarize(change)
    wins = sum(better(b, a, direction) for a, b in zip(parent, change))
    gap = c["median"] - p["median"]
    worse = gap if direction == "lower" else -gap
    row = {"parent": p, "change": c, "wins": wins, "pairs": len(parent),
           "worse_frac": worse / p["median"]}
    all_better = all(better(b, a, direction)
                     for a in parent for b in change)
    if claimed:
        passed = (wins >= WIN_SHARE * len(parent) and worse < 0
                  and abs(gap) > p["q3"] - p["q1"])
        row["verdict"] = "claim met" if passed else "claim not met"
        return row
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (p, c))
    row["spread"] = spread
    if all_better:
        row["verdict"] = "better"
    elif spread > bound:
        row["verdict"] = "unresolved"
    elif row["worse_frac"] > bound:
        row["verdict"] = "regressed"
    else:
        row["verdict"] = "ok"
    return row


def compare_counts(parent, change):
    """Per-layer count metrics that differ between two traced runs."""
    differing = {}
    for name, entry in parent["metrics"].items():
        if entry["unit"] in COUNT_UNITS:
            other = change["metrics"][name]["value"]
            if entry["value"] != other:
                differing[name] = [entry["value"], other]
    return differing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC",
                        help="a gain the change claims (repeatable)")
    parser.add_argument("--out", help="write the report and every run")
    args = parser.parse_args(argv)
    spec = bench.benchmark_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    claims = set()
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        if workload not in bench.WORKLOADS or metric not in metrics:
            parser.error(f"unknown claim {claim!r}")
        claims.add((workload, metric))
    seconds = spec["run_seconds"]
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}

    runs = {side: {w: [] for w in bench.WORKLOADS} for side in sides}
    traced = {side: {} for side in sides}
    failures = []

    def measure(side, workload, seed, trace):
        try:
            record, _ = bench.run_workload_process(
                workload, seed, seconds, trace, 1.0, sides[side])
        except RuntimeError as exc:
            failures.append(str(exc))
            return None
        if not record["correct"]:
            failures.append(f"{side} {workload} seed {seed}: "
                            f"{record['failed']} wrong outputs")
        return record

    for pair in range(PAIRS):
        seed = pair + 1
        order = ("parent", "change") if pair % 2 == 0 \
            else ("change", "parent")
        for workload in bench.WORKLOADS:
            for side in order:
                record = measure(side, workload, seed, 0)
                if record is not None:
                    runs[side][workload].append(record)
            print(f"pair {pair + 1}/{PAIRS} {workload} done",
                  file=sys.stderr, flush=True)
    for workload in bench.WORKLOADS:
        for side in sides:
            traced[side][workload] = measure(side, workload, 1, 1)

    report = {"parent": args.parent, "change": args.change,
              "pairs": PAIRS, "seconds": seconds,
              "verdicts": {}, "counts": {},
              "failures": failures, "runs": runs, "traced": traced}
    ok = not failures
    for workload in bench.WORKLOADS:
        parent_runs, change_runs = (runs["parent"][workload],
                                    runs["change"][workload])
        if len(parent_runs) != PAIRS or len(change_runs) != PAIRS:
            continue
        verdicts = {}
        for name, metric in metrics.items():
            row = judge([r["metrics"][name]["value"] for r in parent_runs],
                        [r["metrics"][name]["value"] for r in change_runs],
                        metric, (workload, name) in claims)
            verdicts[name] = row
            ok = ok and row["verdict"] in ("ok", "better", "claim met")
            print(f"{workload:14s} {name:15s} "
                  f"parent {row['parent']['median']:.6g} "
                  f"[{row['parent']['q1']:.6g}, {row['parent']['q3']:.6g}]  "
                  f"change {row['change']['median']:.6g} "
                  f"[{row['change']['q1']:.6g}, {row['change']['q3']:.6g}]  "
                  f"wins {row['wins']}/{row['pairs']}  "
                  f"worse {row['worse_frac']:+.2%}  {row['verdict']}")
        report["verdicts"][workload] = verdicts
        if traced["parent"][workload] and traced["change"][workload]:
            differing = compare_counts(traced["parent"][workload],
                                       traced["change"][workload])
            report["counts"][workload] = differing
            ok = ok and not differing
            print(f"{workload:14s} counts "
                  + ("identical" if not differing else
                     "DIFFER: " + json.dumps(differing)))
    for failure in failures:
        print(failure, file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
