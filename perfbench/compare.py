#!/usr/bin/env python3
"""Compares two sets of benchmark results (parent and change).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one file per run, named <workload>__<run>.json, whose
last line is the result JSON that perfbench/run.py prints (redirect its
stdout there). Runs of the two sets are paired in the sort order of <run>,
so name the runs of one pair alike (the seed, or the pair index when the
two sides ran alternately).

For every workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the change won, and a verdict:

  improved       the change won at least 9 in 10 pairs and the medians differ
                 by more than the parent's own quartile spread;
  worse          the change's median is worse than the parent's by more than
                 the metric's bound in BENCHMARK.json;
  unresolved     the parent's own spread is wider than the bound and not every
                 change run beat every parent run;
  within bound   otherwise.

Attempted and failed operation counts are printed side by side.
"""

import argparse
import json
import os
import statistics
import sys


def load_set(directory):
    """{workload: {run: result}} from one directory of result files."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or "__" not in name:
            continue
        workload, run = name[:-len(".json")].split("__", 1)
        with open(os.path.join(directory, name)) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines:
            continue
        runs.setdefault(workload, {})[run] = json.loads(lines[-1])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Returns (verdict, share of pairs won by the change)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    won = wins / len(pairs) if pairs else 0.0
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    spread = p3 - p1
    if pmed == 0:
        worse_by = 0.0 if cmed == 0 else float("inf")
    else:
        worse_by = -sign * (cmed - pmed) / abs(pmed)
    if pairs and wins >= 0.9 * len(pairs) and abs(cmed - pmed) > spread and losses < wins:
        return "improved", won
    if worse_by > bound:
        return "worse", won
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pmed != 0 and spread / abs(pmed) > bound and not every_run_better:
        return "unresolved", won
    return "within bound", won


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent = load_set(args.parent)
    change = load_set(args.change)

    worst = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs = parent.get(workload, {})
        c_runs = change.get(workload, {})
        if not p_runs or not c_runs:
            print("%s: no runs on one side (parent %d, change %d)" % (
                workload, len(p_runs), len(c_runs)))
            continue
        p_list = [p_runs[k] for k in sorted(p_runs)]
        c_list = [c_runs[k] for k in sorted(c_runs)]
        print("== %s  (parent %d runs, change %d runs)" % (workload, len(p_list), len(c_list)))
        print("   attempted  parent %d  change %d" % (
            sum(r["attempted"] for r in p_list), sum(r["attempted"] for r in c_list)))
        print("   failed     parent %d  change %d" % (
            sum(r["failed"] for r in p_list), sum(r["failed"] for r in c_list)))
        if not all(r["correct"] for r in p_list + c_list):
            print("   NOTE: some runs report correct=false")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in p_list if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in c_list if name in r["metrics"]]
            if not pv or not cv:
                continue
            result, won = verdict(pv, cv, metric["better"], metric["bound"])
            worst = max(worst, 1 if result in ("worse", "unresolved") else 0)
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print("   %-18s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  "
                  "pairs won %3.0f%%  %s" % (name, pm, p1, p3, cm, c1, c3,
                                              100.0 * won, result))
    return worst


if __name__ == "__main__":
    sys.exit(main())
