"""Compare two sets of benchmark results: a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines ``run.py`` appends to ``perfbench/out/results.jsonl``
(untraced runs are used; traced ones are skipped).  The i-th run of a
workload in one file is paired with the i-th run of that workload in the
other, so run the two sides alternately with the same seeds.  For each
workload and end-to-end metric this prints both medians and quartiles, the
share of pairs each side won, and a verdict:

* ``unresolved`` when either side's quartile spread (as a share of its
  median) exceeds the metric's bound in BENCHMARK.json, unless every change
  run beats every parent run;
* ``worse`` when the change's median is worse than the parent's by more than
  the bound;
* ``gain`` when the change wins at least 9 of 10 pairs and the medians differ
  by more than the parent's quartile spread;
* ``same`` otherwise.

It reports only; it gates nothing.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[str, list[dict]]:
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record.get("trace"):
                    runs[record["workload"]].append(record["result"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float, float]:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    change_wins = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
    parent_wins = sum(sign * (p - c) > 0 for p, c in pairs) / len(pairs)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse_by = sign * (p_med - c_med) / abs(p_med)
    every_better = min(sign * c for c in change) > max(sign * p for p in parent)
    q1, _, q3 = quartiles(parent)
    if max(spread(parent), spread(change)) > bound and not every_better:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    elif change_wins >= 0.9 and abs(c_med - p_med) > q3 - q1:
        word = "gain"
    else:
        word = "same"
    return word, change_wins, parent_wins


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(argv[0]), load(argv[1])
    print(f"{'workload':16} {'metric':12} {'parent median [q1, q3]':32} "
          f"{'change median [q1, q3]':32} {'delta':>7} {'wins c/p':>9}  "
          f"verdict")
    for workload in sorted(set(parent) & set(change)):
        n = min(len(parent[workload]), len(change[workload]))
        p_runs, c_runs = parent[workload][:n], change[workload][:n]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            word, cw, pw = verdict(p, c, metric["better"], metric["bound"])
            pq, cq = quartiles(p), quartiles(c)
            delta = (cq[1] - pq[1]) / abs(pq[1])
            p_text = f"{pq[1]:.5g} [{pq[0]:.5g}, {pq[2]:.5g}]"
            c_text = f"{cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}]"
            print(f"{workload:16} {name:12} {p_text:32} {c_text:32} "
                  f"{delta:+7.1%} {cw:4.0%}/{pw:<4.0%}  {word}")
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            wrong = sum(not r["correct"] for r in runs)
            print(f"{workload:16} {side}: {n} runs, {failed}/{attempted} "
                  f"ops failed, {wrong} runs with wrong output")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
