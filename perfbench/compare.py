"""Compare the benchmark's results for two commits, or show one's spread.

    python3 perfbench/compare.py perfbench/out/results-base.jsonl perfbench/out/results-head.jsonl
    python3 perfbench/compare.py perfbench/out/results-base.jsonl

Files come from collect.py.  For each workload and end-to-end metric it
prints each side's median and quartiles, the spread (quartile distance over
median), the share of same-seed pairs the second side wins, and a verdict
against the metric's bound in BENCHMARK.json:

  regression  the second median is worse by more than the bound
  gain        the second side wins at least 9 in 10 pairs and the medians
              differ by more than the first side's quartile distance
  unresolved  the first side's spread is wider than the bound
  same        none of the above
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path):
    """{(workload, metric): {seed: value}} and {workload: failed share}."""
    values = defaultdict(dict)
    failed = defaultdict(lambda: [0, 0])
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            result = row["result"]
            failed[row["workload"]][0] += result["failed"]
            failed[row["workload"]][1] += result["attempted"]
            for name, metric in result["metrics"].items():
                values[row["workload"], name][row["seed"]] = metric["value"]
    return values, {w: f / a for w, (f, a) in failed.items()}


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(metric, a, b):
    lower = metric["better"] == "lower"
    q1, med_a, q3 = quartiles(list(a.values()))
    med_b = statistics.median(b.values())
    worse = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a
    pairs = [(a[s], b[s]) for s in a if s in b]
    wins = sum((y < x) if lower else (y > x) for x, y in pairs)
    share = wins / len(pairs) if pairs else 0.0
    if worse > metric["bound"]:
        word = "regression"
    elif share >= 0.9 and abs(med_b - med_a) > q3 - q1:
        word = "gain"
    elif (q3 - q1) / med_a > metric["bound"]:
        word = "unresolved"
    else:
        word = "same"
    return share, word


def fmt(xs):
    q1, med, q3 = quartiles(list(xs.values()))
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] spread {(q3 - q1) / med:.3f}"


def main(argv):
    if len(argv) not in (1, 2):
        raise SystemExit(__doc__)
    sides = [load(path) for path in argv]
    for workload in (w["name"] for w in BENCH["workloads"]):
        print(f"{workload}: failed share " + " vs ".join(
            f"{side[1].get(workload, float('nan')):.6g}" for side in sides))
        for metric in BENCH["end_to_end"]:
            key = (workload, metric["name"])
            if any(len(side[0].get(key, {})) < 2 for side in sides):
                continue
            line = f"  {metric['name']:<14} {metric['unit']:<6} bound {metric['bound']:<5} "
            line += " | ".join(fmt(side[0][key]) for side in sides)
            if len(sides) == 2:
                share, word = verdict(metric, sides[0][0][key], sides[1][0][key])
                line += f" | wins {share:.2f} {word}"
            print(line)


if __name__ == "__main__":
    main(sys.argv[1:])
