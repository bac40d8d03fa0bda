#!/usr/bin/env python3
"""Summarise and compare result sets of the benchmark.

A result set is a directory of run outputs, one file per run (any name
ending in `.out`): the standard output of

    cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload W --seed N --seconds S --trace T

whose first JSON line (`{"env": ...}`) names the workload and seed and whose
last line is the result object.

    python3 perfbench/compare.py spread SET
        Per workload and metric: runs, median, quartiles and the spread
        (Q3 - Q1) / median against the metric's bound from BENCHMARK.json.

    python3 perfbench/compare.py compare PARENT CHANGE
        The paired comparison: runs of the same workload and seed form a
        pair (run them alternating parent-first and change-first). Per
        workload and metric: each side's median and quartiles, the share of
        pairs the change won (ties count for neither side), and a verdict:
          better      the change won >= 90 % of pairs and the medians differ
                      by more than the parent's own quartile spread;
          worse       the change's median is worse than the parent's by
                      more than the bound;
          unresolved  either side's spread exceeds the bound, and not every
                      change run beats every parent run;
          same        otherwise.
        Per-layer metrics (traced runs) have no bound and get no verdict.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        metrics[m["name"]] = m
    return metrics


def load_set(path):
    """{(workload, trace): {seed: result}} for every `.out` file in `path`."""
    runs = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".out"):
            continue
        with open(os.path.join(path, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if len(lines) < 2:
            print(f"skipping {name}: no result", file=sys.stderr)
            continue
        env = json.loads(lines[0])["env"]
        result = json.loads(lines[-1])
        key = (env["workload"], env["trace"])
        runs.setdefault(key, {})[env["seed"]] = result
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def values_of(results, name):
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def cmd_spread(path):
    spec = load_spec()
    for (workload, trace), by_seed in sorted(load_set(path).items()):
        results = list(by_seed.values())
        failed = sum(r["failed"] for r in results)
        print(f"{workload} (trace {trace}): {len(results)} runs, "
              f"{failed} failed ops, all correct: {all(r['correct'] for r in results)}")
        for name in results[0]["metrics"]:
            vals = values_of(results, name)
            q1, med, q3 = quartiles(vals)
            bound = spec.get(name, {}).get("bound")
            s = spread(vals)
            note = ""
            if bound is not None:
                note = f" bound {bound:.3f}: " + (
                    "ok" if s <= bound / 3 else "within bound" if s <= bound else "TOO WIDE")
            print(f"  {name:26s} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {s:.4f}{note}")


def better(a, b, direction):
    """True when value `a` is better than `b`."""
    return a < b if direction == "lower" else a > b


def cmd_compare(parent_path, change_path):
    spec = load_spec()
    parent, change = load_set(parent_path), load_set(change_path)
    for key in sorted(set(parent) | set(change)):
        workload, trace = key
        p, c = parent.get(key, {}), change.get(key, {})
        seeds = sorted(set(p) & set(c))
        print(f"{workload} (trace {trace}): {len(seeds)} pairs "
              f"({len(p)} parent runs, {len(c)} change runs)")
        if not seeds:
            continue
        for name in p[seeds[0]]["metrics"]:
            m = spec.get(name, {})
            direction = m.get("better", "lower")
            pv = [p[s]["metrics"][name]["value"] for s in seeds]
            cv = [c[s]["metrics"][name]["value"] for s in seeds]
            won = sum(better(x, y, direction) for x, y in zip(cv, pv))
            pq, cq = quartiles(pv), quartiles(cv)
            line = (f"  {name:26s} parent {pq[1]:<12.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                    f"  change {cq[1]:<12.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
                    f"  won {won}/{len(seeds)}")
            bound = m.get("bound")
            if bound is not None:
                line += "  " + verdict(pv, cv, won, bound, direction)
            print(line)


def verdict(pv, cv, won, bound, direction):
    pq, cq = quartiles(pv), quartiles(cv)
    if direction == "lower":
        all_better = max(cv) < min(pv)
        worse_by = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
    else:
        all_better = min(cv) > max(pv)
        worse_by = (pq[1] - cq[1]) / pq[1] if pq[1] else 0.0
    if (spread(pv) > bound or spread(cv) > bound) and not all_better:
        return "unresolved"
    if won >= 0.9 * len(pv) and abs(cq[1] - pq[1]) > pq[2] - pq[0]:
        return "better"
    if worse_by > bound:
        return "worse"
    return "same"


def main(argv):
    if len(argv) == 2 and argv[0] == "spread":
        cmd_spread(argv[1])
    elif len(argv) == 3 and argv[0] == "compare":
        cmd_compare(argv[1], argv[2])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
