"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 perfbench/run.py --workload all --seed 1 --out parent.jsonl
    python3 perfbench/run.py --workload all --seed 1 --trace 1 --out parent.jsonl
    ... the same, with more seeds, on both commits ...
    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the records that run.py --out appended.  For every
workload, each metric gets the median and quartile spread of both sides.
An end-to-end metric is "regressed" when the change's median is worse
than the parent's by more than the metric's bound in BENCHMARK.json, and
"unresolved" when either side spreads wider than the bound, unless every
run of the change beats every run of the parent.  Per-layer metrics have
no bound and are listed with their change only.  The exit code is 1 when
a metric regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> dict:
    """(workload, metric) -> list of values, over every record of the file."""
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, m in record["metrics"].items():
                runs.setdefault((record["workload"], name), []).append(m["value"])
    return runs


def spread(values) -> float:
    """Quartile distance over the median; infinite when it cannot be known."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, spec) -> str:
    """regressed / unresolved / ok for a metric with a bound, else ''."""
    if spec is None or "bound" not in spec:
        return ""
    sign = 1 if spec["better"] == "lower" else -1
    base = statistics.median(parent)
    worse = sign * (statistics.median(change) - base) / abs(base) if base else 0.0
    if sign > 0:
        dominates = max(change) < min(parent)
    else:
        dominates = min(change) > max(parent)
    if max(spread(parent), spread(change)) > spec["bound"] and not dominates:
        return "unresolved"
    if worse > spec["bound"]:
        return "regressed"
    return "ok"


def compare(parent: dict, change: dict, bench: dict) -> tuple[list, bool]:
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    order = list(specs)
    rows, regressed = [], False
    workloads = sorted({w for w, _ in parent} | {w for w, _ in change})
    for workload in workloads:
        names = {n for w, n in list(parent) + list(change) if w == workload}
        for name in sorted(names, key=lambda n: (order.index(n) if n in order else len(order), n)):
            a, b = parent.get((workload, name)), change.get((workload, name))
            if not a or not b:
                rows.append((workload, name, a, b, None, "missing on one side"))
                continue
            base = statistics.median(a)
            delta = (statistics.median(b) - base) / abs(base) if base else None
            v = verdict(a, b, specs.get(name))
            regressed |= v == "regressed"
            rows.append((workload, name, a, b, delta, v))
    return rows, regressed


def _fmt(values) -> str:
    if not values:
        return "-"
    s = spread(values)
    return f"{statistics.median(values):.6g} ±{s:.1%}" if s != float("inf") else f"{statistics.median(values):.6g}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    rows, regressed = compare(load_runs(argv[0]), load_runs(argv[1]), bench)
    print(f"{'workload':12s} {'metric':42s} {'parent':>20s} {'change':>20s} {'delta':>8s}  verdict")
    for workload, name, a, b, delta, v in rows:
        d = f"{delta:+.1%}" if delta is not None else "-"
        print(f"{workload:12s} {name:42s} {_fmt(a):>20s} {_fmt(b):>20s} {d:>8s}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
