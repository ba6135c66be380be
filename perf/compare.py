#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perf/compare.py A B

``A`` and ``B`` are directories searched recursively for the result
files ``run.py`` writes (so one ``--out`` directory, or a directory of
several).  Per workload and end-to-end metric it prints both medians
with their quartiles, how much worse ``B``'s median is than ``A``'s as a
share of ``A``'s, the metric's bound from ``BENCHMARK.json``, and

* ``regressed``  — ``B`` is worse than ``A`` by more than the bound;
* ``unresolved`` — not regressed, but the spread between one side's own
  runs (quartile distance over median) is wider than the bound, and it
  is not the case that every run of ``B`` beats every run of ``A``;
* ``ok``         — otherwise.

Exit code 1 when any row is ``regressed``.  ``--quick`` results are
refused: their sizes are not the pinned ones.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(directory: str) -> dict[str, list[dict]]:
    """Workload → the untraced results found under ``directory``."""
    found: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).rglob("*.json")):
        record = json.loads(path.read_text())
        if not isinstance(record, dict) or "workload" not in record:
            continue
        if record["mode"] != "full":
            sys.exit(f"{path}: a {record['mode']!r} result cannot be compared")
        if record["trace"] == 0:
            found.setdefault(record["workload"], []).append(record)
    if not found:
        sys.exit(f"{directory}: no benchmark results")
    return found


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(median, first quartile, third quartile)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _middle, third = quantiles(values, n=4)
    return median(values), first, third


def judge(a: list[float], b: list[float], better: str, bound: float):
    """``(worse-by share, widest spread, status)`` of ``b`` against ``a``."""
    sign = 1.0 if better == "lower" else -1.0
    (mid_a, q1_a, q3_a), (mid_b, q1_b, q3_b) = summary(a), summary(b)
    worse = sign * (mid_b - mid_a) / abs(mid_a)
    spread = max((q3_a - q1_a) / abs(mid_a), (q3_b - q1_b) / abs(mid_b))
    every_run_better = max(sign * v for v in b) < min(sign * v for v in a)
    if worse > bound:
        status = "regressed"
    elif spread > bound and not every_run_better:
        status = "unresolved"
    else:
        status = "ok"
    return worse, spread, status


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    set_a, set_b = load(sys.argv[1]), load(sys.argv[2])
    statuses = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        if workload not in set_a or workload not in set_b:
            continue
        runs_a, runs_b = set_a[workload], set_b[workload]
        print(f"{workload}  (A: {len(runs_a)} runs, B: {len(runs_b)} runs)")
        print(f"  {'metric':<18}{'A median [q1, q3]':>38}{'B median [q1, q3]':>38}"
              f"{'worse by':>10}{'bound':>8}  status")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in runs_a]
            b = [r["metrics"][name]["value"] for r in runs_b]
            worse, _spread, status = judge(a, b, metric["better"], metric["bound"])
            statuses.append(status)
            cells = ["{:.6g} [{:.6g}, {:.6g}]".format(*summary(v)) for v in (a, b)]
            print(f"  {name:<18}{cells[0]:>38}{cells[1]:>38}"
                  f"{worse:>+10.2%}{metric['bound']:>8.0%}  {status}")
    print(f"{statuses.count('ok')} ok, {statuses.count('unresolved')} unresolved, "
          f"{statuses.count('regressed')} regressed")
    return 1 if "regressed" in statuses else 0


if __name__ == "__main__":
    sys.exit(main())
