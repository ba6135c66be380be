#!/usr/bin/env python3
"""The repo's benchmark: one command per workload, in a fresh process.

    python3 perf/run.py --workload long-history --seed 0 --seconds 22 --trace 0
    python3 perf/run.py long-history --rounds 5 --traced --out /tmp/results
    python3 perf/run.py --quick            # all five, small, for a CI hook

Runs rounds of the workload's fixed work (see :mod:`workloads`) until
``--seconds`` have been measured (or exactly ``--rounds``), checks the
correctness gates, prints every metric by name with its unit, writes a
result file under ``--out`` (default ``perf/out``, ignored by git) and
prints the result as one JSON object on the last line.  Any gate miss →
exit code 1, no result line, no result file.

Wall-clock metrics are medians in seconds of the reference host: each
step of a round (building one cell, running one cell) is timed on its
own by :class:`hostclock.HostClock`, together with how much slower than
the reference host this one was while the step ran, and that slowdown is
divided out; a step's time is its median over the run's rounds, and
``wall_s`` / ``setup_s`` are sums of step medians.  Seeded counts come
from round 1 and must be identical in every round, traced or not.
``gc.collect()`` runs before each step and the collector stays enabled.
One process, one thread, no pool; once the rounds are done, five child
interpreters, one at a time, time ``import repro`` for ``setup_s``.

``--trace 1`` spends the same budget on untraced rounds plus one final
round under :mod:`trace`, and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median

from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NOT_APPLICABLE = 1.0  # every metric is reported on every workload, and never as 0
IMPORT_PROBES = 5


def probe_import() -> int:
    """Child mode: time ``import repro`` in this fresh interpreter."""
    sys.path.insert(0, str(ROOT / "src"))
    _module, seconds, slowdown = HostClock().time(lambda: importlib.import_module("repro"))
    print(json.dumps([seconds, slowdown]))
    return 0


def import_s(probes: int) -> float:
    """Reference-host seconds to ``import repro``: median of fresh interpreters."""
    readings = []
    for _ in range(probes):
        child = subprocess.run([sys.executable, __file__, "--probe-import"],
                               check=True, capture_output=True, text=True)
        seconds, slowdown = json.loads(child.stdout)
        readings.append(seconds / slowdown)
    return median(readings)


def run_round(workload, seed: int, quick: bool, clock: HostClock, recorder=None) -> dict:
    """One round: every cell built, run and folded in; ``(seconds, slowdown)`` per step."""
    setup, cells, names = [], [], []

    def timed(span, thunk, into):
        def spanned():
            with recorder.top(span) if recorder is not None else nullcontext():
                return thunk()

        gc.collect()
        value, *timing = clock.time(spanned)
        into.append(timing)
        return value

    state = timed("setup", lambda: workload.start(seed, quick), setup)
    for cell in workload.cells(state):
        built = timed("setup", cell.setup, setup)
        timed(cell.name, lambda: cell.run(built), cells)
        names.append(cell.name)
        cell.done(built)
        del built
    return {"names": names, "setup": setup, "cells": cells, "result": workload.finish(state)}


def per_round(rounds: list[dict], part: str, reference: bool = True) -> float:
    """Seconds per round of ``part``: each step's median over the rounds, summed."""
    return sum(
        median(seconds / slowdown if reference else seconds for seconds, slowdown in step)
        for step in zip(*(r[part] for r in rounds)))


def end_to_end(workload, rounds: list[dict], imported_s: float) -> dict[str, float]:
    result = rounds[0]["result"]
    wall_s = per_round(rounds, "cells")
    metrics = {
        "setup_s": imported_s + per_round(rounds, "setup"),
        "ops_per_s": result["attempted"] / wall_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": result["served"] / result["attempted"],
    }
    if workload.kind == "sim":
        metrics.update({
            "msgs_per_commit": result["messages"] / result["committed"],
            "commit_ratio": result["committed"] / (result["committed"] + result["aborted"]),
            "sim_latency_mean": result["latency_mean"],
            "sim_latency_p99": result["latency_p99"],
            "ops_per_sim_s": result["attempted"] / result["sim_time"],
        })
    else:
        metrics.update(dict.fromkeys(
            ("msgs_per_commit", "commit_ratio", "sim_latency_mean", "sim_latency_p99",
             "ops_per_sim_s"), NOT_APPLICABLE))
    return metrics


def measure(workload, args):
    """Run the rounds; returns ``(rounds, metrics, problems)``."""
    import trace as layer_trace  # perf/trace.py: this directory leads sys.path

    clock = HostClock()
    rounds: list[dict] = []
    began = time.perf_counter()

    def more(reserve: float = 0.0) -> bool:
        if args.rounds is not None:
            return len(rounds) < args.rounds
        if not rounds:
            return True
        elapsed = time.perf_counter() - began
        return elapsed + reserve * elapsed / len(rounds) < args.seconds

    # Stop when the next round would end further past --seconds than this
    # one ends before it; a traced round costs more, so keep room for it.
    while more(reserve=2.1 if args.trace else 0.5):
        rounds.append(run_round(workload, args.seed, args.quick, clock))

    traced = None
    if args.trace:
        recorder = layer_trace.Recorder()
        undo = layer_trace.install(recorder, workload.kind)
        try:
            traced = run_round(workload, args.seed, args.quick, clock, recorder)
        finally:
            layer_trace.uninstall(undo)

    problems = list(rounds[0]["result"]["problems"])
    first = rounds[0]["result"]
    for index, entry in enumerate(rounds[1:] + ([traced] if traced else []), start=2):
        if entry["result"] != first:
            label = "traced round" if entry is traced else f"round {index}"
            changed = sorted(k for k in first if entry["result"].get(k) != first[k])
            problems.append(f"{label} differs from round 1 in {', '.join(changed)}")

    if traced is None:
        imported_s = import_s(1 if args.quick else IMPORT_PROBES)
        return rounds, end_to_end(workload, rounds, imported_s), problems
    spans = recorder.rows()
    metrics = layer_trace.layer_metrics(recorder, spans, traced["names"], traced["result"])
    metrics["bench.trace_overhead"] = (
        per_round([traced], "cells") / per_round(rounds, "cells") - 1)
    metrics["host.slowdown"] = median(
        slowdown for r in rounds for _seconds, slowdown in r["cells"])
    metrics["host.raw_wall_s"] = per_round(rounds, "cells", reference=False)
    # Layers that must be silent here, checked by the wrapping itself.
    silent = [] if workload.name == "audited-chaos" else ["obs.trace", "obs.audit", "resilience"]
    if workload.kind == "theory":
        silent += [layer for layer in layer_trace.LAYERS
                   if layer.startswith(("sim.", "replication."))]
    problems += [f"{layer} was called {int(metrics[f'{layer}.calls'])} times"
                 for layer in silent if metrics[f"{layer}.calls"]]
    out_dir = Path(args.out) / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    layer_trace.write_spans(recorder.keys, spans, out_dir / "spans.jsonl")
    return rounds + [traced], metrics, problems


def run_all(spec: dict) -> int:
    """Every workload, each in its own fresh process; worst exit code."""
    worst = 0
    for name in (w["name"] for w in spec["workloads"]):
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(
            [sys.executable, __file__, "--workload", name, *sys.argv[1:]]).returncode)
    return worst


def main() -> int:
    if sys.argv[1:] == ["--probe-import"]:
        return probe_import()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes are randomised per process, and set layout moves a
        # run's wall time by several percent: pin it and start over.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("name", nargs="?", help="workload (same as --workload)")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0,
                        help="shifts every scenario seed by N (default 0)")
    parser.add_argument("--seconds", type=float, default=22.0,
                        help="measure for about this long (default 22)")
    parser.add_argument("--rounds", type=int, help="exactly R rounds instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="one round, one seed, 100 transactions, Theorem 5 skipped; "
                        "labelled 'quick' and refused by compare.py")
    parser.add_argument("--out", default=str(HERE / "out"), help="result directory")
    args = parser.parse_args()
    args.workload = args.workload or args.name
    if args.quick and args.rounds is None:
        args.rounds = 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload is None:
        return run_all(spec)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src' / 'repro'}: the program to benchmark is not here")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="scratch-", dir=out) as scratch:
        # The kernel's artifact cache never touches the user's home.
        os.environ["REPRO_CACHE_DIR"] = scratch
        sys.path.insert(0, str(ROOT / "src"))
        from workloads import workloads

        catalog = workloads(scratch)
        if args.workload not in catalog:
            parser.error(f"unknown workload {args.workload!r} "
                         f"(choose from {', '.join(catalog)})")
        workload = catalog[args.workload]
        rounds, metrics, problems = measure(workload, args)

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(declared) != set(metrics):
        problems.append("metrics differ from BENCHMARK.json: "
                        + ", ".join(sorted(set(declared) ^ set(metrics))))
    result = rounds[0]["result"]
    if problems or result["failed"]:
        for problem in problems:
            print(f"FAILED {workload.name}: {problem}", file=sys.stderr)
        return 1

    mode = "quick" if args.quick else "full"
    print(f"{workload.name}  seed {args.seed}  {mode}  {len(rounds)} rounds"
          f"{'  (last one traced)' if args.trace else ''}")
    for name in declared:
        print(f"  {name:<42} {metrics[name]:>16.6g} {declared[name]}")
    if workload.kind == "sim":
        print(f"  (sim_latency_p99 over {result['latency_samples']} samples)")
    report = {
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": declared[name]}
                    for name in declared},
    }
    record = {"workload": workload.name, "seed": args.seed, "mode": mode, "trace": args.trace,
              "python": sys.version.split()[0], "cpus": os.cpu_count(), "rounds": rounds,
              **report}
    path = out / workload.name / (
        f"seed{args.seed}-trace{args.trace}-{mode}-{time.time_ns()}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
