"""Kernel compute-layer benchmark: cold derive vs warm cache vs fan-out.

Three measurements over the same ``(type, bound)`` plan.  What is
asserted is what the code decides, not what the host does:

* **byte-identical artifacts** — the canonical JSON of every artifact
  must be identical across the cold, warm, and parallel paths; the
  cache and the process fan-out are pure performance layers;
* **the warm pass is a cache pass** — every artifact of the plan is
  served from the persistent cache (``hits == len(plan)``).

The three wall-clock readings (and the two ratios) are recorded and
rendered as measured, never gated.  Since the derivations walk merged
frontiers (``docs/PERFORMANCE.md`` "Layer 1d") a cold derivation of this
plan costs about as much as two or three cache loads, and shipping it to
a process pool costs more than deriving it: both ratios are findings
about Layers 2 and 3, written down in ROADMAP.md, not floors.

Standalone: ``python benchmarks/bench_kernel_compute.py [--quick]``
runs the same measurements against a private temporary cache (CI's
smoke job uses ``--quick``).
"""

from __future__ import annotations

from time import perf_counter

from conftest import emit_json, record_parallelism, report

from repro.compute.artifacts import (
    _catalog_worker,
    artifacts_for,
    clear_memory_cache,
)
from repro.compute.obs import kernel_metrics
from repro.compute.parallel import available_cpus, parallel_map
from repro.types import PROM, Account, Bag, DoubleBuffer, FlagSet, Queue

#: The measured plan: the bound-4 derivations the theorem battery uses
#: plus the costliest bound-3 catalog types.
PLAN = (
    (Queue(), 4),
    (PROM(), 4),
    (FlagSet(), 3),
    (Account(), 3),
    (Bag(), 3),
)

#: Trimmed plan for CI smoke runs (seconds, not tens of seconds).
QUICK_PLAN = (
    (Queue(), 3),
    (PROM(), 3),
    (DoubleBuffer(), 3),
)

PARALLEL_JOBS = 4


def _measure(plan) -> dict:
    """Cold/warm/parallel timings plus byte-identity evidence."""
    # Cold: force real derivations (refresh bypasses any prior cache
    # state), serially; this also stores every artifact.
    clear_memory_cache()
    started = perf_counter()
    cold_texts = [
        artifacts_for(datatype, bound, refresh=True).canonical_text()
        for datatype, bound in plan
    ]
    cold_seconds = perf_counter() - started

    # Warm: drop the in-process memo so every artifact is a disk load.
    clear_memory_cache()
    hits_before = kernel_metrics().counter("kernel.cache.hit").value
    started = perf_counter()
    warm_texts = [
        artifacts_for(datatype, bound).canonical_text()
        for datatype, bound in plan
    ]
    warm_seconds = perf_counter() - started
    hits = kernel_metrics().counter("kernel.cache.hit").value - hits_before

    # Parallel: real derivations again, one worker per type.
    clear_memory_cache()
    started = perf_counter()
    payloads, parallel_used = parallel_map(
        _catalog_worker,
        [(datatype, bound, True) for datatype, bound in plan],
        PARALLEL_JOBS,
    )
    parallel_seconds = perf_counter() - started
    from repro.compute.artifacts import TypeArtifacts

    parallel_texts = [
        TypeArtifacts.from_payload(payload).canonical_text()
        for payload in payloads
    ]

    return {
        "plan": [
            {"type": datatype.name, "bound": bound} for datatype, bound in plan
        ],
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "parallel_seconds": parallel_seconds,
        "warm_speedup": cold_seconds / warm_seconds if warm_seconds else float("inf"),
        "parallel_speedup": (
            cold_seconds / parallel_seconds if parallel_seconds else float("inf")
        ),
        "warm_cache_hits": hits,
        "parallel_used": parallel_used,
        "parallel_jobs": PARALLEL_JOBS,
        "cpus": available_cpus(),
        "byte_identical_warm": warm_texts == cold_texts,
        "byte_identical_parallel": parallel_texts == cold_texts,
    }


def _render(results: dict) -> str:
    plan_text = ", ".join(
        "{}@{}".format(p["type"], p["bound"]) for p in results["plan"]
    )
    lines = [
        f"plan: {plan_text}",
        f"cold derive (serial):   {results['cold_seconds']:>8.3f}s",
        f"warm cache load:        {results['warm_seconds']:>8.3f}s "
        f"({results['warm_speedup']:,.1f}x, "
        f"{results['warm_cache_hits']} hits)",
        f"parallel derive (x{results['parallel_jobs']}):  "
        f"{results['parallel_seconds']:>8.3f}s "
        f"({results['parallel_speedup']:.2f}x, "
        f"{'pool' if results['parallel_used'] else 'serial fallback'}, "
        f"{results['cpus']} cpu(s))",
        f"artifacts byte-identical across paths: "
        f"{results['byte_identical_warm'] and results['byte_identical_parallel']}",
    ]
    return "\n".join(lines)


def _check(results: dict) -> None:
    assert results["byte_identical_warm"], "warm artifacts differ from cold"
    assert results["byte_identical_parallel"], (
        "parallel artifacts differ from cold"
    )
    assert results["warm_cache_hits"] == len(results["plan"]), (
        "warm pass was not served entirely from the persistent cache"
    )


def _publish(results: dict, cache_state: str) -> None:
    record_parallelism(results["parallel_used"], results["parallel_speedup"])
    emit_json("kernel_compute", results, cache_state=cache_state)
    report("kernel_compute", _render(results))
    _check(results)


def test_kernel_compute_cache_and_fanout(bench_cache_state):
    _publish(_measure(PLAN), bench_cache_state)


def main(argv: list[str] | None = None) -> int:
    import argparse
    import os
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="use the trimmed CI plan"
    )
    args = parser.parse_args(argv)
    # A private cache keeps the standalone run hermetic.
    os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="repro-bench-")
    _publish(_measure(QUICK_PLAN if args.quick else PLAN), "cold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
