"""Parallel Monte Carlo trial sharding for seed sweeps.

A chaos sweep (:func:`repro.resilience.chaos.run_chaos_sweep`) runs the
same seeded workload under many seeds and aggregates the per-seed
results.  Each trial is an independent, deterministic function of its
seed, so the seed list shards perfectly across worker processes.  This
module rides the :mod:`repro.compute.parallel` ProcessPoolExecutor
infrastructure from the theory-kernel compute layer (``--jobs`` /
``REPRO_JOBS`` resolution, silent serial fallback when a pool cannot be
built) and reassembles results **in seed order**, so the aggregate
statistics a caller computes are byte-identical whether the trials ran
serially or across N processes — test-enforced by
``tests/test_sim_throughput.py``.

The trial callable must be picklable (a module-level function or a
:func:`functools.partial` over one), as must its return value; when
either is not, the pool raises and the shard falls back to an in-process
serial sweep with identical results.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

from repro.compute.parallel import parallel_map, resolve_jobs

__all__ = ["run_trials"]

R = TypeVar("R")


def run_trials(
    trial: Callable[[int], R],
    seeds: Iterable[int],
    *,
    jobs: int | None = None,
) -> tuple[list[R], bool]:
    """Run ``trial(seed)`` for every seed, sharding across processes.

    Returns ``(results, parallel_used)`` with results in seed-list
    order.  ``jobs`` resolves through ``REPRO_JOBS`` when ``None`` and
    defaults to serial; ``parallel_used`` honestly records whether a
    process pool did the work (``False`` on the serial path or any
    fallback), so a caller can report single-CPU runs as such instead
    of claiming a speedup.

    Seeds go out in batches of ``ceil(len(seeds) / jobs)``: each worker
    gets its whole shard in one pickle exchange, which is the right
    grain for trials that each take milliseconds.

    Determinism: each trial sees only its seed, every worker computes
    the same pure function, and reassembly is by input position — so
    the result list, and anything aggregated from it in order, is
    byte-identical to a serial sweep of the same seeds, whatever the
    jobs.
    """
    seed_list = list(seeds)
    effective = resolve_jobs(jobs)
    if effective <= 1 or len(seed_list) <= 1:
        return [trial(seed) for seed in seed_list], False
    chunksize = -(-len(seed_list) // effective)
    try:
        return parallel_map(trial, seed_list, effective, chunksize=chunksize)
    except Exception:
        # Unpicklable trial or result, worker crash, or any other pool
        # breakage parallel_map does not already absorb: the sweep is
        # deterministic, so rerunning serially gives the same answer.
        return [trial(seed) for seed in seed_list], False

