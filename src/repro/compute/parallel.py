"""Multiprocess fan-out for the theory kernel.

The kernel's derivations are embarrassingly parallel at two grains: the
type catalog (one process per data type) and the shared-pass
commutativity sweep (one process per batch of top-level history
subtrees).  This module owns the pool plumbing so every caller gets the
same semantics:

* ``jobs`` resolves as: explicit argument, else the ``REPRO_JOBS``
  environment variable, else 1;
* ``jobs <= 1`` (or a single work item) never touches multiprocessing —
  the serial path is the fallback, not a degraded mode;
* a pool that cannot be created or dies mid-flight (sandboxes without
  fork, missing ``/dev/shm``, ...) falls back to the serial path rather
  than failing the derivation.

Workers must be module-level functions with picklable arguments; data
types, events, and relations in this codebase all pickle cleanly.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Exceptions that mean "no pool for you here", not "the work is wrong".
_POOL_FAILURES = (OSError, ImportError, RuntimeError, PermissionError)


def resolve_jobs(jobs: int | None = None) -> int:
    """The effective worker count: argument, else ``REPRO_JOBS``, else 1."""
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "")
        try:
            jobs = int(raw) if raw.strip() else 1
        except ValueError:
            jobs = 1
    return max(1, int(jobs))


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = None,
    *,
    chunksize: int = 1,
) -> tuple[list[R], bool]:
    """Map ``fn`` over ``items``, fanning out across processes when asked.

    Returns ``(results, parallel_used)`` — results in input order, and a
    flag recording whether a process pool actually did the work (False
    on the serial path or after a pool failure), so a caller can
    report honestly about what ran.

    ``chunksize`` batches that many items per worker round trip (the
    :meth:`~concurrent.futures.Executor.map` knob): with N short tasks
    over J workers, ``ceil(N / J)`` ships each worker its whole shard in
    one pickle exchange.  Purely a transport choice — results come back
    in input order regardless.
    """
    work: Sequence[T] = list(items)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(work) <= 1:
        return [fn(item) for item in work], False
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            return list(pool.map(fn, work, chunksize=max(1, chunksize))), True
    except _POOL_FAILURES:
        return [fn(item) for item in work], False
