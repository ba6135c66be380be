"""Derived kernel artifacts: one derivation, every consumer.

A :class:`TypeArtifacts` bundle holds everything the bounded searches
produce for one ``(type, bound)`` pair — the event alphabet, the minimal
static and dynamic dependency relations (Theorems 6 and 10), and the
full commutativity table the dynamic relation is assembled from (also
the conflict matrix the locking scheme uses).

:func:`artifacts_for` is the single entry point the catalog, the
comparison report, and the theorem battery all call.  It layers three
levels of reuse:

1. an in-process memo keyed by fingerprint, so one report run derives
   each type once no matter how many consumers ask;
2. the persistent :class:`~repro.compute.cache.ArtifactCache`, so
   repeated *runs* skip derivation entirely (the warm path);
3. on a true miss, one shared-pass derivation
   (:func:`derive_artifacts`), optionally sharded across processes.

Payloads round-trip through :mod:`repro.compute.codec` and the
canonical JSON text is byte-deterministic, which is what lets the
benchmark assert cold and warm runs produce *identical* artifacts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.compute.cache import ArtifactCache, cache_enabled, default_cache
from repro.compute.codec import (
    canonical_json,
    decode_event,
    decode_relation,
    decode_table,
    encode_event,
    encode_relation,
    encode_table,
)
from repro.compute.fingerprint import SCHEMA_VERSION, type_fingerprint
from repro.compute.obs import kernel_metrics, kernel_tracer
from repro.compute.parallel import parallel_map, resolve_jobs
from repro.dependency.dynamic_dep import (
    commutativity_table,
    dependency_from_commutativity,
)
from repro.dependency.relation import DependencyRelation
from repro.dependency.static_dep import minimal_static_dependency
from repro.histories.events import Event
from repro.spec.datatype import SerialDataType
from repro.spec.enumerate import alphabets
from repro.spec.legality import LegalityOracle

#: In-process memo: fingerprint -> TypeArtifacts.  Lives for the process
#: (artifacts are immutable), cleared explicitly by tests.
_MEMORY: dict[str, "TypeArtifacts"] = {}


@dataclass(frozen=True)
class TypeArtifacts:
    """Everything the kernel derives for one ``(type, bound)`` pair."""

    type_name: str
    bound: int
    fingerprint: str
    events: tuple[Event, ...]
    static: DependencyRelation
    dynamic: DependencyRelation
    table: dict[tuple[Event, Event], bool]

    def to_payload(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "type": self.type_name,
            "bound": self.bound,
            "fingerprint": self.fingerprint,
            "events": [encode_event(ev) for ev in self.events],
            "static": encode_relation(self.static),
            "refuted": encode_table(self.events, self.table),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "TypeArtifacts":
        events = tuple(decode_event(ev) for ev in payload["events"])
        table = decode_table(events, payload["refuted"])
        return cls(
            type_name=payload["type"],
            bound=payload["bound"],
            fingerprint=payload["fingerprint"],
            events=events,
            static=decode_relation(payload["static"]),
            dynamic=dependency_from_commutativity(events, table),
            table=table,
        )

    def canonical_text(self) -> str:
        """The byte-deterministic rendering benchmarks compare."""
        return canonical_json(self.to_payload())


def derive_artifacts(
    datatype: SerialDataType,
    bound: int,
    oracle: LegalityOracle | None = None,
    *,
    jobs: int | None = None,
    fingerprint: str | None = None,
) -> TypeArtifacts:
    """One full derivation: alphabet, Theorem 6 search, shared-pass table."""
    fingerprint = fingerprint or type_fingerprint(datatype, bound)
    with kernel_tracer().span(
        "kernel.derive", type=datatype.name, bound=bound, fingerprint=fingerprint
    ):
        started = time.perf_counter()
        oracle = oracle or LegalityOracle(datatype)
        events, _ = alphabets(datatype, bound + 2, oracle, collect_responses=False)
        static = minimal_static_dependency(datatype, bound, oracle, events)
        table = commutativity_table(datatype, bound, oracle, events, jobs=jobs)
        dynamic = dependency_from_commutativity(events, table)
        kernel_metrics().histogram("kernel.derive.seconds").observe(
            time.perf_counter() - started
        )
    return TypeArtifacts(
        type_name=datatype.name,
        bound=bound,
        fingerprint=fingerprint,
        events=events,
        static=static,
        dynamic=dynamic,
        table=table,
    )


def artifacts_for(
    datatype: SerialDataType,
    bound: int = 3,
    oracle: LegalityOracle | None = None,
    *,
    jobs: int | None = None,
    cache: ArtifactCache | None | bool = None,
    refresh: bool = False,
) -> TypeArtifacts:
    """Memoized, cached artifacts for ``(datatype, bound)``.

    ``cache`` is tri-state: an explicit :class:`ArtifactCache`, ``False``
    to bypass the persistent layer (the in-process memo still applies),
    or ``None`` for the environment default (``REPRO_CACHE_DIR`` /
    ``REPRO_CACHE``).  ``refresh`` forces re-derivation and overwrites
    both layers.
    """
    fingerprint = type_fingerprint(datatype, bound)
    if not refresh:
        memoized = _MEMORY.get(fingerprint)
        if memoized is not None:
            return memoized

    store: ArtifactCache | None
    if cache is False:
        store = None
    elif cache is None or cache is True:
        store = default_cache() if cache_enabled() else None
    else:
        store = cache

    if store is not None and not refresh:
        payload = store.load(fingerprint)
        if payload is not None and payload.get("fingerprint") == fingerprint:
            artifacts = TypeArtifacts.from_payload(payload)
            _MEMORY[fingerprint] = artifacts
            return artifacts

    artifacts = derive_artifacts(
        datatype, bound, oracle, jobs=jobs, fingerprint=fingerprint
    )
    if store is not None:
        store.store(fingerprint, artifacts.to_payload())
    _MEMORY[fingerprint] = artifacts
    return artifacts


def clear_memory_cache() -> None:
    """Drop the in-process memo (tests and benchmarks)."""
    _MEMORY.clear()


# -- catalog fan-out ----------------------------------------------------------


def _catalog_worker(
    item: tuple[SerialDataType, int, bool],
) -> dict[str, Any]:
    """Process-pool unit: derive (or cache-load) one type, ship the payload."""
    datatype, bound, refresh = item
    return artifacts_for(datatype, bound, refresh=refresh).to_payload()


def derive_catalog(
    plan: Sequence[tuple[SerialDataType, int]],
    *,
    jobs: int | None = None,
    refresh: bool = False,
) -> list[TypeArtifacts]:
    """Artifacts for every ``(type, bound)`` in ``plan``.

    With ``jobs > 1`` the *catalog* is the parallel grain — one worker
    per type — which beats sharding any single type's sweep because the
    types differ wildly in cost.  Workers write the shared persistent
    cache; the coordinator rebuilds its in-process memo from the shipped
    payloads, so a follow-up ``artifacts_for`` in this process is free.
    """
    jobs = resolve_jobs(jobs)
    work = [(datatype, bound, refresh) for datatype, bound in plan]
    payloads, _parallel = parallel_map(_catalog_worker, work, jobs)
    results = []
    for payload in payloads:
        artifacts = TypeArtifacts.from_payload(payload)
        _MEMORY[artifacts.fingerprint] = artifacts
        results.append(artifacts)
    return results


def default_warm_plan() -> list[tuple[SerialDataType, int]]:
    """The ``(type, bound)`` pairs the stock reports and tests consume.

    The standard catalog runs at bound 3 (Directory at 2: the catalog
    never asks deeper and the reports are pinned there.  Not a cost
    limit — its history tree is wide, 1 885 histories at depth 3, but
    they reach nine distinct frontiers), plus the bound-4 Queue and PROM
    derivations the theorem battery and the Figure 1-2 comparison use.
    """
    from repro.types import Directory, PROM, Queue, standard_types

    plan: list[tuple[SerialDataType, int]] = []
    for datatype in standard_types():
        bound = 2 if isinstance(datatype, Directory) else 3
        plan.append((datatype, bound))
    plan.append((Queue(), 4))
    plan.append((PROM(), 4))
    return plan
