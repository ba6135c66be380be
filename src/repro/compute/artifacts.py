"""Derived kernel artifacts: one derivation, every consumer.

A :class:`TypeArtifacts` bundle holds everything the bounded searches
produce for one ``(type, bound)`` pair — the event alphabet, the minimal
static and dynamic dependency relations (Theorems 6 and 10), and the
full commutativity table the dynamic relation is assembled from (also
the conflict matrix the locking scheme uses).

:func:`artifacts_for` is the single entry point the catalog, the
comparison report, and the theorem battery all call: it looks the pair
up in the in-process memo (:class:`~repro.compute.cache.ArtifactCache`,
keyed by the data type's value) and otherwise derives
(:func:`derive_artifacts`) and stores, so one report run derives each
type once no matter how many consumers ask.  Nothing is kept between
processes: a derivation costs milliseconds.

The canonical JSON text of a bundle is byte-deterministic, which is what
lets tests pin its digest across commits and hash seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.compute.cache import ArtifactCache
from repro.compute.codec import (
    canonical_json,
    encode_event,
    encode_relation,
    encode_table,
)
from repro.dependency.dynamic_dep import (
    commutativity_table,
    dependency_from_commutativity,
)
from repro.dependency.relation import DependencyRelation
from repro.dependency.static_dep import minimal_static_dependency
from repro.histories.events import Event
from repro.spec.datatype import SerialDataType
from repro.spec.enumerate import alphabets
from repro.spec.facts import value_key
from repro.spec.legality import LegalityOracle

#: The in-process memo.  Lives for the process (artifacts are immutable),
#: cleared explicitly by tests and the repo benchmark.
_MEMO = ArtifactCache()


@dataclass(frozen=True)
class TypeArtifacts:
    """Everything the kernel derives for one ``(type, bound)`` pair."""

    type_name: str
    bound: int
    events: tuple[Event, ...]
    static: DependencyRelation
    dynamic: DependencyRelation
    table: dict[tuple[Event, Event], bool]

    def to_payload(self) -> dict[str, Any]:
        return {
            "type": self.type_name,
            "bound": self.bound,
            "events": [encode_event(ev) for ev in self.events],
            "static": encode_relation(self.static),
            "refuted": encode_table(self.events, self.table),
        }

    def canonical_text(self) -> str:
        """The byte-deterministic rendering digests are taken over."""
        return canonical_json(self.to_payload())


def derive_artifacts(
    datatype: SerialDataType,
    bound: int,
    oracle: LegalityOracle | None = None,
    *,
    jobs: int | None = None,
) -> TypeArtifacts:
    """One full derivation: alphabet, Theorem 6 search, shared-pass table."""
    oracle = oracle or LegalityOracle(datatype)
    events, _ = alphabets(datatype, bound + 2, oracle, collect_responses=False)
    static = minimal_static_dependency(datatype, bound, oracle, events)
    table = commutativity_table(datatype, bound, oracle, events, jobs=jobs)
    dynamic = dependency_from_commutativity(events, table)
    return TypeArtifacts(
        type_name=datatype.name,
        bound=bound,
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
) -> TypeArtifacts:
    """Artifacts for ``(datatype, bound)``, derived once per process."""
    key = (value_key(datatype), bound)
    artifacts = _MEMO.load(key)
    if artifacts is None:
        artifacts = derive_artifacts(datatype, bound, oracle, jobs=jobs)
        _MEMO.store(key, artifacts)
    return artifacts


def clear_memory_cache() -> None:
    """Drop the in-process memo (tests and the repo benchmark)."""
    _MEMO.clear()


def default_warm_plan() -> list[tuple[SerialDataType, int]]:
    """The ``(type, bound)`` pairs the stock reports and tests consume.

    The standard catalog runs at bound 3 (Directory at 2: the catalog
    never asks deeper and the reports are pinned there.  Not a cost
    limit — its history tree is wide, 1 885 histories at depth 3, but
    they reach nine distinct frontiers), plus the bound-4 Queue and PROM
    derivations the theorem battery and the Figure 1-2 comparison use.
    No cache is warmed from it: ``TestBoundConvergence`` and CI's
    convergence table iterate it.
    """
    from repro.types import Directory, PROM, Queue, standard_types

    plan: list[tuple[SerialDataType, int]] = []
    for datatype in standard_types():
        bound = 2 if isinstance(datatype, Directory) else 3
        plan.append((datatype, bound))
    plan.append((Queue(), 4))
    plan.append((PROM(), 4))
    return plan
