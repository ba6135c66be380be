"""A dependency-relation catalog for the whole type library.

For each data type, the unique minimal static and dynamic dependency
relations (Theorems 6 and 10) are computed and summarized — the
reference a replication engineer would consult when assigning quorums to
a new typed object.  The catalog also quantifies each type's "coupling":
the fraction of invocation/event-class pairs that are constrained, which
orders types from fully commuting (low coupling, cheap replication) to
fully serial (Sequencer, Mutex — every pair constrained).

The classic specification-weakening result falls out as a corollary and
is checked by the benchmark: the SemiQueue (dequeue *some* item) has a
strictly smaller dynamic dependency relation than the FIFO Queue —
weakening the serial specification weakens the constraints on both
concurrency and availability.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compute.artifacts import artifacts_for
from repro.dependency.relation import DependencyRelation
from repro.spec.datatype import SerialDataType
from repro.spec.legality import LegalityOracle


@dataclass
class CatalogEntry:
    """One type's computed dependency profile."""

    datatype: str
    bound: int
    operations: int
    ground_pairs_universe: int
    static: DependencyRelation
    dynamic: DependencyRelation

    @property
    def static_coupling(self) -> float:
        """Fraction of the ground pair universe the static relation uses."""
        return len(self.static) / self.ground_pairs_universe

    @property
    def dynamic_coupling(self) -> float:
        return len(self.dynamic) / self.ground_pairs_universe

    def row(self) -> str:
        return (
            f"{self.datatype:<14} {self.operations:>3} "
            f"{len(self.static):>7} ({100 * self.static_coupling:>5.1f}%) "
            f"{len(self.dynamic):>7} ({100 * self.dynamic_coupling:>5.1f}%)"
        )


def catalog_entry(
    datatype: SerialDataType,
    bound: int = 3,
    oracle: LegalityOracle | None = None,
    *,
    jobs: int | None = None,
) -> CatalogEntry:
    """Compute one type's profile at the given serial bound.

    Served from the shared artifact layer
    (:func:`repro.compute.artifacts.artifacts_for`): memoized in-process,
    derived (optionally with ``jobs`` worker processes) only on a miss.
    """
    artifacts = artifacts_for(datatype, bound, oracle, jobs=jobs)
    invocations = tuple(datatype.invocations())
    return CatalogEntry(
        datatype=datatype.name,
        bound=bound,
        operations=len(datatype.operations()),
        ground_pairs_universe=len(invocations) * len(artifacts.events),
        static=artifacts.static,
        dynamic=artifacts.dynamic,
    )


def catalog_table(entries: list[CatalogEntry]) -> str:
    """Render the catalog, lowest dynamic coupling first."""
    header = (
        f"{'type':<14} {'ops':>3} {'static pairs':>15} {'dynamic pairs':>16}"
    )
    lines = [header, "-" * len(header)]
    for entry in sorted(entries, key=lambda e: e.dynamic_coupling):
        lines.append(entry.row())
    return "\n".join(lines)
