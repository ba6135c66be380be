"""Cross-property dependency comparison (Figure 1-2).

For one data type, compute the minimal static and dynamic dependency
relations (unique, Theorems 6 and 10), take a verified hybrid relation,
and compare the three as constraint sets on quorum assignment.  The
containment structure the paper proves:

* static ⊇ every hybrid relation (Theorem 4 contrapositive at the level
  of minimal relations: the unique minimal static relation encompasses
  the union of the minimal hybrid relations);
* dynamic is incomparable to both.

The comparison also derives the availability consequence: the Pareto
frontier of valid threshold assignments under each relation, at a given
site count and up-probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compute.artifacts import artifacts_for
from repro.dependency.relation import DependencyRelation
from repro.quorum.search import threshold_frontier
from repro.spec.datatype import SerialDataType
from repro.spec.legality import LegalityOracle


@dataclass
class DependencyComparison:
    """Minimal relations under the three properties, plus derived facts."""

    datatype: str
    bound: int
    static: DependencyRelation
    dynamic: DependencyRelation
    hybrid: DependencyRelation | None = None
    frontiers: dict[str, list] = field(default_factory=dict)

    def static_contains_hybrid(self) -> bool | None:
        if self.hybrid is None:
            return None
        return self.hybrid <= self.static

    def static_dynamic_incomparable(self) -> bool:
        return not (self.static <= self.dynamic) and not (
            self.dynamic <= self.static
        )

    def hybrid_dynamic_incomparable(self) -> bool | None:
        if self.hybrid is None:
            return None
        return not (self.hybrid <= self.dynamic) and not (
            self.dynamic <= self.hybrid
        )

    def summary(self) -> str:
        lines = [
            f"Dependency comparison for {self.datatype} (serial bound {self.bound}):",
            f"  minimal static  relation: {len(self.static)} ground pairs",
        ]
        for schema in self.static.schema_pairs():
            lines.append(f"      {schema}")
        lines.append(
            f"  minimal dynamic relation: {len(self.dynamic)} ground pairs"
        )
        for schema in self.dynamic.schema_pairs():
            lines.append(f"      {schema}")
        if self.hybrid is not None:
            lines.append(f"  hybrid relation: {len(self.hybrid)} ground pairs")
            for schema in self.hybrid.schema_pairs():
                lines.append(f"      {schema}")
            lines.append(
                f"  hybrid ⊆ static: {self.static_contains_hybrid()}"
                " (Theorem 4 corollary)"
            )
            lines.append(
                f"  hybrid vs dynamic incomparable: {self.hybrid_dynamic_incomparable()}"
            )
        lines.append(
            f"  static vs dynamic incomparable: {self.static_dynamic_incomparable()}"
        )
        return "\n".join(lines)


def compare_dependencies(
    datatype: SerialDataType,
    bound: int = 4,
    hybrid: DependencyRelation | None = None,
    oracle: LegalityOracle | None = None,
    frontier_sites: int | None = None,
    frontier_p: float = 0.9,
    *,
    jobs: int | None = None,
) -> DependencyComparison:
    """Compute the Figure 1-2 comparison for one data type.

    ``hybrid`` should be a relation verified against ``Hybrid(T)`` by
    :mod:`repro.dependency.verify` (hybrid minimal relations are not
    unique, so no closed-form search exists); ``None`` omits the hybrid
    column.  With ``frontier_sites`` set, the availability frontiers of
    all supplied relations are computed as well.  The minimal relations
    come from the shared artifact layer (memoized per process);
    ``jobs`` shards a memo-miss derivation across processes.
    """
    artifacts = artifacts_for(datatype, bound, oracle, jobs=jobs)
    comparison = DependencyComparison(
        datatype=datatype.name,
        bound=bound,
        static=artifacts.static,
        dynamic=artifacts.dynamic,
        hybrid=hybrid,
    )
    if frontier_sites is not None:
        operations = tuple(sorted(datatype.operations()))
        relations = {"static": comparison.static, "dynamic": comparison.dynamic}
        if hybrid is not None:
            relations["hybrid"] = hybrid
        for name, relation in relations.items():
            comparison.frontiers[name] = threshold_frontier(
                relation, frontier_sites, operations, frontier_p
            )
    return comparison
