"""Keyspaces: many typed objects, site placement, and request routing.

The paper's analysis is per object, but a system serves a *keyspace* of
many typed objects at once.  This module is the declarative half of the
multi-object redesign (see ``docs/KEYSPACE.md``):

* a :class:`KeyspaceSpec` names each object, its serial data type and
  concurrency-control scheme, its quorum thresholds, and a
  :class:`PlacementRule` saying which sites replicate it;
* :meth:`KeyspaceSpec.compile` turns the rules into a :class:`Placement`
  — per-object replica sets and per-site shard maps — which
  ``build_keyspace`` (in :mod:`repro.replication.cluster`) wires into
  repositories (each holding only its assigned shards) and front-ends;
* a :class:`Router` resolves object name → replica visit order before
  quorum fan-out, preferring the front-end's own site for locality.

Partial replication here is *genuine* in Sutra & Shapiro's sense
("Fault-Tolerant Partial Replication in Large-Scale Database Systems"):
no site logs, locks, or acks an operation for a shard it does not hold.
Quorums are compiled to
:class:`~repro.quorum.coterie.SubsetThresholdCoterie` values drawn from
the object's replica set — still expressed over global site ids, so
quorum-assignment validation, trace spans, and the online auditor keep
one coordinate system — and the auditor's
``genuine-partial-replication`` monitor checks the property at runtime.

Ring placement is keyed by ``zlib.crc32`` of the object name — a
process-independent hash, so a placement compiled in one process is
byte-identical in every worker a sharded sweep fans out to (builtin
``hash()`` is salted per process and would break that).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.errors import QuorumError, SpecificationError
from repro.quorum.assignment import OperationQuorums, QuorumAssignment
from repro.quorum.constraints import violated_pairs
from repro.quorum.coterie import SubsetThresholdCoterie

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dependency.relation import DependencyRelation
    from repro.spec.datatype import SerialDataType
    from repro.spec.legality import LegalityOracle

__all__ = [
    "KeyspaceSpec",
    "ObjectSpec",
    "Placement",
    "PlacementRule",
    "Router",
    "demo_keyspace",
    "demo_mix",
    "soak_keyspace",
]


@dataclass(frozen=True)
class PlacementRule:
    """Where an object's replicas live.

    Three kinds cover the library's needs:

    * ``"all"``   — full replication, one replica per site (the
      default);
    * ``"ring"``  — ``replication_factor`` consecutive sites starting at
      ``crc32(name) % n_sites``, the standard consistent-placement
      shape: different objects land on different arcs, so load and
      storage spread without any coordination state;
    * ``"sites"`` — an explicit site tuple, for hand-placed objects.
    """

    kind: str = "all"
    replication_factor: int | None = None
    sites: tuple[int, ...] | None = None

    @staticmethod
    def all() -> "PlacementRule":
        """Full replication: every site holds the object."""
        return PlacementRule(kind="all")

    @staticmethod
    def ring(replication_factor: int) -> "PlacementRule":
        """``replication_factor`` consecutive sites from a name-keyed start."""
        if replication_factor < 1:
            raise SpecificationError("replication factor must be at least 1")
        return PlacementRule(kind="ring", replication_factor=replication_factor)

    @staticmethod
    def at(sites: Iterable[int]) -> "PlacementRule":
        """An explicit replica set."""
        fixed = tuple(sorted(set(int(site) for site in sites)))
        if not fixed:
            raise SpecificationError("an explicit placement needs at least one site")
        return PlacementRule(kind="sites", sites=fixed)

    def place(self, name: str, n_sites: int) -> tuple[int, ...]:
        """The replica set this rule assigns ``name`` in an ``n_sites`` cluster."""
        if self.kind == "all":
            return tuple(range(n_sites))
        if self.kind == "sites":
            assert self.sites is not None
            if self.sites[-1] >= n_sites or self.sites[0] < 0:
                raise SpecificationError(
                    f"placement sites {list(self.sites)} for {name!r} fall "
                    f"outside the {n_sites}-site cluster"
                )
            return self.sites
        if self.kind == "ring":
            assert self.replication_factor is not None
            factor = min(self.replication_factor, n_sites)
            start = zlib.crc32(name.encode("utf-8")) % n_sites
            return tuple(
                sorted((start + offset) % n_sites for offset in range(factor))
            )
        raise SpecificationError(f"unknown placement kind {self.kind!r}")


@dataclass(frozen=True)
class ObjectSpec:
    """One object's declaration in a :class:`KeyspaceSpec`.

    ``quorums`` is either ``"majority"`` (majority-of-replicas initial
    and final coteries — always a valid assignment, since any two
    majorities of the same replica set intersect) or an explicit
    ``(initial_threshold, final_threshold)`` pair over the replica set;
    with a ``relation`` declared, the compiled pair must make every
    initial quorum of each pair's invocation meet every final quorum of
    its event (paper, Section 3.2).  A full
    :class:`~repro.quorum.assignment.QuorumAssignment` can be supplied
    via ``assignment`` instead; it is validated only to be *genuine* —
    every quorum must draw only from the object's replicas.
    """

    name: str
    datatype: "SerialDataType"
    scheme: str = "hybrid"
    placement: PlacementRule = field(default_factory=PlacementRule.all)
    quorums: str | tuple[int, int] = "majority"
    relation: "DependencyRelation | None" = None
    assignment: QuorumAssignment | None = None
    oracle: "LegalityOracle | None" = None

    def compile_assignment(
        self, replicas: Sequence[int], n_sites: int
    ) -> QuorumAssignment:
        """The quorum assignment for this object placed at ``replicas``."""
        replica_set = frozenset(replicas)
        if self.assignment is not None:
            _require_genuine(self.name, self.assignment, replica_set)
            return self.assignment
        if self.quorums == "majority":
            initial_k = final_k = len(replica_set) // 2 + 1
        elif isinstance(self.quorums, tuple) and len(self.quorums) == 2:
            initial_k, final_k = self.quorums
        else:
            raise SpecificationError(
                f"object {self.name!r}: quorums {self.quorums!r} is neither "
                "'majority' nor an (initial, final) threshold pair"
            )
        try:
            quorums = OperationQuorums(
                initial=SubsetThresholdCoterie(n_sites, replica_set, initial_k),
                final=SubsetThresholdCoterie(n_sites, replica_set, final_k),
            )
        except QuorumError as exc:
            raise SpecificationError(
                f"object {self.name!r}: {exc} (replicas {sorted(replica_set)})"
            ) from exc
        assignment = QuorumAssignment(
            n_sites, {op: quorums for op in self.datatype.operations()}
        )
        if self.relation is not None:
            broken = violated_pairs(assignment, self.relation)
            if broken:
                invocation, event = broken[0]
                raise SpecificationError(
                    f"object {self.name!r}: quorums {self.quorums!r} over "
                    f"replicas {sorted(replica_set)} leave {invocation} ≥ "
                    f"{event} without intersecting initial and final quorums"
                )
        return assignment


def _require_genuine(
    name: str, assignment: QuorumAssignment, replicas: frozenset[int]
) -> None:
    """Every quorum of every coterie must draw only from ``replicas``."""
    coteries = assignment.initial_coteries() + assignment.final_coteries()
    for coterie in coteries:
        for quorum in coterie.quorums():
            if not quorum <= replicas:
                raise SpecificationError(
                    f"object {name!r}: quorum {sorted(quorum)} of {coterie!r} "
                    f"reaches outside the replica set {sorted(replicas)} — "
                    "the assignment is not genuine for this placement"
                )


class Placement:
    """Compiled replica sets and shard maps for one keyspace.

    Object → sorted replica tuple, and site → shard set, kept mutually
    consistent.
    """

    def __init__(
        self, n_sites: int, replicas: Mapping[str, Sequence[int]] | None = None
    ):
        if n_sites < 1:
            raise SpecificationError("a placement needs at least one site")
        self.n_sites = n_sites
        self._replicas: dict[str, tuple[int, ...]] = {}
        self._shards: dict[int, set[str]] = {
            site: set() for site in range(n_sites)
        }
        for name, sites in (replicas or {}).items():
            self.add(name, sites)

    def add(self, name: str, sites: Sequence[int]) -> tuple[int, ...]:
        """Register one object's replica set; returns the sorted tuple."""
        if name in self._replicas:
            raise SpecificationError(f"object {name!r} is already placed")
        fixed = tuple(sorted(set(int(site) for site in sites)))
        if not fixed:
            raise SpecificationError(f"object {name!r} needs at least one replica")
        if fixed[0] < 0 or fixed[-1] >= self.n_sites:
            raise SpecificationError(
                f"replicas {list(fixed)} for {name!r} fall outside the "
                f"{self.n_sites}-site cluster"
            )
        self._replicas[name] = fixed
        for site in fixed:
            self._shards[site].add(name)
        return fixed

    def object_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._replicas))

    def replicas(self, name: str) -> tuple[int, ...]:
        """The sorted replica sites holding ``name``."""
        try:
            return self._replicas[name]
        except KeyError:
            raise SpecificationError(f"object {name!r} is not placed") from None

    def shards_of(self, site: int) -> frozenset[str]:
        """The shard names site ``site`` holds."""
        return frozenset(self._shards.get(site, ()))

    def holds(self, site: int, name: str) -> bool:
        return name in self._shards.get(site, ())

    @property
    def is_partial(self) -> bool:
        """True when some object is replicated at fewer than all sites."""
        return any(
            len(sites) < self.n_sites for sites in self._replicas.values()
        )

    def describe(self) -> str:
        """One line per site: the shards it holds."""
        lines = []
        for site in range(self.n_sites):
            shards = ", ".join(sorted(self._shards[site])) or "(empty)"
            lines.append(f"site {site}: {shards}")
        return "\n".join(lines)


class Router:
    """Object → replica visit order, resolved before quorum fan-out.

    The route starts at the front-end's own site when it is a replica
    (locality first) and round-robins through the rest; a front-end at a
    non-holding site starts at ``site % len(replicas)`` so different
    front-ends still spread load across the replica set.  For a fully
    replicated object the route is every site, starting at the
    front-end's own.
    """

    def __init__(self, placement: Placement):
        self.placement = placement

    def replicas(self, name: str) -> tuple[int, ...]:
        return self.placement.replicas(name)

    def route(self, frontend_site: int, name: str) -> tuple[int, ...]:
        """The replica visit order for ``name`` from ``frontend_site``."""
        replicas = self.placement.replicas(name)
        if frontend_site in replicas:
            start = replicas.index(frontend_site)
        else:
            start = frontend_site % len(replicas)
        return replicas[start:] + replicas[:start]


@dataclass(frozen=True)
class KeyspaceSpec:
    """A declarative keyspace: sites plus object declarations.

    Compile with :meth:`compile` (placement only) or hand the spec to
    :func:`~repro.replication.cluster.build_keyspace` for a running
    cluster.  Object names must be unique.
    """

    n_sites: int
    objects: tuple[ObjectSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise SpecificationError("a keyspace needs at least one site")
        object.__setattr__(self, "objects", tuple(self.objects))
        names = [spec.name for spec in self.objects]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SpecificationError(f"duplicate object names: {dupes}")

    def compile(self) -> Placement:
        """Resolve every placement rule into replica sets and shard maps."""
        placement = Placement(self.n_sites)
        for spec in self.objects:
            placement.add(spec.name, spec.placement.place(spec.name, self.n_sites))
        return placement


def demo_keyspace(
    n_objects: int,
    n_sites: int,
    *,
    placement: str = "ring",
    replication_factor: int = 3,
) -> KeyspaceSpec:
    """A standard mixed keyspace for CLI workloads, benches, and tests.

    Objects cycle through the three scheme/type pairings the paper
    compares — hybrid FIFO queues, static-atomicity registers, and
    dynamic-atomicity counters — under one shared placement rule
    (``"ring"`` with ``replication_factor`` replicas, or ``"all"`` for
    full replication).  Deterministic: same arguments, same spec.
    """
    from repro.dependency import known
    from repro.types import Counter, Queue, Register

    if placement == "all":
        rule = PlacementRule.all()
    elif placement == "ring":
        rule = PlacementRule.ring(min(replication_factor, n_sites))
    else:
        raise SpecificationError(
            f"unknown demo placement {placement!r} (use 'all' or 'ring')"
        )
    queue, register, counter = Queue(), Register(), Counter()
    relation = known.ground(queue, known.QUEUE_STATIC, 5)
    specs: list[ObjectSpec] = []
    for index in range(n_objects):
        kind = index % 3
        if kind == 0:
            specs.append(
                ObjectSpec(
                    f"queue-{index}",
                    queue,
                    scheme="hybrid",
                    placement=rule,
                    relation=relation,
                )
            )
        elif kind == 1:
            specs.append(
                ObjectSpec(
                    f"register-{index}", register, scheme="static", placement=rule
                )
            )
        else:
            specs.append(
                ObjectSpec(
                    f"counter-{index}", counter, scheme="dynamic", placement=rule
                )
            )
    return KeyspaceSpec(n_sites, tuple(specs))


def soak_keyspace(
    n_objects: int,
    n_sites: int,
    *,
    placement: str = "ring",
    replication_factor: int = 3,
) -> KeyspaceSpec:
    """An all-hybrid-queue keyspace for bounded-memory soak runs.

    :func:`demo_keyspace` cycles in static registers and dynamic
    counters, but the soak's maintenance loop leans on log compaction
    (:mod:`repro.replication.snapshot`), which requires commit-order
    serialization — static atomicity cannot compact at all, and the
    dynamic counter's view-time responses do not replay as a commit
    order serialization.  Hybrid FIFO queues are the paper's
    headline mechanism *and* compaction-friendly, so the soak shards
    the workload across ``n_objects`` of them.  Deterministic: same
    arguments, same spec.
    """
    from repro.dependency import known
    from repro.types import Queue

    if placement == "all":
        rule = PlacementRule.all()
    elif placement == "ring":
        rule = PlacementRule.ring(min(replication_factor, n_sites))
    else:
        raise SpecificationError(
            f"unknown soak placement {placement!r} (use 'all' or 'ring')"
        )
    queue = Queue()
    relation = known.ground(queue, known.QUEUE_STATIC, 5)
    specs = tuple(
        ObjectSpec(
            f"queue-{index}",
            queue,
            scheme="hybrid",
            placement=rule,
            relation=relation,
        )
        for index in range(n_objects)
    )
    return KeyspaceSpec(n_sites, specs)


def demo_mix(spec: KeyspaceSpec):
    """A uniform :class:`~repro.sim.workload.OperationMix` over ``spec``."""
    from repro.sim.workload import OperationMix

    return OperationMix.weighted(
        [
            (obj.name, invocation, 1.0)
            for obj in spec.objects
            for invocation in obj.datatype.invocations()
        ]
    )
