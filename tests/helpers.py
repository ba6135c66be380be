"""Shared builders for replication-layer tests, and test-only data types."""

from __future__ import annotations

from repro.dependency import known
from repro.dependency.relation import DependencyRelation
from repro.errors import SpecificationError
from repro.histories.events import Invocation, ok
from repro.quorum.assignment import QuorumAssignment
from repro.replication import frontend
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import KeyspaceSpec, ObjectSpec
from repro.replication.log import Log
from repro.replication.view import View
from repro.replication.viewcache import QuorumViewCache
from repro.spec.datatype import SerialDataType
from repro.types import PROM, Counter, Queue, Register


def small_system(
    datatype: SerialDataType,
    scheme: str,
    relation: DependencyRelation | None = None,
    n_sites: int = 3,
    seed: int = 0,
    assignment: QuorumAssignment | None = None,
    name: str = "obj",
):
    """A cluster with one replicated object; returns (cluster, object)."""
    spec = ObjectSpec(name, datatype, scheme, relation=relation, assignment=assignment)
    cluster = cluster_of(n_sites, spec, seed=seed)
    return cluster, cluster.tm.object(name)


def cluster_of(n_sites: int, *objects: ObjectSpec, **options):
    """A running ``n_sites`` cluster of ``objects``; ``options`` go to
    :func:`~repro.replication.cluster.build_keyspace`."""
    return build_keyspace(KeyspaceSpec(n_sites, objects), **options)


def hybrid_queue(name: str = "queue") -> ObjectSpec:
    """A fully replicated hybrid FIFO queue under the paper's static
    relation (Theorem 4 makes it a hybrid relation too)."""
    queue = Queue()
    return ObjectSpec(name, queue, relation=known.ground(queue, known.QUEUE_STATIC, 5))


def queue_system(scheme: str, n_sites: int = 3, seed: int = 0, **kwargs):
    """Replicated Queue; the static relation doubles as a hybrid relation
    (Theorem 4) for the hybrid scheme's conflict table."""
    datatype = Queue()
    relation = known.ground(datatype, known.QUEUE_STATIC, 5)
    return small_system(datatype, scheme, relation, n_sites, seed, **kwargs)


def prom_system(scheme: str, n_sites: int = 3, seed: int = 0, **kwargs):
    datatype = PROM()
    relation = known.ground(datatype, known.PROM_HYBRID, 5)
    return small_system(datatype, scheme, relation, n_sites, seed, **kwargs)


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a pass-through that counts its ``calls``."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counted.calls += 1
        return original(*args, **kwargs)

    counted.calls = 0
    monkeypatch.setattr(owner, name, counted)
    return counted


class FromScratchViewCache(QuorumViewCache):
    """A view cache that remembers nothing.

    Every initial-quorum read is folded from scratch over its probes, in
    visit order, as :func:`~repro.replication.repository.read_walk`
    folds a walk's replies; a final-quorum write refreshes nothing.
    ``merges`` counts the folds across every instance.
    """

    merges = 0

    def merged_view(self, object_name, probes):
        FromScratchViewCache.merges += 1
        merged, best = Log(), None
        for probe in probes:
            fragment, snapshot, _version = probe.value
            merged = merged.merge(fragment)
            if snapshot is not None and snapshot.subsumes(best):
                best = snapshot
        if best is not None:
            merged = Log(entry for entry in merged if entry.action not in best.dropped)
        return merged, best

    def note_write(self, object_name, update, acks) -> None:
        pass


def from_scratch_front_ends(monkeypatch) -> type[FromScratchViewCache]:
    """Make every front-end built from here on run without its caches.

    Views are merged by :class:`FromScratchViewCache` and built with no
    serial cache, so every scheme recomputes its serializations from
    scratch: the model the incremental caches must agree with.  Returns
    the cache class, whose ``merges`` shows the reads went through it.
    """
    monkeypatch.setattr(FromScratchViewCache, "merges", 0)
    monkeypatch.setattr(frontend, "QuorumViewCache", FromScratchViewCache)
    monkeypatch.setattr(
        frontend,
        "View",
        lambda log, statuses, base=None, serial_cache=None: View(
            log, statuses, base=base
        ),
    )
    return FromScratchViewCache


class HiddenCoin(SerialDataType):
    """A hidden nondeterministic choice: ``Toss`` answers ``Ok()`` and lands
    heads *or* tails, and only ``Peek`` reveals which.

    After a ``Toss`` the replay frontier holds two states — the set-valued
    merging no catalogue type exercises (their frontiers never exceed one
    state, nondeterministic SemiQueue included: its ``Deq`` names the item).
    """

    name = "HiddenCoin"

    def initial_state(self):
        return "heads"

    def apply(self, state, invocation):
        if invocation.op == "Toss":
            return [(ok(), "heads"), (ok(), "tails")]
        if invocation.op == "Peek":
            return [(ok(state), state)]
        raise SpecificationError(f"HiddenCoin has no operation {invocation.op!r}")

    def invocations(self):
        return (Invocation("Toss"), Invocation("Peek"))


class CountingRegister(Register):
    """A Register whose state also counts the writes it has seen.

    ``canonical`` strips the counter, so it is the plain Register to every
    future — but its raw states never repeat, so a walk that merged on
    states instead of canonical keys would grow with the bound.
    """

    name = "CountingRegister"

    def initial_state(self):
        return (super().initial_state(), 0)

    def apply(self, state, invocation):
        value, writes = state
        return [
            (response, (written, writes + (invocation.op == "Write")))
            for response, written in super().apply(value, invocation)
        ]

    def canonical(self, state):
        return state[0]


class TableType(SerialDataType):
    """A finite automaton read off a table: ``(state, op) -> ((value, next), …)``.

    ``op`` answers ``Ok(value)`` and moves to ``next``; more than one
    outcome per cell makes it nondeterministic.  Small enough for
    hypothesis to draw at random, and for a shrunk one to be pinned as a
    regression row.
    """

    name = "TableType"

    def __init__(self, table, initial=0):
        self._table = dict(table)
        self._initial = initial
        self._ops = sorted({op for _state, op in self._table})

    def initial_state(self):
        return self._initial

    def apply(self, state, invocation):
        outcomes = self._table[state, invocation.op]
        return [(ok(value), following) for value, following in outcomes]

    def invocations(self):
        return tuple(Invocation(op) for op in self._ops)

    def __repr__(self):
        return f"TableType({self._table!r}, initial={self._initial!r})"
