"""Shared test builders, inspection helpers, fixtures and data types."""

from __future__ import annotations

from repro.dependency import known
from repro.dependency.relation import DependencyRelation
from repro.errors import SpecificationError
from repro.histories.behavioral import Commit
from repro.histories.events import Invocation, event, ok
from repro.quorum.assignment import QuorumAssignment
from repro.replication import frontend
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import KeyspaceSpec, ObjectSpec
from repro.replication.log import Log
from repro.replication.serialcache import SerialPrefixCache
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


def refused_layout_system(
    datatype: SerialDataType, assignment: QuorumAssignment, **kwargs
):
    """A hybrid object running ``assignment``, which its relation refuses.

    The build refuses the layout, so it is installed after the build, as
    :func:`repro.obs.mutations.break_quorum_intersection` does; returns
    ``(cluster, object)`` like :func:`small_system`.
    """
    try:
        small_system(datatype, "hybrid", assignment=assignment, **kwargs)
    except SpecificationError as refusal:
        assert "without intersecting" in str(refusal)
    else:
        raise AssertionError("the build accepted a layout its relation refuses")
    cluster, obj = small_system(datatype, "hybrid", **kwargs)
    obj.assignment = assignment
    return cluster, obj


def hybrid_queue(name: str = "queue") -> ObjectSpec:
    """A fully replicated hybrid FIFO queue under its default relation,
    the paper's static one (Theorem 4 makes it a hybrid relation too)."""
    return ObjectSpec(name, Queue())


def queue_system(scheme: str, n_sites: int = 3, seed: int = 0, **kwargs):
    """Replicated Queue; a hybrid one runs under its default relation."""
    return small_system(Queue(), scheme, None, n_sites, seed, **kwargs)


def prom_system(scheme: str, n_sites: int = 3, seed: int = 0, **kwargs):
    """Replicated PROM; a hybrid one runs under the paper's ``≥H``, the
    others under their mechanism's minimal relation (``≥H`` lacks
    static's ``Read ≥ Write;Ok``)."""
    datatype = PROM()
    relation = None
    if scheme == "hybrid":
        relation = known.ground(datatype, known.PROM_HYBRID, 5)
    return small_system(datatype, scheme, relation, n_sites, seed, **kwargs)


def replies(result):
    """A gather's successful probes in completion order: (time, site)."""
    return tuple(sorted(result.received, key=lambda r: (r.completed_at, r.site)))


def commit_all(history, actions):
    """``history`` with a Commit appended per action, in the order given."""
    for action in actions:
        history = history.append(Commit(action))
    return history


def audit_verdict(report, invariants=None):
    """What deep and streaming audits of one span stream must agree on.

    The violations (restricted to ``invariants`` if given) and the
    operation, transaction and span tallies; forensics, memory marks and
    the monitor roster, which legitimately differ between modes, are left
    out.  ``json.dumps(audit_verdict(report, STREAMING_INVARIANTS),
    sort_keys=True)`` (the six names ``tests/test_stream_audit.py`` pins)
    is the byte-identity contract between the modes.
    """
    names = None if invariants is None else frozenset(invariants)
    kept = [v for v in report.violations if names is None or v.invariant in names]
    suppressed = {
        name: count
        for name, count in report.suppressed.items()
        if names is None or name in names
    }
    return {
        "ok": not kept and not suppressed,
        "operations": report.operations,
        "transactions": report.transactions,
        "spans_seen": report.spans_seen,
        "violations": [
            {
                "invariant": v.invariant,
                "message": v.message,
                "object": v.object_name,
                "time": v.time,
                "count": v.count,
            }
            for v in kept
        ],
        "suppressed": suppressed,
    }


def cache_stats(cache):
    """The counters a quorum view cache keeps, by name."""
    names = ("hits", "delta_merges", "rebuilds", "write_throughs")
    return {name: getattr(cache, name) for name in names}


def serial_cache_work(monkeypatch) -> dict[str, int]:
    """Tally what the objects' serial caches do from here on.

    ``served`` counts the :meth:`SerialPrefixCache.covering` queries
    answered with the object's rows and ``fallbacks`` those answered
    ``None`` (the scheme then builds the reference rows).  ``folds``
    counts the committed groups :meth:`SerialPrefixCache.fold` added and
    ``mid_inserts`` those that landed in front of an existing row, read
    from the position it returns.
    """
    work = {"served": 0, "fallbacks": 0, "folds": 0, "mid_inserts": 0}
    covering, fold = SerialPrefixCache.covering, SerialPrefixCache.fold

    def counted_covering(cache, view, txn):
        marks = covering(cache, view, txn)
        work["served" if marks is not None else "fallbacks"] += 1
        return marks

    def counted_fold(cache, txn, entries):
        position = fold(cache, txn, entries)
        work["folds"] += 1
        work["mid_inserts"] += position < len(cache.marks) - 1
        return position

    monkeypatch.setattr(SerialPrefixCache, "covering", counted_covering)
    monkeypatch.setattr(SerialPrefixCache, "fold", counted_fold)
    return work


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
    visit order, written out here independently of
    :func:`~repro.replication.viewcache.fold_view` (the fold the cache's
    rebuild and the administrative drains share); a final-quorum write
    refreshes nothing.  ``merges`` counts the folds across every instance.
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

    Views are merged by :class:`FromScratchViewCache` and no object's
    serial cache serves a view, so every scheme recomputes its
    serializations from scratch: the model the incremental caches must
    agree with.  Returns the cache class, whose ``merges`` shows the
    reads went through it.
    """
    monkeypatch.setattr(FromScratchViewCache, "merges", 0)
    monkeypatch.setattr(frontend, "QuorumViewCache", FromScratchViewCache)
    monkeypatch.setattr(SerialPrefixCache, "covering", lambda _cache, _view, _txn: None)
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


#: The FlagSet battery's alphabet: its normal events.
FLAGSET_EVENTS = (
    event("Open"),
    event("Shift", (1,)),
    event("Shift", (2,)),
    event("Shift", (3,)),
    event("Close", (), ok(False)),
    event("Close", (), ok(True)),
)


def probe_relations(invocations, events):
    """The empty relation, the total one, and the total minus each pair."""
    total = DependencyRelation.total(invocations, events)
    return [DependencyRelation(), total, *(total.without(pair) for pair in total)]
