"""The online correctness auditor: live histories, invariants, forensics.

This module watches *correctness*.  An :class:`Auditor` attaches to a cluster's
:class:`~repro.obs.trace.Tracer` as a live listener and, as spans close,
reconstructs each replicated object's behavioral history from the event
stream — the same :class:`~repro.replication.object.HistoryRecorder`
form the runtime keeps — while a pluggable set of
:class:`InvariantMonitor` values checks the paper's invariants online:

* **quorum-intersection** — every quorum the front-ends actually use is
  a quorum of the coteries declared when auditing started, and every
  observed initial/final quorum pair that the object's dependency
  relation requires to intersect really does (paper, Section 3.2: the
  intersection relation must contain an atomic dependency relation);
* **reconfig-epoch** — ``reconfig.switch`` events advance an object's
  epoch by exactly one and every quorum runs under the current one;
* **lock-discipline** — synchronization state holds every executed
  event until the owning transaction commits or aborts (2PL for the
  dynamic scheme, dependency locks for hybrid);
* **timestamp-order** — hybrid commit timestamps respect commit order:
  each commit timestamp follows the transaction's begin timestamp and
  the previous commit (Definition 3's commit-time serialization order);
* **log-consistency** — replica logs agree: across every repository, at
  most one ``(action, event)`` pair per Lamport timestamp (replicated
  logs are set unions ordered by timestamp, so replicas may lag but
  never conflict);
* **history-capture** — the auditor's live-captured history equals the
  runtime recorder's (the observability path does not drift from the
  system of record);
* **one-copy-serializability** — at end of run, each object's committed
  actions serialized in its scheme's order (begin order for static,
  commit order for hybrid/dynamic) form a legal serial history of the
  object's serial data type, via :class:`~repro.spec.legality.LegalityOracle`
  and :func:`~repro.histories.serialization.serialize`;
* **genuine-partial-replication** — under a sharded keyspace, no site
  ever logs, reads, or acks an operation for a shard it does not hold
  (Sutra & Shapiro's genuineness criterion, checked against the
  cluster's compiled placement).

Violations are first-class observability artifacts: each carries the
offending span subtree and a ring buffer of recent point events
(:class:`Forensics`), renders as a forensic report, increments
``audit.violations.*`` counters in a :class:`~repro.obs.metrics.MetricsRegistry`,
and is marked in the trace itself as an ``audit.violation`` event so it
exports alongside JSONL/Chrome traces.

**Streaming vs deep mode.**  The auditor runs in one of two modes:

* ``mode="deep"`` (default) — every monitor, including the two that
  need the *full* run history (history-capture and one-copy
  serializability).  Memory grows with the run; right for tier-1
  workloads and forensic investigation.
* ``mode="streaming"`` — the six online monitors rewritten as
  streaming folds over the span stream with per-object sliding windows
  (:func:`streaming_monitors`).  State is O(window), independent of run
  length, so auditing rides along a million-op soak at full speed.  The
  per-monitor window-guarantee table (what a window of W catches versus
  provably misses) lives in ``docs/OBSERVABILITY.md``.

On identical span streams the two modes report byte-identical
violations on the six invariants the streaming monitors check (the
names :func:`streaming_monitors` reports; history-capture and
one-copy-serializability need the full history and stay deep-only) and
identical tallies — pinned by the ``pytest -m streaming`` suite.

Usage::

    tracer = Tracer()
    cluster = build_keyspace(spec, seed=0, tracer=tracer)
    ...
    auditor = Auditor(cluster)        # attaches to cluster.tracer
    ...run the workload...
    report = auditor.finish()         # detaches; runs end-of-run checks
    assert report.ok, report.render()
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Sequence

from repro.histories.serialization import serialize
from repro.obs.export import render_tree
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, TraceListener, Tracer, routing_table
from repro.replication.log import EMPTY_LOG
from repro.txn.ids import ActionId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.replication.object import ReplicatedObject
    from repro.txn.ids import Transaction


# -- violations and forensics ------------------------------------------------


@dataclass(frozen=True)
class Forensics:
    """What the auditor saw when an invariant broke.

    ``spans`` is the offending span's subtree (root first, depth-first,
    truncated to :data:`SUBTREE_LIMIT` nodes); ``recent_events`` is the
    tail of the point-event stream (crashes, partitions, recoveries,
    reconfiguration switches) leading up to the violation.
    """

    spans: tuple[Span, ...] = ()
    recent_events: tuple[Span, ...] = ()
    truncated: bool = False

    def render(self, indent: str = "  ") -> str:
        lines: list[str] = []
        if self.spans:
            lines.append(f"{indent}offending span subtree:")
            for line in render_tree(self.spans).splitlines():
                lines.append(f"{indent}  {line}")
            if self.truncated:
                lines.append(f"{indent}  ... (subtree truncated)")
        if self.recent_events:
            lines.append(f"{indent}recent events:")
            for line in render_tree(self.recent_events).splitlines():
                lines.append(f"{indent}  {line}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "spans": [span.to_dict() for span in self.spans],
            "recent_events": [span.to_dict() for span in self.recent_events],
            "truncated": self.truncated,
        }


@dataclass
class Violation:
    """One broken invariant, with evidence.

    Repeated identical findings (same invariant, same message) fold into
    one violation with an occurrence ``count`` — a broken quorum
    assignment would otherwise report every single operation.
    """

    invariant: str
    message: str
    object_name: str | None
    time: float
    span_id: int | None
    forensics: Forensics
    count: int = 1

    def render(self) -> str:
        where = f" object {self.object_name!r}" if self.object_name else ""
        times = f" (x{self.count})" if self.count > 1 else ""
        header = f"[{self.invariant}]{where} at t={self.time:.2f}{times}: {self.message}"
        body = self.forensics.render()
        return header if not body else f"{header}\n{body}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "message": self.message,
            "object": self.object_name,
            "time": self.time,
            "span_id": self.span_id,
            "count": self.count,
            "forensics": self.forensics.to_dict(),
        }


#: Hard cap on forensic subtree size; a transaction-rooted subtree in a
#: long run could otherwise dominate the report.
SUBTREE_LIMIT = 80


# -- the monitor interface ---------------------------------------------------


@dataclass(frozen=True)
class OperationRecord:
    """One successfully executed operation, resolved to runtime values.

    The span's attributes are strings for export friendliness; the
    auditor resolves them back to the live :class:`Transaction`, the
    :class:`ReplicatedObject`, and the actual chosen
    :class:`~repro.histories.events.Event` (the last entry the
    transaction recorded on the object, which the synchronous operation
    protocol guarantees is this operation's event).
    """

    span: Span
    obj: "ReplicatedObject"
    txn: "Transaction"
    event: Any


class InvariantMonitor:
    """Base class for online invariant checks.

    Subclasses override the callbacks they need; :meth:`bind` runs once
    at attach time (capture declared configuration *before* anything can
    mutate it) and :meth:`at_end` once at :meth:`Auditor.finish`.
    """

    #: The invariant's name, used in reports, counters, and exit codes.
    name = "invariant"

    #: The point-event names :meth:`on_point_event` reads; ``None`` =
    #: every name.  The auditor enters the hook for no other name.
    point_events: frozenset[str] | None = None

    #: The step-span names :meth:`on_step` reads; ``None`` = every step.
    step_names: frozenset[str] | None = None

    #: Whether :meth:`on_quorum` reads quorum spans.  Each declaration
    #: may be narrowed at :meth:`bind`, from the configuration pinned there.
    reads_quorums: bool = True

    def __init__(self) -> None:
        self.auditor: "Auditor | None" = None

    def bind(self, auditor: "Auditor") -> None:
        self.auditor = auditor

    def report(
        self,
        message: str,
        *,
        span: Span | None = None,
        object_name: str | None = None,
    ) -> None:
        assert self.auditor is not None, "monitor used before bind()"
        self.auditor.report_violation(
            self.name, message, span=span, object_name=object_name
        )

    # -- callbacks (all optional) ------------------------------------------

    def on_operation(self, record: OperationRecord) -> None:
        """A front-end operation completed successfully."""

    def on_transaction_end(self, span: Span, txn: "Transaction") -> None:
        """A transaction span closed (outcome ``committed``/``aborted``)."""

    def on_step(self, span: Span) -> None:
        """A protocol step closed, whatever its outcome; its ``served``
        names the sites whose handler ran (see :func:`step_objects`)."""

    def on_quorum(self, span: Span) -> None:
        """A quorum-phase span closed (after the step hooks saw it)."""

    def on_point_event(self, span: Span) -> None:
        """A point event (crash, partition, reconfiguration switch) fired."""

    def at_end(self) -> None:
        """End-of-run checks (serializability, final sweeps)."""

    def state_cells(self) -> int:
        """How many state entries the monitor currently retains.

        The bounded-memory soak tracks the high-water mark of this sum
        across all monitors as evidence that streaming audit state
        really is O(window).
        """
        return 0


# -- the monitors ------------------------------------------------------------


class QuorumIntersectionMonitor(InvariantMonitor):
    """Observed quorums honor the declared assignment and intersect.

    At bind time the monitor captures each object's *declared* quorum
    assignment and its dependency relation (projected to ``(invocation
    op, event op, response kind)`` classes — intersection is a property
    of classes, not ground events).  Then:

    * every successful ``quorum`` span's member set must be a quorum of
      the declared coterie for that operation/event class;
    * every observed initial quorum must intersect every observed final
      quorum of a class the dependency relation requires it to
      intersect — re-checked only for a member set new to its bucket or
      marked (:meth:`_remember`).

    With ``window=W`` the monitor becomes a streaming fold: each
    per-class store keeps only the W most recently seen *distinct*
    quorum member sets (LRU).  The declared-coterie membership check is
    stateless and always exact; the pairwise-intersection check can
    miss a disjoint pair only when the two quorums are separated by
    more than W other distinct member sets of the same class — in
    practice quorum assignments draw from a handful of member sets, so
    even small windows see every pair.
    """

    name = "quorum-intersection"
    point_events = frozenset({"reconfig.switch"})

    def __init__(self, *, window: int | None = None) -> None:
        super().__init__()
        self.window = window
        #: object -> (declared assignment, relation class keys)
        self._declared: dict[str, tuple[Any, frozenset[tuple[str, str, str]]]] = {}
        #: object -> op -> distinct observed initial quorums (LRU order),
        #: each marked once it has met a disjoint required partner
        self._initials: dict[str, dict[str, OrderedDict[frozenset[int], bool]]] = {}
        #: object -> (op, kind) -> the same for final quorums
        self._finals: dict[
            str, dict[tuple[str, str], OrderedDict[frozenset[int], bool]]
        ] = {}

    def _remember(
        self,
        store: dict[Any, OrderedDict[frozenset[int], bool]],
        key: Any,
        members: frozenset[int],
    ) -> OrderedDict[frozenset[int], bool] | None:
        """Note ``members`` in its bucket; the bucket if its pairs need a check.

        A set already in its bucket was checked against every set now in
        the opposite buckets, by whichever of the two arrived later; only
        its mark (its cell's value: counted and evicted with it)
        makes a repeated violation count again.
        """
        bucket = store.setdefault(key, OrderedDict())
        marked = bucket.get(members)
        if marked is not None:
            bucket.move_to_end(members)
            return bucket if marked else None
        bucket[members] = False
        if self.window is not None and len(bucket) > self.window:
            bucket.popitem(last=False)
        return bucket

    def state_cells(self) -> int:
        return sum(
            len(bucket)
            for store in (self._initials, self._finals)
            for buckets in store.values()
            for bucket in buckets.values()
        )

    def bind(self, auditor: "Auditor") -> None:
        super().bind(auditor)
        for name, obj in auditor.objects().items():
            self._capture(name, obj)

    def _capture(self, name: str, obj: Any) -> None:
        """Pin ``obj``'s declared configuration; its observed state starts empty."""
        keys = frozenset(
            (invocation.op, event.inv.op, event.res.kind)
            for invocation, event in obj.relation.pairs
        )
        self._declared[name] = (obj.assignment, keys)
        self._initials[name] = {}
        self._finals[name] = {}

    def on_point_event(self, span: Span) -> None:
        obj_name = span.attrs.get("object")
        if obj_name is None or self.auditor is None:
            return
        obj = self.auditor.objects().get(obj_name)
        if obj is None:
            return
        # A legitimate reconfiguration announces itself: re-capture the
        # declared assignment from the object's live state and drop the
        # superseded configuration's caches and observed-quorum buckets
        # (old-epoch quorums must not be intersection-checked against
        # new-epoch ones — the hand-over, not intersection, is what
        # carries history across the switch).  The ``quorum-intersection``
        # mutation stays caught precisely because it rewrites the
        # assignment *without* this event.
        self._capture(obj_name, obj)

    def on_quorum(self, span: Span) -> None:
        attrs = span.attrs
        if span.outcome != "ok" or "quorum" not in attrs:
            return
        obj_name = attrs.get("object")
        declared = self._declared.get(obj_name)
        if declared is None:
            return
        coteries, required = declared
        op = attrs.get("op", "?")
        members = frozenset(attrs["quorum"])
        if attrs.get("phase") == "initial":
            phase, other, key = "initial", "final", op
            coterie = coteries.initial(op)
            store, partners = self._initials[obj_name], self._finals[obj_name]
        else:
            kind = attrs.get("res_kind", "Ok")
            phase, other, key = "final", "initial", (op, kind)
            coterie = coteries.final(op, kind)
            store, partners = self._finals[obj_name], self._initials[obj_name]
        if not coterie.has_quorum(members):
            self.report(
                f"{phase} quorum {sorted(members)} for {_label(key)} is not a "
                f"quorum of the declared coterie {coterie!r}",
                span=span,
                object_name=obj_name,
            )
        bucket = self._remember(store, key, members)
        if bucket is None:
            return
        for partner_key, partner_bucket in partners.items():
            pair = (op, *partner_key) if phase == "initial" else (partner_key, *key)
            if pair not in required:
                continue
            for partner in partner_bucket:
                if not (members & partner):
                    bucket[members] = partner_bucket[partner] = True
                    self.report(
                        f"{phase} quorum {sorted(members)} for {_label(key)} is "
                        f"disjoint from {other} quorum {sorted(partner)} of "
                        f"{_label(partner_key)} — the intersection relation no "
                        "longer contains the dependency relation",
                        span=span,
                        object_name=obj_name,
                    )


def _label(key: str | tuple[str, str]) -> str:
    """A bucket key as reports name it: ``Deq`` (initial), ``Enq;Ok`` (final)."""
    return key if isinstance(key, str) else "%s;%s" % key


class ReconfigEpochMonitor(InvariantMonitor):
    """Every quorum runs under the object's current configuration epoch.

    The one-copy-serializability argument for online reconfiguration
    (``docs/KEYSPACE.md``) has two legs: the drain-and-prime hand-over
    preserves every installed event across the switch, and *no
    front-end keeps operating under the superseded assignment* — a
    stale front-end could assemble quorums that fail to intersect the
    new configuration's, silently splitting the object's history.  The
    hand-over is the reconfig layer's proof; this monitor checks the
    second leg at runtime:

    * ``reconfig.switch`` point events must advance each object's epoch
      by exactly one (no skipped or replayed switches);
    * every successful quorum span carrying an ``epoch`` attribute must
      match the object's current epoch — a mismatch is exactly the
      ``stale-assignment`` mutation (a front-end that missed the
      switch and still uses the old quorums).

    Already a streaming fold: state is one integer per object, so the
    monitor runs unchanged in deep and streaming mode.
    """

    name = "reconfig-epoch"
    point_events = frozenset({"reconfig.switch"})

    def __init__(self) -> None:
        super().__init__()
        self._epochs: dict[str, int] = {}

    def bind(self, auditor: "Auditor") -> None:
        super().bind(auditor)
        for name, obj in auditor.objects().items():
            self._epochs[name] = getattr(obj, "epoch", 0)

    # state_cells stays 0: the epoch map mirrors durable object
    # configuration (one integer per object, fixed at bind and advanced
    # by switches), not span-stream accumulation —
    # the same footing as QuorumIntersectionMonitor's declared
    # assignments, which the bounded-memory accounting also excludes.

    def on_point_event(self, span: Span) -> None:
        obj_name = span.attrs.get("object")
        epoch = span.attrs.get("epoch")
        if obj_name is None or epoch is None:
            return
        current = self._epochs.get(obj_name, 0)
        if epoch != current + 1:
            self.report(
                f"reconfiguration of {obj_name!r} announced epoch {epoch} "
                f"but the previous epoch was {current} — switches must "
                "advance the epoch by exactly one",
                span=span,
                object_name=obj_name,
            )
        self._epochs[obj_name] = epoch

    def on_quorum(self, span: Span) -> None:
        if span.outcome != "ok" or "epoch" not in span.attrs:
            return
        obj_name = span.attrs.get("object")
        if obj_name is None or obj_name not in self._epochs:
            return
        epoch = span.attrs["epoch"]
        expected = self._epochs[obj_name]
        if epoch != expected:
            phase = span.attrs.get("phase", "?")
            self.report(
                f"{phase} quorum for {span.attrs.get('op', '?')} on "
                f"{obj_name!r} ran under epoch {epoch} but the current "
                f"configuration epoch is {expected} — a front-end is "
                "using a stale (superseded) quorum assignment",
                span=span,
                object_name=obj_name,
            )


class LockDisciplineMonitor(InvariantMonitor):
    """Executed events stay in synchronization state until commit/abort.

    Every scheme records executed events in
    ``SynchronizationState.active_events`` and releases them only in
    ``finalize_commit``/``finalize_abort`` — the runtime form of
    two-phase locking.  The monitor counts each transaction's executed
    operations per object and, at every operation completion, checks
    the synchronization state still holds at least that many events.

    Already a streaming fold: state is one counter per (object, *active*
    transaction) pair, dropped when the transaction ends — naturally
    windowed by transaction lifetime, nothing for a span window to miss.
    """

    name = "lock-discipline"

    def __init__(self) -> None:
        super().__init__()
        self._executed: dict[tuple[str, Any], int] = {}

    def state_cells(self) -> int:
        return len(self._executed)

    def on_operation(self, record: OperationRecord) -> None:
        key = (record.obj.name, record.txn.id)
        self._executed[key] = self._executed.get(key, 0) + 1
        held = len(record.obj.sync.active_events.get(record.txn.id, ()))
        expected = self._executed[key]
        if held < expected:
            self.report(
                f"transaction {record.txn.id} holds {held} event(s) on "
                f"{record.obj.name!r} after executing {expected} — an event "
                "was released before commit (two-phase locking broken)",
                span=record.span,
                object_name=record.obj.name,
            )

    def on_transaction_end(self, span: Span, txn: "Transaction") -> None:
        assert self.auditor is not None
        for obj_name, txn_id in [k for k in self._executed if k[1] == txn.id]:
            del self._executed[(obj_name, txn_id)]
            obj = self.auditor.object(obj_name)
            if obj is not None and txn.id in obj.sync.active_events:
                self.report(
                    f"transaction {txn.id} still holds events on "
                    f"{obj_name!r} after its span closed ({span.outcome})",
                    span=span,
                    object_name=obj_name,
                )


class TimestampOrderMonitor(InvariantMonitor):
    """Commit timestamps respect begin order and commit order.

    Hybrid atomicity serializes committed actions by their commit
    timestamps (Definition 3), which the transaction manager draws from
    a monotone Lamport clock — so each transaction's commit timestamp
    must strictly follow its begin timestamp, and commits observed in
    real order must carry strictly increasing timestamps.

    Already a streaming fold: O(1) state (the last commit seen) — a
    monotonicity check is incremental by nature, nothing for a span
    window to miss.
    """

    name = "timestamp-order"

    def __init__(self) -> None:
        super().__init__()
        self._last_commit: tuple[Any, Any] | None = None  # (ts, txn id)

    def state_cells(self) -> int:
        return 0 if self._last_commit is None else 1

    def on_transaction_end(self, span: Span, txn: "Transaction") -> None:
        if span.outcome != "committed":
            return
        if txn.commit_ts is None:
            self.report(
                f"transaction {txn.id} committed without a commit timestamp",
                span=span,
            )
            return
        if not txn.begin_ts < txn.commit_ts:
            self.report(
                f"commit timestamp {txn.commit_ts} of {txn.id} does not "
                f"follow its begin timestamp {txn.begin_ts} — the hybrid "
                "serialization position precedes the transaction's start",
                span=span,
            )
        if self._last_commit is not None:
            last_ts, last_id = self._last_commit
            if not last_ts < txn.commit_ts:
                self.report(
                    f"commit timestamp {txn.commit_ts} of {txn.id} is not "
                    f"after {last_ts} of previously committed {last_id} — "
                    "commit-timestamp order diverges from commit order",
                    span=span,
                )
        if self._last_commit is None or self._last_commit[0] < txn.commit_ts:
            self._last_commit = (txn.commit_ts, txn.id)


_BY_TS = attrgetter("ts.counter", "ts.site")  # Timestamp order, compared in C

#: The steps that can add log entries at the sites they serve.
WRITING_STEPS = frozenset({"quorum.final", "antientropy.sync", "reconfig.prime"})


def step_objects(span: Span):
    """The objects a step touched: an exchange's ``objects``, else its ``object``."""
    objects = span.attrs.get("objects")
    return (span.attrs.get("object"),) if objects is None else objects


class LogConsistencyMonitor(InvariantMonitor):
    """Replica logs never conflict: one entry per Lamport timestamp.

    Replicated logs are merged as timestamp-ordered set unions, so two
    correct replicas can lag each other but can never disagree — per
    object, each ``(counter, site)`` timestamp names at most one
    ``(action, event)`` entry across every repository.  The monitor
    folds every repository write into a per-object timestamp map
    (incrementally: each served site's log of each object a
    :data:`WRITING_STEPS` span touched, when that step closes) and
    sweeps all repositories once more at end of run.

    With ``window=W`` the canonical map becomes a sliding window over
    the W most recently first-seen timestamps per object.  Either way
    each replica is checked against the log scanned last, never against
    a retained union, so compacted entries are released.  A windowed
    divergence is caught unless the conflicting entry arrives after more
    than W newer timestamps were first seen — replicas that lag by less
    than the window are always checked exactly.
    """

    name = "log-consistency"
    step_names = WRITING_STEPS

    def __init__(self, *, window: int | None = None) -> None:
        super().__init__()
        self.window = window
        #: object -> timestamp -> the entry first seen there
        self._canonical: dict[str, OrderedDict[Any, Any]] = {}
        #: (site, object) -> the exact Log scanned last.  Logs grow by
        #: set-merge, so a previously verified entry can never *become*
        #: conflicting — a conflicting entry is by construction one we
        #: have not seen — and a repository's log is normally a superset
        #: on the entry table scanned last, so ``Log.fresh_since`` yields
        #: the unchecked entries as a mask difference.  The anchor is a
        #: mask over a table the repository's log shares: no history is
        #: held a second time, in either mode.
        self._last_log: dict[tuple[int, str], Any] = {}

    def state_cells(self) -> int:
        return sum(len(m) for m in self._canonical.values()) + len(
            self._last_log
        )

    def on_step(self, span: Span) -> None:
        assert self.auditor is not None
        repositories = self.auditor.repositories
        objects = step_objects(span)
        for site in span.attrs.get("served", ()):
            repo = repositories[site]
            for obj_name in objects:
                self._scan(obj_name, repo.peek_log(obj_name), site, span)

    def at_end(self) -> None:
        assert self.auditor is not None
        for site, repo in enumerate(self.auditor.repositories):
            for obj_name in repo.stored_objects():
                self._scan(obj_name, repo.peek_log(obj_name), site, None)

    def _scan(self, obj_name: str, log, site: int, span: Span | None) -> None:
        key = (site, obj_name)
        last = self._last_log.get(key, EMPTY_LOG)
        self._last_log[key] = log
        fresh = log.fresh_since(last)
        if fresh is None:
            # The repository's log moved to another table (snapshot
            # install, restart, union by size): diff against the last.
            fresh = log.entry_set - last.entry_set
        if not fresh:
            return
        canonical = self._canonical.setdefault(obj_name, OrderedDict())
        for entry in sorted(fresh, key=_BY_TS) if len(fresh) > 1 else fresh:
            seen = canonical.setdefault(entry.ts, entry)
            # Replicas share entry objects, so identity settles most.
            if seen is not entry and seen != entry:
                self.report(
                    f"replica logs diverge at timestamp {entry.ts}: site "
                    f"{site} holds {entry.event} for {entry.action}, another "
                    f"replica holds {seen.event} for {seen.action}",
                    span=span,
                    object_name=obj_name,
                )
        if self.window is not None:
            while len(canonical) > self.window:
                canonical.popitem(last=False)


class HistoryConsistencyMonitor(InvariantMonitor):
    """The live-captured history matches the runtime recorder's.

    The auditor rebuilds each object's behavioral history purely from
    the span stream; the runtime keeps its own
    :class:`~repro.replication.object.HistoryRecorder`.  At end of run
    the two must produce identical
    :class:`~repro.histories.behavioral.BehavioralHistory` values — the
    observability path is only trustworthy if it cannot drift from the
    system of record.

    Deep mode only (the comparison needs the full captured history).
    """

    name = "history-capture"

    def at_end(self) -> None:
        assert self.auditor is not None
        for name, obj in self.auditor.objects().items():
            captured = self.auditor.history(name)
            recorded = obj.recorder.to_behavioral_history()
            if captured != recorded:
                self.report(
                    f"live-captured history of {name!r} diverges from the "
                    f"runtime recorder ({len(captured)} vs {len(recorded)} "
                    "entries) — span-stream capture lost or reordered entries",
                    object_name=name,
                )


class SerializabilityMonitor(InvariantMonitor):
    """End-of-run one-copy serializability through the theory kernel.

    Serializes each object's committed actions in the order its scheme
    claims to enforce — begin-timestamp order for static atomicity,
    commit-timestamp order for hybrid and dynamic — and replays the
    result against the object's serial specification via its
    :class:`~repro.spec.legality.LegalityOracle`.  An illegal
    serialization means the run was not one-copy serializable in the
    scheme's order: the replicated object diverged from a single
    reliable copy.

    Deep mode only: it serializes the full captured history from the
    initial state.
    """

    name = "one-copy-serializability"

    def at_end(self) -> None:
        assert self.auditor is not None
        for name, obj in self.auditor.objects().items():
            history = self.auditor.history(name)
            order_kind = obj.cc.serialization_order
            if order_kind == "begin":
                order = [a for a in history.begin_order if a in history.committed]
            else:
                order = list(history.commit_order)
            serial = serialize(history, order)
            if obj.oracle.is_legal(serial):
                continue
            illegal_at = next(
                k
                for k in range(1, len(serial) + 1)
                if not obj.oracle.is_legal(serial[:k])
            )
            self.report(
                f"committed {order_kind}-order serialization of {name!r} is "
                f"illegal at event {illegal_at}/{len(serial)} "
                f"({serial[illegal_at - 1]}) — the run is not one-copy "
                "serializable",
                object_name=name,
            )


class PartialReplicationMonitor(InvariantMonitor):
    """No site logs, locks, or acks an operation for a shard it lacks.

    Sutra & Shapiro's *genuine partial replication*: a site only ever
    processes operations for the objects it replicates.  At bind time
    the monitor pins the cluster's compiled
    :class:`~repro.replication.keyspace.Placement` — object → holder
    sites — and then checks, online:

    * every site a protocol step served — whatever the step's outcome —
      holds every object the step touched (a read or write landing
      elsewhere means the router leaked an operation off its replica
      set);
    * every successful quorum — initial or final — is made up entirely
      of holder sites (a non-holder's ack must never help a quorum
      form).

    Like the other monitors it checks the configuration captured at
    attach time.  Under full placement it reads nothing: every served
    site and every quorum member is a repository, so every site it
    could name is a holder.
    """

    name = "genuine-partial-replication"

    def __init__(self) -> None:
        super().__init__()
        self._holders: dict[str, frozenset[int]] = {}

    def bind(self, auditor: "Auditor") -> None:
        super().bind(auditor)
        placement = auditor.placement()
        self._holders = {
            name: frozenset(placement.replicas(name))
            for name in placement.object_names()
        }
        partial = placement.is_partial
        self.step_names = None if partial else frozenset()
        self.reads_quorums = partial

    def on_step(self, span: Span) -> None:
        verb = "accepted a write of" if span.name in WRITING_STEPS else "served a read of"
        for obj_name in step_objects(span):
            holders = self._holders.get(obj_name, ())
            for site in span.attrs.get("served", ()) if holders else ():
                if site not in holders:
                    self.report(
                        f"site {site} {verb} {obj_name!r} but its replica set is "
                        f"{sorted(holders)} — the operation was routed to a "
                        "non-holding site (genuine partial replication broken)",
                        span=span,
                        object_name=obj_name,
                    )

    def on_quorum(self, span: Span) -> None:
        if span.outcome != "ok" or "quorum" not in span.attrs:
            return
        obj_name = span.attrs.get("object")
        holders = self._holders.get(obj_name) if obj_name is not None else None
        if holders is None:
            return
        members = frozenset(span.attrs["quorum"])
        strays = members - holders
        if strays:
            phase = span.attrs.get("phase", "?")
            self.report(
                f"{phase} quorum {sorted(members)} for "
                f"{span.attrs.get('op', '?')} on {obj_name!r} includes "
                f"non-holding site(s) {sorted(strays)} — replica set is "
                f"{sorted(holders)}",
                span=span,
                object_name=obj_name,
            )


def default_monitors() -> list[InvariantMonitor]:
    """The full stock monitor set, in check order."""
    return [
        QuorumIntersectionMonitor(),
        ReconfigEpochMonitor(),
        LockDisciplineMonitor(),
        TimestampOrderMonitor(),
        LogConsistencyMonitor(),
        HistoryConsistencyMonitor(),
        SerializabilityMonitor(),
        PartialReplicationMonitor(),
    ]


#: Default sliding-window size for streaming monitors.
DEFAULT_STREAM_WINDOW = 256


def streaming_monitors(
    window: int = DEFAULT_STREAM_WINDOW,
) -> list[InvariantMonitor]:
    """The O(window) online monitor set, in check order.

    Same invariant names and same verdicts as the corresponding deep
    monitors on any span stream whose relevant state fits the window
    (see each monitor's docstring for the exact guarantee).
    """
    return [
        QuorumIntersectionMonitor(window=window),
        ReconfigEpochMonitor(),
        LockDisciplineMonitor(),
        TimestampOrderMonitor(),
        LogConsistencyMonitor(window=window),
        PartialReplicationMonitor(),
    ]


# -- the report --------------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    """The auditor's verdict for one run."""

    violations: tuple[Violation, ...]
    suppressed: dict[str, int]
    monitors: tuple[str, ...]
    operations: int
    transactions: int
    spans_seen: int
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Audit mode that produced this report ("deep" or "streaming").
    mode: str = "deep"
    #: Sliding-window size (``None`` in deep mode).
    window: int | None = None
    #: Tracer retention at finish() time and its high-water mark —
    #: the retained-memory evidence bounded-memory claims rest on.
    retained_spans: int = 0
    peak_retained: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.suppressed

    @property
    def violated_invariants(self) -> tuple[str, ...]:
        names: list[str] = []
        for violation in self.violations:
            if violation.invariant not in names:
                names.append(violation.invariant)
        for name in sorted(self.suppressed):
            if name not in names:
                names.append(name)
        return tuple(names)

    def render(self) -> str:
        if self.ok:
            checked = ", ".join(self.monitors)
            return (
                f"audit: OK — {len(self.monitors)} invariants held "
                f"({checked}) over {self.operations} operations / "
                f"{self.transactions} transactions"
            )
        total = sum(v.count for v in self.violations) + sum(
            self.suppressed.values()
        )
        lines = [
            f"audit: FAIL — {total} violation(s) of "
            f"{', '.join(self.violated_invariants)} over "
            f"{self.operations} operations / {self.transactions} transactions",
            "",
        ]
        for violation in self.violations:
            lines.append(violation.render())
            lines.append("")
        for name, count in sorted(self.suppressed.items()):
            lines.append(
                f"[{name}] ... {count} further distinct violation(s) suppressed"
            )
        return "\n".join(lines).rstrip()

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "mode": self.mode,
            "window": self.window,
            "monitors": list(self.monitors),
            "operations": self.operations,
            "transactions": self.transactions,
            "spans_seen": self.spans_seen,
            "retained_spans": self.retained_spans,
            "peak_retained": self.peak_retained,
            "violated_invariants": list(self.violated_invariants),
            "violations": [v.to_dict() for v in self.violations],
            "suppressed": dict(self.suppressed),
            "metrics": self.registry.to_dict(),
        }


# -- the auditor -------------------------------------------------------------


class Auditor(TraceListener):
    """Attaches to a cluster's tracer and audits the run as it happens.

    ``cluster`` is anything with ``tracer``, ``tm``, and
    ``repositories`` attributes (normally a
    :class:`~repro.replication.cluster.Cluster`).  The tracer must be a
    real (enabled) tracer — the auditor *is* a trace listener, so there
    is nothing to audit on a :class:`~repro.obs.trace.NullTracer` run.

    Attach the auditor **before** the workload runs (and before any
    fault injection you want it to treat as suspect — monitors capture
    the declared configuration at attach time).  Call :meth:`finish`
    after the run for the end-of-run checks and the
    :class:`AuditReport`.

    ``mode="streaming"`` swaps the default monitor roster for
    :func:`streaming_monitors` (sliding windows of ``window``) and stops
    capturing per-object histories — auditor state becomes O(window +
    active transactions) regardless of run length.  Pair it with a
    ring-retention tracer for a fully bounded pipeline.
    """

    #: What some monitor has a hook for: the protocol steps (``quorum``,
    #: ``sync``, ``reconfig``, ``compaction``), operations, transactions
    #: and point events.
    span_kinds = frozenset(
        {"operation", "transaction", "quorum", "sync", "reconfig", "compaction", "event"}
    )

    def __init__(
        self,
        cluster,
        monitors: Sequence[InvariantMonitor] | None = None,
        *,
        mode: str = "deep",
        window: int = DEFAULT_STREAM_WINDOW,
        recent_events: int = 32,
        max_per_invariant: int = 10,
    ):
        tracer: Tracer = cluster.tracer
        if not tracer.enabled:
            raise ValueError(
                "the auditor needs an enabled Tracer; build the cluster with "
                "tracer=Tracer() (NullTracer records nothing to audit)"
            )
        if mode not in ("deep", "streaming"):
            raise ValueError(f"unknown audit mode {mode!r}")
        self._cluster = cluster
        self._tracer = tracer
        self._tm = cluster.tm
        self.repositories = tuple(cluster.repositories)
        self.mode = mode
        self.window = window if mode == "streaming" else None
        if monitors is not None:
            self._monitors = tuple(monitors)
        elif mode == "streaming":
            self._monitors = tuple(streaming_monitors(window))
        else:
            self._monitors = tuple(default_monitors())
        #: Streaming audits keep no per-object history recorders — that
        #: is precisely the state that grows with the run.
        self._capture_history = mode == "deep"
        self._recent: deque[Span] = deque(maxlen=recent_events)
        self._max_per_invariant = max_per_invariant
        self._violations: dict[tuple[str, str], Violation] = {}
        self._suppressed: dict[str, int] = {}
        self._txn_by_label: dict[str, Any] = {}
        self._recorders: dict[str, Any] = {}
        self.registry = MetricsRegistry()
        # Cached instruments: these fire per operation/transaction on
        # the hot listener path, so skip the registry lookup each time.
        self._ops_counter = self.registry.counter("audit.operations")
        self._txn_counter = self.registry.counter("audit.transactions")
        self.operations = 0
        self.transactions = 0
        #: The tracer's close count at attach: ``spans_seen`` starts here.
        self._closed_before = tracer.closed
        self._report: AuditReport | None = None
        for monitor in self._monitors:
            monitor.bind(self)
        # Per-hook dispatch lists: a monitor is entered only for the hooks
        # it (or a parent, through the MRO) implements and, for steps,
        # quorums and point events, only for what it declared it reads.
        def _overriding(hook: str) -> tuple:
            return tuple(
                monitor
                for monitor in self._monitors
                if getattr(type(monitor), hook)
                is not getattr(InvariantMonitor, hook)
            )

        self._operation_monitors = _overriding("on_operation")
        self._transaction_monitors = _overriding("on_transaction_end")
        self._quorum_monitors = tuple(
            m for m in _overriding("on_quorum") if m.reads_quorums
        )
        self._point_event_hooks, self._point_event_hooks_rest = routing_table(
            (monitor.point_events, monitor.on_point_event)
            for monitor in _overriding("on_point_event")
        )
        self._step_hooks, self._step_hooks_rest = routing_table(
            (monitor.step_names, monitor.on_step)
            for monitor in _overriding("on_step")
        )
        tracer.add_listener(self)

    # -- accessors for monitors --------------------------------------------

    def objects(self) -> dict[str, "ReplicatedObject"]:
        return self._tm.objects

    def object(self, name: str) -> "ReplicatedObject | None":
        return self._tm.objects.get(name)

    def placement(self):
        """The cluster's compiled placement."""
        return self._cluster.placement

    def history(self, object_name: str):
        """The live-captured behavioral history of one object."""
        from repro.replication.object import HistoryRecorder

        recorder = self._recorders.get(object_name)
        if recorder is None:
            recorder = HistoryRecorder()
        return recorder.to_behavioral_history()

    # -- violation intake ---------------------------------------------------

    def report_violation(
        self,
        invariant: str,
        message: str,
        *,
        span: Span | None = None,
        object_name: str | None = None,
    ) -> None:
        self.registry.counter("audit.violations").inc()
        self.registry.counter(f"audit.violations.{invariant}").inc()
        key = (invariant, message)
        existing = self._violations.get(key)
        if existing is not None:
            existing.count += 1
            return
        distinct = sum(1 for k in self._violations if k[0] == invariant)
        if distinct >= self._max_per_invariant:
            self._suppressed[invariant] = self._suppressed.get(invariant, 0) + 1
            return
        self._violations[key] = Violation(
            invariant=invariant,
            message=message,
            object_name=object_name,
            time=self._tracer.now,
            span_id=span.span_id if span is not None else None,
            forensics=self._capture_forensics(span),
        )
        self._tracer.event(
            "audit.violation",
            invariant=invariant,
            object=object_name,
            message=message,
        )

    def _capture_forensics(self, span: Span | None) -> Forensics:
        recent = tuple(self._recent)
        if span is None:
            return Forensics(recent_events=recent)
        children: dict[int, list[Span]] = {}
        for candidate in self._tracer.spans:
            if candidate.parent_id is not None:
                children.setdefault(candidate.parent_id, []).append(candidate)
        subtree: list[Span] = []
        truncated = False
        stack = [span]
        while stack:
            node = stack.pop()
            if len(subtree) >= SUBTREE_LIMIT:
                truncated = True
                break
            subtree.append(node)
            stack.extend(reversed(children.get(node.span_id, ())))
        return Forensics(
            spans=tuple(subtree), recent_events=recent, truncated=truncated
        )

    # -- TraceListener ------------------------------------------------------

    def on_span_end(self, span: Span) -> None:
        kind = span.kind
        if kind == "event":  # the commonest close, so tested first
            if span.name == "audit.violation":
                return
            self._recent.append(span)
            for hook in self._point_event_hooks.get(
                span.name, self._point_event_hooks_rest
            ):
                hook(span)
        elif kind == "operation":
            self._operation_closed(span)
        elif kind == "transaction":
            self._transaction_closed(span)
        else:  # a protocol step: its sites first, then a quorum's members
            for hook in self._step_hooks.get(span.name, self._step_hooks_rest):
                hook(span)
            if kind == "quorum":
                for monitor in self._quorum_monitors:
                    monitor.on_quorum(span)

    # -- dispatch -----------------------------------------------------------

    def _resolve_txn(self, label: str | None):
        if label is None:
            return None
        txn = self._txn_by_label.get(label)
        if txn is not None:
            return txn
        # Span labels are str(ActionId); parse and look up in O(1)
        # rather than rescanning the manager's transaction table (that
        # scan is quadratic over a long run).
        action = ActionId.parse(label)
        if action is not None:
            txn = self._tm.lookup(action)
        if txn is None:
            # Foreign label shape — fall back to the full scan once.
            for candidate in self._tm.transactions():
                self._txn_by_label.setdefault(str(candidate.id), candidate)
            return self._txn_by_label.get(label)
        self._txn_by_label[label] = txn
        return txn

    def _operation_closed(self, span: Span) -> None:
        if span.outcome != "ok":
            return
        obj = self.object(span.attrs.get("object"))
        txn = self._resolve_txn(span.attrs.get("txn"))
        if obj is None or txn is None:
            return
        entries = obj.sync.own_entries(txn.id)
        if not entries:
            # The operation protocol records the entry before the span
            # closes; an empty record means capture is broken.
            self.report_violation(
                "history-capture",
                f"operation span for {txn.id} on {obj.name!r} closed ok but "
                "no synchronization entry was recorded",
                span=span,
                object_name=obj.name,
            )
            return
        event = entries[-1].event
        self.operations += 1
        self._ops_counter.inc()
        if self._capture_history:
            from repro.replication.object import HistoryRecorder

            recorder = self._recorders.setdefault(obj.name, HistoryRecorder())
            recorder.record_op(txn, event)
        record = OperationRecord(span=span, obj=obj, txn=txn, event=event)
        for monitor in self._operation_monitors:
            monitor.on_operation(record)

    def _transaction_closed(self, span: Span) -> None:
        label = span.attrs.get("txn")
        txn = self._resolve_txn(label)
        if txn is None:
            return
        self.transactions += 1
        self._txn_counter.inc()
        committed = span.outcome == "committed"
        if self._capture_history:
            for name in span.attrs.get("objects", ()):
                recorder = self._recorders.get(name)
                if recorder is None:
                    continue
                if committed:
                    recorder.record_commit(txn)
                else:
                    recorder.record_abort(txn)
        for monitor in self._transaction_monitors:
            monitor.on_transaction_end(span, txn)
        if not self._capture_history and label is not None:
            # A finished transaction's label can never be resolved again.
            self._txn_by_label.pop(label, None)

    # -- lifecycle ----------------------------------------------------------

    def retained_state(self) -> dict[str, int]:
        """Live auditor state sizes (the streaming-boundedness evidence)."""
        return {
            "txn_labels": len(self._txn_by_label),
            "recorders": len(self._recorders),
            "recent_events": len(self._recent),
            "monitor_cells": sum(m.state_cells() for m in self._monitors),
        }

    def finish(self) -> AuditReport:
        """Run end-of-run checks, detach, and return the report."""
        if self._report is not None:
            return self._report
        for monitor in self._monitors:
            monitor.at_end()
        try:
            self._tracer.remove_listener(self)
        except ValueError:  # pragma: no cover - already detached
            pass
        retained = getattr(self._tracer, "retained_spans", 0)
        peak = getattr(self._tracer, "peak_retained", 0)
        self.registry.gauge("obs.retained_spans").set(float(retained))
        self.registry.gauge("obs.peak_retained").set(float(peak))
        self._report = AuditReport(
            violations=tuple(self._violations.values()),
            suppressed=dict(self._suppressed),
            monitors=tuple(m.name for m in self._monitors),
            operations=self.operations,
            transactions=self.transactions,
            spans_seen=self._tracer.closed - self._closed_before,
            registry=self.registry,
            mode=self.mode,
            window=self.window,
            retained_spans=retained,
            peak_retained=peak,
        )
        return self._report
