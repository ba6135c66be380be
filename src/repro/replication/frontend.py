"""Front-ends: the operation protocol of quorum consensus.

A client executes an operation by sending the invocation to a front-end.
The front-end merges the logs from an initial quorum for the invocation
to construct a view.  If the view indicates that no synchronization
conflicts exist, the front-end chooses a response legal for the view,
appends a timestamped entry to the view, and sends the updated view to a
final quorum of repositories for that event (paper, Section 3.2).

Front-ends can be replicated to an arbitrary extent — one per client
site — so object availability is dominated by repository quorums, which
is exactly what this implementation models: every read and write is an
RPC through the simulated network that can time out on crash, loss, or
partition.  A front-end folds every view afresh from its initial
quorum's replies (:func:`~repro.replication.viewcache.fold_view`); per
object it keeps only the plan its quorum rounds travel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from repro.clocks.lamport import LamportClock
from repro.errors import DegradedOperation, TransactionAborted, UnavailableError
from repro.histories.events import Invocation, Response
from repro.obs.trace import NULL_SPAN, Tracer
from repro.quorum.coterie import Coterie
from repro.replication.log import Log, LogEntry
from repro.replication.object import ReplicatedObject
from repro.replication.repository import Repository
from repro.replication.view import View
from repro.replication.viewcache import fold_view
from repro.resilience.policy import (
    Deadline,
    OperationResult,
    read_only_operations,
)
from repro.sim.network import GatherResult, Network
from repro.txn.ids import Transaction
from repro.txn.manager import TransactionManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quorum.assignment import QuorumAssignment
    from repro.replication.keyspace import Router


class _Plan(NamedTuple):
    """What a front-end resolves once per object and ``(assignment, epoch)``;
    ``stops`` maps a coterie to how a gather over ``route`` stops for it."""

    assignment: "QuorumAssignment"
    epoch: int
    route: tuple[int, ...]
    replicas: tuple[int, ...]
    stops: dict[Coterie, Callable[[frozenset[int]], bool] | int]


class FrontEnd:
    """One front-end, colocated with a client at ``site``.

    Args:
        site: the site this front-end (and its client) lives at.
        network: the simulated fabric its quorum RPCs travel.
        repositories: the replica set, indexed by site.
        tm: the shared transaction manager.
        router: the keyspace :class:`~repro.replication.keyspace.Router`
            resolving object → replica visit order.
        tracer: span sink; defaults to the network's (usually null).

    Operations run under the transaction manager's ``retry_policy``
    (set cluster-wide by :meth:`Cluster.enable_resilience`); while it is
    ``None`` quorum failures raise immediately (the pre-policy
    behaviour).
    """

    def __init__(
        self,
        site: int,
        network: Network,
        repositories: Sequence[Repository],
        tm: TransactionManager,
        router: "Router",
        *,
        tracer: Tracer | None = None,
    ):
        self.site = site
        self.network = network
        self.repositories = tuple(repositories)
        self.tm = tm
        self.clock = LamportClock(site=site)
        #: Span sink; defaults to the network's (usually null).
        self.tracer = tracer if tracer is not None else network.tracer
        #: Per-object plans, see :meth:`_plan`.
        self._plans: dict[str, _Plan] = {}
        #: Object → replica visit order.
        self.router = router
        #: Monotone retry sequence, part of the deterministic jitter key
        #: (never the simulator's RNG — retries must not perturb the
        #: seeded workload schedule).
        self._retry_seq = 0

    # -- the operation protocol -----------------------------------------------

    def execute(
        self, txn: Transaction, object_name: str, invocation: Invocation
    ) -> Response:
        """Execute one operation for ``txn``; returns the response.

        When the transaction manager's retry policy is in force,
        quorum-assembly failures first become bounded retries: the
        front-end backs off over simulated time (deterministic,
        seed-derived jitter) and reassembles the quorum until the
        policy's attempts or its per-operation deadline budget run out.
        Only then do the exceptions below escape.

        Raises :class:`~repro.errors.UnavailableError` when no initial
        quorum can be assembled (no side effects — with a policy, this
        already includes every allowed retry; the workload driver may
        still re-run the whole transaction, see
        ``RetryPolicy.txn_attempts``), :class:`~repro.errors.ConflictError`
        from the concurrency-control scheme (no side effects),
        :class:`~repro.errors.TransactionAborted` when the final-quorum
        write fails after a response was chosen (the transaction is
        aborted to keep the partially written entry harmless), and
        :class:`~repro.errors.DegradedOperation` when the policy's
        ``degraded_reads`` fallback served a read-only operation from
        the initial quorum alone (explicit, never silent; use
        :meth:`execute_outcome` to receive it as a result instead).

        Each call is one ``operation`` span, parented under the
        transaction's span, with its ``quorum`` phase spans nested
        beneath it (one per retry attempt), each naming the sites it
        ``attempted`` and the ones that ``served`` it; a degraded call
        closes its span with outcome ``"degraded"``.
        """
        if not self.tracer.enabled:
            # Untraced hot path: skip the span kwargs (txn stringification,
            # parent lookup) entirely — they dominate per-op overhead in
            # throughput baselines.
            return self._execute(txn, object_name, invocation, NULL_SPAN)
        with self.tracer.span(
            "operation",
            kind="operation",
            parent=self.tm.transaction_span(txn.id),
            site=self.site,
            op=invocation.op,
            object=object_name,
            txn=str(txn.id),
        ) as span:
            return self._execute(txn, object_name, invocation, span)

    def execute_outcome(
        self, txn: Transaction, object_name: str, invocation: Invocation
    ) -> OperationResult:
        """Execute one operation, surfacing degraded fallbacks as data.

        Returns an :class:`~repro.resilience.policy.OperationResult`;
        ``result.degraded`` is ``True`` when the response came from the
        read-quorum-only mode (the event was not logged and is not part
        of the transaction).  All other failures raise exactly as
        :meth:`execute` does.
        """
        try:
            response = self.execute(txn, object_name, invocation)
        except DegradedOperation as fallback:
            return OperationResult(
                response=fallback.response,
                degraded=True,
                attempts=fallback.attempts,
            )
        return OperationResult(response=response)

    def transact(
        self, operations: Sequence[tuple[str, Invocation]]
    ) -> tuple[Response, ...]:
        """Run a cross-object transaction: begin, execute all, commit.

        ``operations`` is a sequence of ``(object_name, invocation)``
        pairs executed in order under one transaction id; the objects
        may live on entirely different replica sets — the dependency
        relation and commit protocol are unchanged *per object*, and
        the two-phase commit spans exactly the objects touched.
        Returns the responses in operation order.

        Any failure aborts the whole transaction before the exception
        propagates: :class:`~repro.errors.UnavailableError` when a
        quorum cannot be assembled,
        :class:`~repro.errors.ConflictError` on a synchronization
        conflict, and :class:`~repro.errors.TransactionAborted` when
        certification vetoes the commit (or a final-quorum write failed
        mid-flight, in which case the transaction is already aborted).
        """
        txn = self.tm.begin(site=self.site)
        responses: list[Response] = []
        try:
            for object_name, invocation in operations:
                responses.append(self.execute(txn, object_name, invocation))
        except BaseException:
            if txn.is_active:
                self.tm.abort(txn, reason="transact failure")
            raise
        self.tm.commit(txn)
        return tuple(responses)

    def _execute(
        self, txn: Transaction, object_name: str, invocation: Invocation, span
    ) -> Response:
        obj = self.tm.object(object_name)
        policy = self.tm.retry_policy
        plan = self._plan(obj)
        initial = plan.assignment.initial(invocation)
        read = (obj, initial, invocation.op, plan.epoch)
        if policy is None:
            merged, base = self._read_quorum(*read)
        else:
            deadline = policy.deadline(self.network.sim)
            merged, base = self._retrying(policy, deadline, self._read_quorum, *read)
        own = obj.sync.own_entries(txn.id)
        if own:
            merged = merged.extended(own)
        view = View(merged, self.tm, base=base)
        latest = view.max_timestamp()
        if latest is not None:
            self.clock.witness(latest)
        if self.tracer.enabled:
            span.annotate(
                view_ts=None if latest is None else str(latest),
                view_entries=len(merged),
            )

        event = obj.cc.choose_event(view, txn, invocation, obj.sync)

        entry = LogEntry(self.clock.tick(), event, txn.id)
        final = plan.assignment.final(event)
        # Built once, outside the retry loop: a retry re-sends this same
        # log.
        update = view.log.add(entry)
        write = (obj, final, update, event, plan.epoch)
        try:
            if policy is None:
                self._write_quorum(*write)
            else:
                self._retrying(policy, deadline, self._write_quorum, *write)
        except UnavailableError as failure:
            if (
                policy is not None
                and policy.degraded_reads
                and invocation.op in read_only_operations(obj.datatype)
            ):
                # Read-quorum-only fallback: the response is legal for
                # the merged view; nothing is recorded in the
                # transaction's or object's synchronization state.  Log
                # fragments the failed write left at reachable sites are
                # tolerated *because* the operation is read-only: in
                # some views and not others it changes no state, which
                # is why mutators never take this path.  It holds no
                # lock, though, so a conflicting commit ordered in front
                # of it can make it illegal (see serialcache).
                if self.tracer.enabled:
                    span.annotate(missing=sorted(failure.missing))
                raise DegradedOperation(
                    invocation.op, event.res, policy.max_attempts
                ) from failure
            self.tm.abort(txn, reason=str(failure))
            raise TransactionAborted(txn.id, str(failure)) from failure

        obj.sync.record(txn.id, entry)
        obj.cc.on_executed(txn, event, obj.sync)
        txn.touched.add(object_name)
        obj.recorder.record_op(txn, event)
        if self.tracer.enabled:
            span.annotate(entry_ts=str(entry.ts), response=str(event.res))
        return event.res

    # -- retry machinery ---------------------------------------------------

    def _retrying(self, policy, deadline: Deadline | None, phase: Callable, *args):
        """Run ``phase(*args)`` under the policy's bounded-retry loop.

        Backoff advances *simulated* time and drains the event queue, so
        scheduled recoveries and heals due within the wait actually fire
        — which is what makes retrying worthwhile at all.  With no
        policy a phase is called directly, not through here.
        """
        attempt = 1
        while True:
            try:
                return phase(*args)
            except UnavailableError:
                if not policy.allows(attempt, deadline):
                    raise
                self._retry_seq += 1
                delay = policy.backoff(attempt, key=(self.site, self._retry_seq))
                sim = self.network.sim
                sim.advance(delay)
                sim.drain()
                attempt += 1

    # -- quorum assembly ---------------------------------------------------------

    def _assignment_of(
        self, obj: ReplicatedObject
    ) -> tuple["QuorumAssignment", int]:
        """The quorum assignment (and its epoch) this operation runs under.

        Resolved exactly once per operation, so both quorum phases use
        the same configuration even if a reconfiguration lands between
        them (it cannot — the simulation is single-threaded — but the
        single resolution point is also what the ``stale-assignment``
        audit mutation patches to model a front-end that missed a
        reconfiguration and keeps using superseded quorums).
        """
        return obj.assignment, obj.epoch

    def _plan(self, obj: ReplicatedObject) -> _Plan:
        """``obj``'s plan under what :meth:`_assignment_of` resolves: the
        one kept while it matches, else a new one."""
        assignment, epoch = self._assignment_of(obj)
        name = obj.name
        plan = self._plans.get(name)
        if plan is None or plan.assignment is not assignment or plan.epoch != epoch:
            # Replica visit order: locality first, then round-robin.
            route = self.router.route(self.site, name)
            plan = _Plan(assignment, epoch, route, self.router.replicas(name), {})
            self._plans[name] = plan
        return plan

    def forget(self, object_name: str) -> None:
        """Drop the plan kept for ``object_name``."""
        self._plans.pop(object_name, None)

    def _read_quorum(
        self, obj: ReplicatedObject, coterie: Coterie, op_name: str, epoch: int = 0
    ) -> tuple[Log, object]:
        """Merge logs (and the best compaction snapshot) from an initial quorum.

        Returns ``(log, snapshot_or_None)`` folded afresh from the
        replies (:func:`~repro.replication.viewcache.fold_view`); entries
        covered by the snapshot are filtered out (a lagging repository
        may still hold them).
        """
        repositories, name = self.repositories, obj.name
        outcome = self._round(
            obj, coterie, lambda site: repositories[site].read_fragment(name),
            op_name, "initial", epoch,
        )
        if outcome is None:
            return Log(), None
        return fold_view(outcome.received)

    def _write_quorum(
        self, obj: ReplicatedObject, coterie: Coterie, update: Log, event,
        epoch: int = 0,
    ) -> None:
        """Write the updated view until a final quorum acknowledges."""
        repositories, name = self.repositories, obj.name
        self._round(
            obj,
            coterie,
            lambda site: repositories[site].write_log(name, update),
            event.inv.op, "final", epoch, res_kind=event.res.kind,
        )

    def _round(
        self, obj: ReplicatedObject, coterie: Coterie, handler, op: str, phase: str,
        epoch: int, span=None, **attrs,
    ) -> GatherResult | None:
        """One quorum phase over ``obj``'s plan (``None``: the empty set is
        a quorum), its span stamped with the ``epoch`` ``coterie`` was
        resolved under, for the auditor's ``reconfig-epoch`` monitor."""
        if span is None and self.tracer.enabled:
            # Traced: re-enter inside the span.  Untraced, nothing builds
            # span kwargs or eager annotate arguments (sorted() renderings).
            with self.tracer.span(
                f"quorum.{phase}", kind="quorum", site=self.site, phase=phase, op=op,
                object=obj.name, **attrs, epoch=epoch,
            ) as span:
                return self._round(obj, coterie, handler, op, phase, epoch, span)
        plan = self._plans.get(obj.name) or self._plan(obj)
        stop = plan.stops.get(coterie)
        if stop is None:
            stop = plan.stops[coterie] = coterie.stop_for(plan.route)
        if not stop:  # the empty set is a quorum
            if span is not None:
                span.annotate(quorum=())
            return None
        outcome = self.network.gather(self.site, plan.route, handler, stop=stop)
        conclude_step(span, outcome, coterie.has_quorum, op, plan.replicas)
        return outcome


def conclude_step(
    span, outcome: GatherResult, enough: Callable[[frozenset[int]], bool],
    op: str, pool: Iterable[int],
) -> None:
    """Close one quorum round of a protocol step (paper, Section 3.2).

    The step's span names the sites the round ``attempted`` and that
    ``served`` it.  When ``enough`` holds for the responders it names
    them as its ``quorum``; otherwise it names the ``responders`` and
    the sites of ``pool`` (the object's replica set) left ``missing``,
    and :class:`~repro.errors.UnavailableError` is raised for ``op``.
    Front-ends, reconfiguration and compaction all close through this;
    ``span`` is ``None`` on the untraced path, which renders nothing.
    """
    responders = outcome.responders
    if span is not None:
        span.annotate(attempted=list(outcome.attempted), served=list(outcome.served))
    if enough(responders):
        if span is not None:
            span.annotate(quorum=sorted(responders))
        return
    missing = frozenset(pool) - responders
    if span is not None:
        span.annotate(responders=sorted(responders), missing=sorted(missing))
    raise UnavailableError(op, missing)
