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
partition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.clocks.lamport import LamportClock
from repro.errors import DegradedOperation, TransactionAborted, UnavailableError
from repro.histories.events import Invocation, Response
from repro.obs.trace import NULL_SPAN, Tracer
from repro.quorum.coterie import Coterie
from repro.replication.log import Log, LogEntry
from repro.replication.object import ReplicatedObject
from repro.replication.repository import Repository
from repro.replication.serialcache import (
    CACHE_FOR_ORDER,
    BeginOrderCache,
    SerialPrefixCache,
)
from repro.replication.view import View
from repro.replication.viewcache import QuorumViewCache
from repro.resilience.policy import (
    Deadline,
    OperationResult,
    RetryPolicy,
    read_only_operations,
)
from repro.sim.network import Network
from repro.txn.ids import Transaction
from repro.txn.manager import TransactionManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quorum.assignment import QuorumAssignment
    from repro.replication.keyspace import Router


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
        retry_policy: this front-end's
            :class:`~repro.resilience.policy.RetryPolicy`; when ``None``
            the transaction manager's ``retry_policy`` applies, and when
            that is also ``None`` quorum failures raise immediately (the
            pre-policy behaviour).
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
        retry_policy: RetryPolicy | None = None,
    ):
        self.site = site
        self.network = network
        self.repositories = tuple(repositories)
        self.tm = tm
        self.clock = LamportClock(site=site)
        #: Span sink; defaults to the network's (usually null).
        self.tracer = tracer if tracer is not None else network.tracer
        #: Incremental view-merge cache over initial-quorum replies.
        self.view_cache = QuorumViewCache()
        #: Per-object incremental serializations (commit- or begin-order,
        #: by the object's scheme), threaded through every view.
        self.serial_caches: dict[str, SerialPrefixCache | BeginOrderCache] = {}
        #: Per-front-end policy override; see :meth:`effective_policy`.
        self.retry_policy = retry_policy
        #: Optional ``(object_name, op_name)`` callback fired once per
        #: successfully executed operation — the feed for the tuning
        #: layer's windowed read/write-mix counters.  ``None`` costs one
        #: attribute check per op on the hot path.
        self.op_observer: Callable[[str, str], None] | None = None
        #: Object → replica visit order.
        self.router = router
        #: Monotone retry sequence, part of the deterministic jitter key
        #: (never the simulator's RNG — retries must not perturb the
        #: seeded workload schedule).
        self._retry_seq = 0

    def effective_policy(self) -> RetryPolicy | None:
        """The retry policy governing this front-end's operations.

        Resolution order: this front-end's own ``retry_policy``, then
        the transaction manager's (set cluster-wide by
        :meth:`Cluster.enable_resilience`), then ``None`` — no retries,
        no deadline, no degraded fallback.
        """
        if self.retry_policy is not None:
            return self.retry_policy
        return getattr(self.tm, "retry_policy", None)

    # -- the operation protocol -----------------------------------------------

    def execute(
        self, txn: Transaction, object_name: str, invocation: Invocation
    ) -> Response:
        """Execute one operation for ``txn``; returns the response.

        When a retry policy is in force (:meth:`effective_policy`),
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
        transaction's span, with ``quorum`` phase and per-repository
        ``rpc`` spans nested beneath it (one ``quorum`` span per retry
        attempt); a degraded call closes its span with outcome
        ``"degraded"``.
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
        policy = self.effective_policy()
        deadline = policy.deadline(self.network.sim) if policy is not None else None
        assignment, epoch = self._assignment_of(obj)
        initial = assignment.initial(invocation)
        merged, base = self._retrying(
            lambda: self._read_quorum(obj, initial, invocation.op, epoch),
            policy,
            deadline,
        )
        own = obj.sync.own_entries(txn.id)
        if own:
            merged = merged.extended(own)
        serial_cache = self.serial_caches.get(object_name)
        if serial_cache is None:
            serial_cache = self.serial_caches[object_name] = CACHE_FOR_ORDER[
                obj.cc.serialization_order
            ]()
        view = View(merged, self.tm, base=base, serial_cache=serial_cache)
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
        final = assignment.final(event)
        # Built once, outside the retry loop: this appends ``entry`` to
        # the view cache's own store, and a retry must re-send that same
        # version, not fork another.  If no final quorum ever
        # acknowledges, the cached union is still the shorter version it
        # was — the unacknowledged entry sits beyond its end.
        update = view.log.add(entry)
        try:
            self._retrying(
                lambda: self._write_quorum(obj, final, update, event, epoch),
                policy,
                deadline,
            )
        except UnavailableError as failure:
            if (
                policy is not None
                and policy.degraded_reads
                and invocation.op in self._read_only_ops(obj, policy)
            ):
                # Read-quorum-only fallback: the response is legal for
                # the merged view; nothing is recorded in the
                # transaction's or object's synchronization state.  Log
                # fragments the failed write left at reachable sites are
                # harmless *because* the operation is read-only — a
                # state-preserving event can appear in some views and
                # not others without changing any history's legality,
                # which is exactly why mutators never take this path.
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
        if self.op_observer is not None:
            self.op_observer(object_name, invocation.op)
        if self.tracer.enabled:
            span.annotate(entry_ts=str(entry.ts), response=str(event.res))
        return event.res

    # -- retry machinery ---------------------------------------------------

    def _retrying(self, call: Callable, policy, deadline: Deadline | None):
        """Run one quorum phase under the policy's bounded-retry loop.

        Backoff advances *simulated* time and drains the event queue, so
        scheduled recoveries and heals due within the wait actually fire
        — which is what makes retrying worthwhile at all.  With no
        policy this is a plain call.
        """
        attempt = 1
        while True:
            try:
                return call()
            except UnavailableError:
                if policy is None or not policy.allows(attempt, deadline):
                    raise
                self._retry_seq += 1
                delay = policy.backoff(attempt, key=(self.site, self._retry_seq))
                sim = self.network.sim
                sim.advance(delay)
                sim.drain()
                attempt += 1

    def _read_only_ops(self, obj: ReplicatedObject, policy) -> frozenset[str]:
        """Operations eligible for the degraded-read fallback."""
        if policy.read_only_ops is not None:
            return policy.read_only_ops
        return read_only_operations(obj.datatype)

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

    def _site_order(self, obj: ReplicatedObject) -> tuple[int, ...]:
        """Replica visit order for ``obj``: locality first, then round-robin."""
        return self.router.route(self.site, obj.name)

    def _replica_set(self, obj: ReplicatedObject) -> frozenset[int]:
        """The sites that could have answered a quorum probe for ``obj``."""
        return frozenset(self.router.replicas(obj.name))

    def _read_quorum(
        self, obj: ReplicatedObject, coterie: Coterie, op_name: str, epoch: int = 0
    ) -> tuple[Log, object]:
        """Merge logs (and the best compaction snapshot) from an initial quorum.

        Returns ``(log, snapshot_or_None)``; entries covered by the
        snapshot are filtered out (a lagging repository may still hold
        them).  Probes overlap their latencies through
        :meth:`Network.gather` and the replies feed the incremental
        view-merge cache.  ``epoch`` is the configuration epoch the
        caller resolved the coterie under; it is stamped onto the traced
        quorum span for the auditor's ``reconfig-epoch`` monitor.
        """
        if not self.tracer.enabled:
            # Untraced hot path: no span kwargs, no eager annotate
            # arguments (the sorted() renderings dominate otherwise).
            return self._read_quorum_impl(obj, coterie, op_name, None)
        with self.tracer.span(
            "quorum.initial",
            kind="quorum",
            site=self.site,
            phase="initial",
            op=op_name,
            object=obj.name,
            epoch=epoch,
        ) as span:
            return self._read_quorum_impl(obj, coterie, op_name, span)

    def _read_quorum_impl(
        self, obj: ReplicatedObject, coterie: Coterie, op_name: str, span
    ) -> tuple[Log, object]:
        if coterie.has_quorum(frozenset()):
            if span is not None:
                span.annotate(quorum=())
            return Log(), None
        name = obj.name
        repositories = self.repositories
        outcome = self.network.gather(
            self.site,
            self._site_order(obj),
            lambda site: (
                repositories[site].read_log(name),
                repositories[site].read_snapshot(name),
                repositories[site].log_version(name),
            ),
            stop=coterie.has_quorum,
        )
        responders = outcome.responders
        if not coterie.has_quorum(responders):
            missing = self._replica_set(obj) - responders
            if span is not None:
                span.annotate(
                    responders=sorted(responders), missing=sorted(missing)
                )
            raise UnavailableError(op_name, missing)
        merged, best = self.view_cache.merged_view(name, outcome.in_attempt_order())
        if span is not None:
            span.annotate(quorum=sorted(responders))
        return merged, best

    def _write_quorum(
        self, obj: ReplicatedObject, coterie: Coterie, update: Log, event,
        epoch: int = 0,
    ) -> None:
        """Write the updated view until a final quorum acknowledges."""
        if not self.tracer.enabled:
            return self._write_quorum_impl(obj, coterie, update, event, None)
        with self.tracer.span(
            "quorum.final",
            kind="quorum",
            site=self.site,
            phase="final",
            op=event.inv.op,
            object=obj.name,
            res_kind=event.res.kind,
            epoch=epoch,
        ) as span:
            return self._write_quorum_impl(obj, coterie, update, event, span)

    def _write_quorum_impl(
        self, obj: ReplicatedObject, coterie: Coterie, update: Log, event, span
    ) -> None:
        if coterie.has_quorum(frozenset()):
            if span is not None:
                span.annotate(quorum=())
            return
        name = obj.name
        repositories = self.repositories
        outcome = self.network.gather(
            self.site,
            self._site_order(obj),
            # The version pair is captured atomically around the
            # write so the view cache can prove, from the ack alone,
            # that nothing else touched the fragment since our read.
            lambda site: (
                repositories[site].log_version(name),
                repositories[site].write_log(name, update),
            ),
            stop=coterie.has_quorum,
        )
        acks = outcome.responders
        if not coterie.has_quorum(acks):
            missing = self._replica_set(obj) - acks
            if span is not None:
                span.annotate(responders=sorted(acks), missing=sorted(missing))
            raise UnavailableError(event.inv.op, missing)
        self.view_cache.note_write(name, update, outcome.in_attempt_order())
        if span is not None:
            span.annotate(quorum=sorted(acks))
