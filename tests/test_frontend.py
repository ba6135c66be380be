"""Tests for the front-end operation protocol: quorums, failures, views."""

import pytest

from repro.errors import TransactionAborted, UnavailableError
from repro.histories.events import Invocation, ok, signal
from repro.obs.trace import Tracer
from repro.quorum.assignment import OperationQuorums, QuorumAssignment
from repro.quorum.coterie import EmptyCoterie, ThresholdCoterie
from repro.replication.frontend import FrontEnd
from repro.replication.keyspace import ObjectSpec
from repro.sim.network import Network
from repro.types import Queue
from tests.helpers import cluster_of, prom_system, queue_system

ENQ_A = Invocation("Enq", ("a",))
DEQ = Invocation("Deq")


def _rendered(entries) -> list[str]:
    """Log entries as sorted ``"counter.site event action"`` strings."""
    return sorted(
        f"{entry.ts.counter}.{entry.ts.site} {entry.event} {entry.action}"
        for entry in entries
    )


class TestHappyPath:
    def test_entries_reach_final_quorum(self):
        cluster, obj = queue_system("hybrid")
        fe = cluster.frontends[0]
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", ENQ_A)
        cluster.tm.commit(txn)
        # Majority final quorum: at least 2 of 3 repositories store it.
        stored = sum(
            1 for repo in cluster.repositories if repo.entry_count("obj") == 1
        )
        assert stored >= 2

    def test_read_your_writes_within_transaction(self):
        cluster, _obj = queue_system("hybrid")
        fe = cluster.frontends[0]
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", ENQ_A)
        assert fe.execute(txn, "obj", DEQ) == ok("a")

    def test_cross_frontend_visibility_after_commit(self):
        cluster, _obj = queue_system("hybrid")
        writer, reader = cluster.frontends[0], cluster.frontends[2]
        txn = cluster.tm.begin(0)
        writer.execute(txn, "obj", ENQ_A)
        cluster.tm.commit(txn)
        txn2 = cluster.tm.begin(2)
        assert reader.execute(txn2, "obj", DEQ) == ok("a")

    def test_lamport_clock_witnesses_view(self):
        cluster, _obj = queue_system("hybrid")
        first, second = cluster.frontends[0], cluster.frontends[1]
        txn = cluster.tm.begin(0)
        first.execute(txn, "obj", ENQ_A)
        cluster.tm.commit(txn)
        txn2 = cluster.tm.begin(1)
        second.execute(txn2, "obj", ENQ_A)
        # second's entry must be timestamped after first's.
        logs = [repo.read_log("obj") for repo in cluster.repositories]
        merged = logs[0]
        for log in logs[1:]:
            merged = merged.merge(log)
        stamps = [entry.ts for entry in merged.ordered()]
        assert stamps == sorted(stamps) and len(set(stamps)) == len(stamps)


class TestUnavailability:
    def test_initial_quorum_unreachable(self):
        cluster, _obj = queue_system("hybrid")
        for site in (1, 2):
            cluster.network.crash(site)
        fe = cluster.frontends[0]
        txn = cluster.tm.begin(0)
        with pytest.raises(UnavailableError):
            fe.execute(txn, "obj", ENQ_A)
        assert txn.is_active  # no side effects; caller may retry

    def test_partition_blocks_minority_side(self):
        cluster, _obj = queue_system("hybrid")
        cluster.network.partition({0}, {1, 2})
        minority = cluster.frontends[0]
        txn = cluster.tm.begin(0)
        with pytest.raises(UnavailableError):
            minority.execute(txn, "obj", ENQ_A)

    def test_majority_side_keeps_working(self):
        cluster, _obj = queue_system("hybrid")
        cluster.network.partition({0}, {1, 2})
        majority_fe = cluster.frontends[1]
        txn = cluster.tm.begin(1)
        assert majority_fe.execute(txn, "obj", ENQ_A) == ok()

    def test_final_quorum_failure_aborts_transaction(self):
        """Crash the other sites between the read and the write phases.

        With a 1-site initial quorum and an all-sites final quorum, the
        read succeeds from the local site but the write cannot assemble
        its final quorum, so the transaction aborts.
        """
        from repro.types import Queue
        from tests.helpers import refused_layout_system

        n = 3
        assignment = QuorumAssignment(
            n,
            {
                "Enq": OperationQuorums(
                    initial=ThresholdCoterie(n, 1), final=ThresholdCoterie(n, n)
                ),
                "Deq": OperationQuorums(
                    initial=ThresholdCoterie(n, n), final=ThresholdCoterie(n, 1)
                ),
            },
        )
        cluster, _obj = refused_layout_system(Queue(), assignment, n_sites=n)
        cluster.network.crash(1)
        cluster.network.crash(2)
        fe = cluster.frontends[0]
        txn = cluster.tm.begin(0)
        with pytest.raises(TransactionAborted):
            fe.execute(txn, "obj", ENQ_A)
        assert not txn.is_active

    def test_recovery_restores_service(self):
        cluster, _obj = queue_system("hybrid")
        for site in (1, 2):
            cluster.network.crash(site)
        fe = cluster.frontends[0]
        txn = cluster.tm.begin(0)
        with pytest.raises(UnavailableError):
            fe.execute(txn, "obj", ENQ_A)
        for site in (1, 2):
            cluster.network.recover(site)
        assert fe.execute(txn, "obj", ENQ_A) == ok()


class TestFailedFinalQuorum:
    """A final quorum that never acknowledges leaves the front-end's
    cached view logically untouched (its store did receive the entry)."""

    ENQ_B = Invocation("Enq", ("b",))

    @staticmethod
    def _read_one_write_all():
        """Enq reads one site and writes all; Deq reads all, writes one."""
        from repro.types import Queue
        from tests.helpers import refused_layout_system

        n = 3
        assignment = QuorumAssignment(
            n,
            {
                "Enq": OperationQuorums(
                    initial=ThresholdCoterie(n, 1), final=ThresholdCoterie(n, n)
                ),
                "Deq": OperationQuorums(
                    initial=ThresholdCoterie(n, n), final=ThresholdCoterie(n, 1)
                ),
            },
        )
        cluster, _obj = refused_layout_system(Queue(), assignment, n_sites=n)
        return cluster

    def _timed_out_write_then_success(self, monkeypatch):
        """Views seen, responses and final repository logs of: a committed
        Enq, an Enq whose final quorum times out, two more operations;
        entry sets come back :func:`_rendered`."""
        from repro.replication import frontend as frontend_module
        from repro.replication.view import View

        views: list[frozenset] = []

        class RecordingView(View):
            def __init__(self, log, *args, **kwargs):
                views.append(log.entry_set)
                super().__init__(log, *args, **kwargs)

        monkeypatch.setattr(frontend_module, "View", RecordingView)
        cluster = self._read_one_write_all()
        fe, tm = cluster.frontends[0], cluster.tm
        responses = []

        txn = tm.begin(0)
        responses.append(fe.execute(txn, "obj", ENQ_A))
        tm.commit(txn)

        cached = fe.view_cache._entries["obj"].raw
        held = cached.entry_set
        cluster.network.crash(1)
        cluster.network.crash(2)
        txn = tm.begin(0)
        with pytest.raises(TransactionAborted):
            fe.execute(txn, "obj", self.ENQ_B)  # site 0 acks, 1 and 2 time out
        unacknowledged = cluster.repositories[0].peek_log("obj").entry_set - held
        assert len(unacknowledged) == 1
        assert fe.view_cache._entries["obj"].raw is cached
        assert cached.entry_set == held and len(cached) == len(held)
        assert not any(entry in cached for entry in unacknowledged)
        cluster.network.recover(1)
        cluster.network.recover(2)

        txn = tm.begin(0)
        responses.append(fe.execute(txn, "obj", ENQ_A))
        responses.append(fe.execute(txn, "obj", DEQ))
        tm.commit(txn)
        stored = [repo.peek_log("obj").entry_set for repo in cluster.repositories]
        return [_rendered(view) for view in views], responses, [
            _rendered(log) for log in stored
        ]

    def test_next_operation_sees_the_view_a_fresh_merge_sees(self, monkeypatch):
        # Written out from a one-request-at-a-time front-end that merged
        # every view from scratch: the aborted Enq('b') stays in site 0's
        # log and in every later view, so the Deq still returns 'a'.
        views, responses, stored = self._timed_out_write_then_success(monkeypatch)
        enq_a = "1.0 Enq('a');Ok() T1@0"
        enq_b = "3.0 Enq('b');Ok() T2@0"
        enq_a2 = "5.0 Enq('a');Ok() T3@0"
        deq = "7.0 Deq();Ok('a') T3@0"
        assert views == [[], [enq_a], [enq_a, enq_b], [enq_a, enq_b, enq_a2]]
        assert responses == [ok(), ok(), ok("a")]
        assert stored == [
            [enq_a, enq_b, enq_a2, deq],
            [enq_a, enq_b, enq_a2],
            [enq_a, enq_b, enq_a2],
        ]

    def test_retries_resend_the_update_built_once(self, monkeypatch):
        from repro.replication.frontend import FrontEnd
        from repro.resilience.policy import RetryPolicy

        cluster = self._read_one_write_all()
        fe = cluster.frontends[0]
        cluster.tm.retry_policy = RetryPolicy(max_attempts=4, op_budget=None)
        sent = []
        write_quorum = FrontEnd._write_quorum

        def recording(self, obj, coterie, update, event, epoch=0):
            sent.append(update)
            return write_quorum(self, obj, coterie, update, event, epoch)

        monkeypatch.setattr(FrontEnd, "_write_quorum", recording)
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", ENQ_A)
        cached = fe.view_cache._entries["obj"].raw
        cluster.network.crash(2)
        # Back while the front-end is backing off from the first attempt.
        cluster.sim.schedule(6.0, lambda: cluster.network.recover(2))
        assert fe.execute(txn, "obj", self.ENQ_B) == ok()
        cluster.tm.commit(txn)
        assert len(sent) >= 3 and fe._retry_seq >= 1
        assert all(update is sent[1] for update in sent[1:])
        # ... and that one update is the next version of the cached view.
        assert len(sent[1].fresh_since(cached)) == 1
        assert all(repo.entry_count("obj") == 2 for repo in cluster.repositories)


class TestQuorumSemantics:
    def test_empty_initial_coterie_reads_nothing(self):
        """An operation depending on nothing needs no view and no I/O."""
        from repro.types import LogObject
        from repro.dependency.relation import DependencyRelation
        from tests.helpers import small_system

        n = 3
        assignment = QuorumAssignment(
            n,
            {
                "Append": OperationQuorums(
                    initial=EmptyCoterie(n), final=ThresholdCoterie(n, n)
                ),
                "Size": OperationQuorums(
                    initial=ThresholdCoterie(n, 1), final=EmptyCoterie(n)
                ),
                "Last": OperationQuorums(
                    initial=ThresholdCoterie(n, 1), final=EmptyCoterie(n)
                ),
            },
        )
        cluster, _obj = small_system(
            LogObject(), "hybrid", DependencyRelation(), n_sites=n,
            assignment=assignment,
        )
        # Appends work even with every *other* site crashed?  No: the
        # final quorum needs all three.  But the initial read is free.
        fe = cluster.frontends[0]
        before = cluster.network.messages_sent
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", Invocation("Append", ("a",)))
        # 3 write RPCs (2 messages each), no read RPCs.
        assert cluster.network.messages_sent - before == 6

    def test_site_order_starts_locally(self):
        cluster, obj = queue_system("hybrid")
        fe = cluster.frontends[1]
        assert fe._plan(obj).route[0] == 1


def _threshold_layout(n_sites: int, initial: int, final: int) -> QuorumAssignment:
    quorums = OperationQuorums(
        initial=ThresholdCoterie(n_sites, initial),
        final=ThresholdCoterie(n_sites, final),
    )
    return QuorumAssignment(n_sites, {"Enq": quorums, "Deq": quorums})


class TestPlan:
    """A front-end resolves one plan per object and configuration."""

    @staticmethod
    def _gathers(monkeypatch):
        """Record each ``Network.gather``'s visit order and stop."""
        calls = []
        gather = Network.gather

        def recording(self, src, dsts, handler, *, stop=None):
            calls.append((tuple(dsts), stop))
            return gather(self, src, dsts, handler, stop=stop)

        monkeypatch.setattr(Network, "gather", recording)
        return calls

    def test_reconfigure_replaces_the_plan_and_the_next_round_follows_it(
        self, monkeypatch
    ):
        tracer = Tracer()
        cluster = cluster_of(
            5, ObjectSpec("queue", Queue(), assignment=_threshold_layout(5, 3, 3)),
            tracer=tracer,
        )
        fe, obj = cluster.frontends[1], cluster.tm.object("queue")
        route = cluster.router.route(1, "queue")
        gathers = self._gathers(monkeypatch)
        fe.transact([("queue", ENQ_A)])
        before = fe._plans["queue"]
        assert (before.epoch, before.route) == (0, route)
        assert gathers == [(route, 3), (route, 3)]

        assert cluster.reconfigure("queue", _threshold_layout(5, 2, 4))
        assert "queue" not in fe._plans  # forgotten at the switch
        del gathers[:]
        first = len(tracer.spans)
        fe.transact([("queue", DEQ)])
        after = fe._plans["queue"]
        assert after is not before and after.assignment is obj.assignment
        assert (after.epoch, after.route) == (1, route)
        # The new thresholds stop each round on a count, over the route.
        assert gathers == [(route, 2), (route, 4)]
        spans = {
            span.name: span.attrs
            for span in tracer.spans[first:]
            if span.kind == "quorum"
        }
        assert spans["quorum.initial"]["epoch"] == spans["quorum.final"]["epoch"] == 1
        assert spans["quorum.initial"]["attempted"] == list(route[:2])
        assert spans["quorum.final"]["attempted"] == list(route[:4])

    def test_a_swapped_assignment_replaces_the_plan(self):
        cluster, obj = queue_system("hybrid")
        fe = cluster.frontends[0]
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", ENQ_A)
        before = fe._plans["obj"]
        assert fe._plan(obj) is before  # kept while the configuration holds
        # Installed without a reconfiguration, as a mutation would: the
        # epoch stays, the plan follows the assignment all the same.
        read_one_write_all = OperationQuorums(
            initial=ThresholdCoterie(3, 1), final=ThresholdCoterie(3, 3)
        )
        obj.assignment = QuorumAssignment(
            3, {name: read_one_write_all for name in obj.assignment.operation_names}
        )
        assert fe.execute(txn, "obj", DEQ) == ok("a")
        after = fe._plans["obj"]
        assert after is not before and after.assignment is obj.assignment
        assert after.epoch == before.epoch

    def test_an_epoch_bump_alone_replaces_the_plan(self):
        tracer = Tracer()
        cluster = cluster_of(3, ObjectSpec("queue", Queue()), tracer=tracer)
        fe, obj = cluster.frontends[0], cluster.tm.object("queue")
        fe.transact([("queue", ENQ_A)])
        before = fe._plans["queue"]
        obj.epoch += 1
        fe.transact([("queue", DEQ)])
        assert fe._plans["queue"] is not before
        assert fe._plans["queue"].assignment is before.assignment
        last = [span for span in tracer.spans if span.kind == "quorum"][-2:]
        assert [span.attrs["epoch"] for span in last] == [1, 1]

    def test_without_a_policy_no_phase_enters_the_retry_loop(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("_retrying entered without a retry policy")

        monkeypatch.setattr(FrontEnd, "_retrying", refuse)
        cluster, _obj = queue_system("hybrid")
        fe = cluster.frontends[0]
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", ENQ_A)
        cluster.network.crash(1)
        cluster.network.crash(2)
        with pytest.raises(UnavailableError):
            fe.execute(txn, "obj", DEQ)
