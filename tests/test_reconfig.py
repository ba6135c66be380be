"""Tests for online quorum reconfiguration."""

import pytest

from repro.atomicity.properties import HybridAtomicity
from repro.errors import QuorumError, SpecificationError, UnavailableError
from repro.histories.events import Invocation, ok
from repro.obs.audit import Auditor
from repro.obs.trace import Tracer
from repro.quorum import constraints
from repro.quorum.assignment import OperationQuorums, QuorumAssignment
from repro.quorum.coterie import (
    EmptyCoterie,
    ExplicitCoterie,
    SubsetThresholdCoterie,
    ThresholdCoterie,
)
from repro.quorum.search import ThresholdChoice, cheapest_assignment
from repro.replication.keyspace import ObjectSpec
from repro.replication.reconfig import (
    greedy_transversal,
    is_transversal,
    needs_coverage,
    reconfigure,
    same_assignment,
)
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.spec.legality import LegalityOracle
from repro.types import Queue
from tests.helpers import cluster_of, hybrid_queue, queue_system

ENQ_A = Invocation("Enq", ("a",))
ENQ_B = Invocation("Enq", ("b",))
DEQ = Invocation("Deq")


def _threshold_assignment(n, init, final):
    quorums = OperationQuorums(
        initial=ThresholdCoterie(n, init), final=ThresholdCoterie(n, final)
    )
    return QuorumAssignment(n, {"Enq": quorums, "Deq": quorums})


class TestTransversals:
    def test_empty_coterie_needs_no_coverage(self):
        assert not needs_coverage(EmptyCoterie(3))

    def test_explicit_transversal(self):
        coterie = ExplicitCoterie(4, [{0, 1}, {2, 3}])
        assert is_transversal(coterie, frozenset({0, 2}))
        assert not is_transversal(coterie, frozenset({0, 1}))

    def test_threshold_is_transversal(self):
        coterie = ThresholdCoterie(5, 3)
        assert is_transversal(coterie, frozenset({0, 1, 2}))
        assert not is_transversal(coterie, frozenset({0, 1}))


class TestReconfigure:
    def test_data_survives_reassignment(self):
        cluster, obj = queue_system("hybrid", n_sites=5)
        fe = cluster.frontends[0]
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", ENQ_A)
        cluster.tm.commit(txn)

        # Switch to write-one/read-all (read-optimized -> write-optimized).
        new_assignment = _threshold_assignment(5, init=5, final=1)
        reconfigure(cluster.network, cluster.repositories, obj, new_assignment)
        assert obj.assignment is new_assignment

        reader = cluster.tm.begin(1)
        assert cluster.frontends[1].execute(reader, "obj", DEQ) == ok("a")
        cluster.tm.commit(reader)

    def test_round_trip_reconfiguration(self):
        cluster, obj = queue_system("hybrid", n_sites=5)
        fe = cluster.frontends[0]
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", ENQ_A)
        cluster.tm.commit(txn)

        write_optimized = _threshold_assignment(5, init=5, final=1)
        reconfigure(cluster.network, cluster.repositories, obj, write_optimized)
        txn2 = cluster.tm.begin(2)
        fe2 = cluster.frontends[2]
        fe2.execute(txn2, "obj", ENQ_B)
        cluster.tm.commit(txn2)

        balanced = _threshold_assignment(5, init=3, final=3)
        reconfigure(cluster.network, cluster.repositories, obj, balanced)

        reader = cluster.tm.begin(4)
        assert cluster.frontends[4].execute(reader, "obj", DEQ) == ok("a")
        assert cluster.frontends[4].execute(reader, "obj", DEQ) == ok("b")
        cluster.tm.commit(reader)

        history = obj.recorder.to_behavioral_history()
        checker = HybridAtomicity(obj.datatype, LegalityOracle(obj.datatype))
        assert checker.admits(history)

    def test_drain_requires_old_final_transversal(self):
        # Old finals are majorities (3 of 5): draining needs 3 live sites.
        cluster, obj = queue_system("hybrid", n_sites=5)
        for site in (2, 3, 4):
            cluster.network.crash(site)
        new_assignment = _threshold_assignment(5, init=5, final=1)
        with pytest.raises(UnavailableError):
            reconfigure(cluster.network, cluster.repositories, obj, new_assignment)
        assert obj.assignment is not new_assignment  # unchanged

    def test_prime_requires_new_initial_transversal(self):
        # New initial quorums of 1 site need a full transversal (all 5).
        cluster, obj = queue_system("hybrid", n_sites=5)
        cluster.network.crash(4)
        new_assignment = _threshold_assignment(5, init=1, final=5)
        with pytest.raises(UnavailableError):
            reconfigure(cluster.network, cluster.repositories, obj, new_assignment)

    def test_universe_change_rejected(self):
        cluster, obj = queue_system("hybrid", n_sites=5)
        with pytest.raises(QuorumError):
            reconfigure(
                cluster.network,
                cluster.repositories,
                obj,
                _threshold_assignment(3, init=2, final=2),
            )

    def test_reconfigure_under_partition_majority_side(self):
        cluster, obj = queue_system("hybrid", n_sites=5)
        fe = cluster.frontends[0]
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", ENQ_A)
        cluster.tm.commit(txn)
        cluster.network.partition({0}, {1, 2, 3, 4})
        # Not the majority default (that would be a structural no-op):
        # read-4/write-2 drains old 3-site finals and primes 4-site
        # initials (transversal 2) inside the four-site majority, and
        # the subsequent Deq finds both quorums there too.
        lopsided = _threshold_assignment(5, init=4, final=2)
        reconfigure(
            cluster.network,
            cluster.repositories,
            obj,
            lopsided,
            coordinator_site=1,
        )
        reader = cluster.tm.begin(3)
        assert cluster.frontends[3].execute(reader, "obj", DEQ) == ok("a")
        cluster.tm.commit(reader)


def _repo_state(cluster, name="obj"):
    """Byte-comparable durable state across all repositories: each
    site's stored ``(log, snapshot)``."""
    return tuple(
        (site, repo.peek_log(name).entry_set, repo.read_snapshot(name))
        for site, repo in enumerate(cluster.repositories)
    )


class TestGreedyTransversal:
    def test_threshold_closed_form(self):
        assert greedy_transversal(ThresholdCoterie(5, 3)) == frozenset({0, 1, 2})
        assert greedy_transversal(ThresholdCoterie(5, 5)) == frozenset({0})

    def test_threshold_respects_available(self):
        hit = greedy_transversal(
            ThresholdCoterie(5, 3), available=frozenset({1, 3, 4})
        )
        assert hit == frozenset({1, 3, 4})
        assert greedy_transversal(
            ThresholdCoterie(5, 3), available=frozenset({0, 1})
        ) is None

    def test_subset_threshold(self):
        coterie = SubsetThresholdCoterie(6, frozenset({1, 3, 5}), 2)
        hit = greedy_transversal(coterie)
        assert hit is not None and is_transversal(coterie, hit)
        assert len(hit) == 2  # |members| - k + 1
        # Sites outside the member set never help.
        assert greedy_transversal(coterie, available=frozenset({0, 2, 4})) is None

    def test_explicit_greedy_hits_every_quorum(self):
        coterie = ExplicitCoterie(6, [{0, 1}, {1, 2}, {3, 4}, {4, 5}])
        hit = greedy_transversal(coterie)
        assert hit is not None and is_transversal(coterie, hit)
        # Sites 1 and 4 each cover two quorums; greedy finds the optimum.
        assert hit == frozenset({1, 4})

    def test_explicit_greedy_with_unavailable_sites(self):
        coterie = ExplicitCoterie(6, [{0, 1}, {1, 2}, {3, 4}, {4, 5}])
        hit = greedy_transversal(coterie, available=frozenset({0, 2, 3, 5}))
        assert hit is not None and is_transversal(coterie, hit)
        assert hit <= {0, 2, 3, 5}

    def test_explicit_no_transversal_available(self):
        coterie = ExplicitCoterie(4, [{0, 1}, {2, 3}])
        assert greedy_transversal(coterie, available=frozenset({0, 1})) is None
        # No quorums to hit: the empty set is vacuously a transversal.
        assert greedy_transversal(ExplicitCoterie(3, [])) == frozenset()

    def test_empty_coterie_has_none(self):
        assert greedy_transversal(EmptyCoterie(4)) is None


class TestReconfigureEdgeCases:
    def test_no_transversal_leaves_state_byte_identical(self):
        cluster, obj = queue_system("hybrid", n_sites=5)
        fe = cluster.frontends[0]
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", ENQ_A)
        cluster.tm.commit(txn)

        for site in (2, 3, 4):
            cluster.network.crash(site)
        before = _repo_state(cluster)
        old_assignment = obj.assignment
        old_epoch = obj.epoch
        tracer = Tracer()

        with pytest.raises(UnavailableError):
            reconfigure(
                cluster.network,
                cluster.repositories,
                obj,
                _threshold_assignment(5, init=5, final=1),
                tracer=tracer,
            )

        # The failed hand-over wrote nothing and switched nothing.
        assert _repo_state(cluster) == before
        assert obj.assignment is old_assignment
        assert obj.epoch == old_epoch
        # The drain fell short: no prime, no switch.
        outcomes = {span.name: span.outcome for span in tracer.spans}
        assert outcomes == {"reconfig": "unavailable", "reconfig.drain": "unavailable"}

    @pytest.mark.parametrize(
        "scheme, refused",
        [("static", None), ("hybrid", None), ("dynamic", "Enq ≥ Enq;Ok")],
    )
    def test_a_layout_the_relation_refuses_is_refused_before_the_drain(
        self, scheme, refused
    ):
        """One-site Enqs and five-site Deqs meet every static pair, but
        not the dynamic ``Enq ≥ Enq;Ok`` (Theorem 11)."""
        cluster, obj = queue_system(scheme, n_sites=5)
        enq_one = ThresholdChoice(
            5,
            initial=(("Deq", 5), ("Enq", 1)),
            final=((("Deq", "Empty"), 5), (("Deq", "Ok"), 5), (("Enq", "Ok"), 1)),
        ).to_assignment()
        if refused is None:
            assert reconfigure(cluster.network, cluster.repositories, obj, enq_one)
            assert obj.epoch == 1
            return
        before, sent = _repo_state(cluster), cluster.network.messages_sent
        with pytest.raises(SpecificationError, match=f"'obj'.* {refused} without"):
            reconfigure(cluster.network, cluster.repositories, obj, enq_one)
        assert cluster.network.messages_sent == sent  # refused before the drain
        assert _repo_state(cluster) == before
        assert obj.epoch == 0 and obj.assignment is not enq_one

    def test_identical_assignment_is_a_noop(self):
        cluster, obj = queue_system("hybrid", n_sites=5)
        fe = cluster.frontends[0]
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", ENQ_A)
        cluster.tm.commit(txn)

        before = _repo_state(cluster)
        sent_before = cluster.network.messages_sent
        tracer = Tracer()
        # A structurally identical majority layout, rebuilt from scratch.
        twin = _threshold_assignment(5, init=3, final=3)
        assert same_assignment(obj.assignment, twin)

        changed = reconfigure(
            cluster.network, cluster.repositories, obj, twin, tracer=tracer
        )

        assert changed is False
        assert obj.epoch == 0
        assert cluster.network.messages_sent == sent_before  # zero RPCs
        assert _repo_state(cluster) == before
        assert not tracer.spans  # no hand-over began

    def test_genuine_switch_bumps_epoch_and_invalidates_caches(self):
        cluster, obj = queue_system("hybrid", n_sites=5)
        fe = cluster.frontends[0]
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", ENQ_A)
        cluster.tm.commit(txn)
        # Every front-end that ran an operation holds a plan for the object.
        reader = cluster.tm.begin(1)
        assert cluster.frontends[1].execute(reader, "obj", DEQ) == ok("a")
        cluster.tm.abort(reader)
        assert all("obj" in cluster.frontends[site]._plans for site in (0, 1))

        tracer = Tracer()
        changed = reconfigure(
            cluster.network,
            cluster.repositories,
            obj,
            _threshold_assignment(5, init=4, final=2),
            frontends=cluster.frontends,
            tracer=tracer,
        )

        assert changed is True
        assert obj.epoch == 1
        outcomes = {span.name: span.outcome for span in tracer.spans}
        assert outcomes == {
            "reconfig": "ok",
            "reconfig.drain": "ok",
            "reconfig.prime": "ok",
            "reconfig.switch": "ok",
        }
        switch = next(s for s in tracer.spans if s.name == "reconfig.switch")
        assert switch.attrs["epoch"] == 1
        reconfig = next(s for s in tracer.spans if s.name == "reconfig")
        assert reconfig.attrs["epoch"] == 1
        # Every front-end dropped its plan for the object.
        assert all("obj" not in fe._plans for fe in cluster.frontends)


# -- switching layouts under traffic -------------------------------------------

ENQ_HEAVY = {"Enq": 0.9, "Deq": 0.1}
DEQ_HEAVY = {"Enq": 0.1, "Deq": 0.9}
TRAFFIC = OperationMix.weighted([("queue", ENQ_A, 1.0), ("queue", DEQ, 1.0)])


def _cheapest_layout(cluster, weights, name="queue"):
    """The chooser's cheapest valid layout for ``weights`` over the object's
    own relation and replica set."""
    obj = cluster.tm.object(name)
    _choice, assignment, _messages = cheapest_assignment(
        obj.relation,
        obj.datatype.operations(),
        weights,
        cluster.placement.replicas(name),
        cluster.n_sites,
    )
    return assignment


def _audited_switching_run(spec, weights, mode, transactions=60, every=8):
    """Audited traffic on one queue, reconfigured every ``every`` new
    transactions to the cheapest layout for each of ``weights`` in turn.
    Returns ``(cluster, report, changed)``, one ``reconfigure`` result per
    switch point."""
    cluster = cluster_of(5, spec, seed=0, tracer=Tracer())
    auditor = Auditor(cluster, mode=mode)
    layouts = [_cheapest_layout(cluster, w) for w in weights]
    changed = []

    def switch(index):
        if index > 0 and index % every == 0:
            layout = layouts[(index // every - 1) % len(layouts)]
            changed.append(cluster.reconfigure("queue", layout))

    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        TRAFFIC,
        ops_per_transaction=3,
        concurrency=4,
    )
    generator.on_transaction_start = switch
    generator.run(transactions)
    return cluster, auditor.finish(), changed


class TestReconfigureUnderTraffic:
    @pytest.mark.parametrize("mode", ["deep", "streaming"])
    def test_alternating_cheapest_layouts_audit_clean(self, mode):
        """Every switch is a real hand-over between two valid layouts,
        mid-traffic, and the audit stays green across every epoch."""
        cluster, report, changed = _audited_switching_run(
            hybrid_queue(), (ENQ_HEAVY, DEQ_HEAVY), mode
        )
        assert len(changed) >= 4 and all(changed)
        assert cluster.tm.object("queue").epoch == len(changed)
        assert report.ok and not report.violations, report.render()
        assert "reconfig-epoch" in report.monitors

    def test_each_mechanism_runs_its_own_cheapest_layout(self):
        """Each mechanism's relation decides its layouts (Theorem 11).
        From ``4/4`` quorums on five sites, the Enq-heavy winner gives a
        static Queue one-site Enqs, while a dynamic one must meet
        ``Enq ≥ Enq;Ok``: its Enq quorums still sum past five.  Both run
        audited under traffic on the layout they switched to."""
        enq = {}
        for scheme in ("static", "dynamic"):
            spec = ObjectSpec("queue", Queue(), scheme, quorums=(4, 4))
            cluster, report, changed = _audited_switching_run(
                spec, (ENQ_HEAVY,), "streaming"
            )
            assert changed[0] and not any(changed[1:])  # later targets: no-ops
            assert report.ok and not report.violations, report.render()
            obj = cluster.tm.object("queue")
            assert obj.epoch == 1
            assert constraints.satisfies(obj.assignment, obj.relation)
            enq[scheme] = (
                obj.assignment.initial("Enq").smallest_quorum_size(),
                obj.assignment.final("Enq", "Ok").smallest_quorum_size(),
            )
        assert enq["static"] == (1, 1)
        assert sum(enq["dynamic"]) > 5
