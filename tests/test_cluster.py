"""Tests for cluster wiring and example-level flows."""

from dataclasses import replace

import pytest

from repro.atomicity.properties import HybridAtomicity
from repro.cc.conflicts import hybrid_conflicts
from repro.dependency import known
from repro.dependency.dynamic_dep import minimal_dynamic_dependency
from repro.dependency.relation import DependencyRelation
from repro.dependency.static_dep import minimal_static_dependency
from repro.errors import SpecificationError
from repro.histories.events import Event, Invocation, ok
from repro.obs.audit import Auditor
from repro.obs.trace import Tracer
from repro.quorum.constraints import satisfies
from repro.replication import keyspace
from repro.replication.keyspace import ObjectSpec
from repro.scenarios.runner import build_scenario
from repro.spec.enumerate import event_alphabet
from repro.types import PROM, Account, Counter, Queue, Register, SemiQueue
from tests.helpers import cluster_of


class TestBuildCluster:
    def test_default_shape(self):
        cluster = cluster_of(5)
        assert cluster.n_sites == 5
        assert len(cluster.frontends) == 5
        assert [fe.site for fe in cluster.frontends] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("n_sites", [1, 2, 7])
    def test_one_frontend_per_site(self, n_sites):
        cluster = cluster_of(n_sites)
        assert [fe.site for fe in cluster.frontends] == list(range(n_sites))

    def test_deterministic_seed(self):
        first = cluster_of(3, seed=9).sim.rng.random()
        second = cluster_of(3, seed=9).sim.rng.random()
        assert first == second


class TestHybridRelationResolution:
    """An ``ObjectSpec`` given no relation resolves its mechanism's default
    once, and the scheme and the auditor see that value (the quorum check is
    ``test_keyspace.py::TestKeyspaceSpec::test_quorums_must_meet_the_declared_relation``)."""

    def test_defaulted_queue_runs_under_the_grounded_static_relation(self):
        cluster = cluster_of(
            3, ObjectSpec("q", Queue()), ObjectSpec("p", Queue(), "hybrid"),
            tracer=Tracer(),
        )
        auditor = Auditor(cluster)
        first, second = (cluster.tm.object(name).relation for name in "qp")
        assert first == known.ground(Queue(), known.QUEUE_STATIC, 5)
        assert first is second
        txn = cluster.tm.begin(0)
        cluster.frontends[0].execute(txn, "q", Invocation("Enq", ("a",)))
        cluster.tm.commit(txn)
        assert auditor.finish().ok

    def test_every_type_resolves_theorem_6s_relation(self):
        queue = ObjectSpec("q", Queue()).resolved_relation
        assert queue == known.ground(Queue(), known.QUEUE_STATIC, 5)
        for datatype, size in ((Register(), 6), (Counter(), 12)):
            relation = ObjectSpec("x", datatype).resolved_relation
            total = DependencyRelation.total(
                datatype.invocations(), event_alphabet(datatype, 5)
            )
            assert relation == minimal_static_dependency(datatype, 3)
            assert len(relation) == size
            assert relation.pairs < total.pairs

    def test_an_explicit_relation_wins(self):
        prom = PROM()
        hybrid = known.ground(prom, known.PROM_HYBRID, 5)
        spec = ObjectSpec("p", prom, relation=hybrid)
        assert spec.resolved_relation is hybrid
        assert replace(spec, datatype=PROM(("x",))).resolved_relation is hybrid
        cluster = cluster_of(3, spec)
        assert cluster.tm.object("p").relation is hybrid
        assert hybrid != ObjectSpec("d", prom).resolved_relation

    def test_a_replaced_datatype_resolves_its_own_default(self):
        semiqueue = ObjectSpec("x", SemiQueue())
        queue = replace(semiqueue, datatype=Queue())
        assert queue.relation is None
        assert queue.resolved_relation == known.ground(
            Queue(), known.QUEUE_STATIC, 5
        )
        assert queue.resolved_relation != semiqueue.resolved_relation
        cluster = cluster_of(3, queue)
        assert cluster.tm.object("x").relation is queue.resolved_relation

    def test_each_mechanism_resolves_its_own_relation(self):
        """Theorem 6's relation for static and hybrid, Theorem 10's for
        dynamic: a Queue's differ (Theorem 11), and a dynamic Register
        adds ``Write ≥ Write;Ok`` to the static one."""
        alphabet = event_alphabet(Queue(), 5)
        queue = {
            scheme: ObjectSpec("q", Queue(), scheme).resolved_relation
            for scheme in ("static", "hybrid", "dynamic")
        }
        assert queue["static"] is queue["hybrid"]
        assert queue["dynamic"] == minimal_dynamic_dependency(
            Queue(), 3, events=alphabet
        )
        assert queue["static"] != queue["dynamic"]
        static, dynamic = (
            ObjectSpec("r", Register(), scheme).resolved_relation
            for scheme in ("static", "dynamic")
        )
        assert static.pairs < dynamic.pairs
        added = {(inv.op, ev.inv.op) for inv, ev in dynamic.pairs - static.pairs}
        assert added == {("Write", "Write")}
        cluster = cluster_of(3, ObjectSpec("q", Queue(), "dynamic"))
        assert cluster.tm.object("q").relation is queue["dynamic"]

    @pytest.mark.parametrize("scheme", ["static", "dynamic"])
    def test_a_declared_relation_must_cover_the_minimal_one(self, scheme):
        """A static PROM under ``≥H`` would lack ``Read ≥ Write;Ok``, and
        ``reconfigure`` could then install ``1/n/1``, which Theorem 5 forbids."""
        prom = PROM()
        hybrid = known.ground(prom, known.PROM_HYBRID, 5)
        spec = ObjectSpec("p", prom, scheme, relation=hybrid)
        with pytest.raises(SpecificationError, match=r"'p'.*lacks .*≥ Write;Ok"):
            cluster_of(3, spec)
        total = DependencyRelation.total(prom.invocations(), event_alphabet(prom, 5))
        assert ObjectSpec("p", prom, scheme, relation=total).resolved_relation is total

    @pytest.mark.parametrize(
        "datatype",
        [Queue(), Register(), Counter(), Account(), PROM()],
        ids=lambda datatype: type(datatype).__name__,
    )
    def test_the_bound_3_slice_is_sound_for_the_conflict_table(self, datatype):
        """What a deeper search adds lies outside the table's alphabet,
        where ``ConflictTable`` conflicts with everything."""
        relation = ObjectSpec("x", datatype).resolved_relation
        deeper = minimal_static_dependency(
            datatype, 5, events=event_alphabet(datatype, 5)
        )
        table = hybrid_conflicts(datatype, relation)
        tabled = set(event_alphabet(datatype, 4))
        for invocation, event in deeper.pairs - relation.pairs:
            assert event not in tabled
            for held in tabled:
                if held.inv == invocation:
                    assert table.conflict(held, event)

    def test_a_hybrid_counter_reads_conflict_with_increments(self):
        counter = Counter()
        table = hybrid_conflicts(
            counter, ObjectSpec("c", counter).resolved_relation
        )
        read = Event(Invocation("Read"), ok(7))
        assert table.conflict(read, Event(Invocation("Inc"), ok()))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "scenario", ["read-dominant", "write-heavy", "hot-key-contention"]
    )
    def test_hybrid_runs_are_hybrid_atomic(self, scenario, seed):
        assert all(_hybrid_atomic(scenario, seed).values())

    @pytest.mark.parametrize("seed", [0, 1])
    def test_an_empty_relation_breaks_hybrid_atomicity(self, seed, monkeypatch):
        monkeypatch.setattr(
            keyspace, "_default_relation", lambda datatype, scheme: DependencyRelation()
        )
        assert not all(_hybrid_atomic("read-dominant", seed).values())


def _hybrid_atomic(scenario: str, seed: int) -> dict[str, bool]:
    """Each object's recorded history of a hybrid run, checked by Definition 3."""
    cluster, generator, names = build_scenario(
        scenario, seed=seed, mechanism="hybrid", transactions=40
    )
    generator.run(40)
    verdicts = {}
    for name in names:
        obj = cluster.tm.object(name)
        history = obj.recorder.to_behavioral_history()
        verdicts[name] = HybridAtomicity(obj.datatype).check_history(history)
    return verdicts


class TestAddObject:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(SpecificationError):
            cluster_of(3, ObjectSpec("q", Queue(), "optimistic"))

    def test_static_and_dynamic_need_no_relation(self):
        static = cluster_of(
            3, ObjectSpec("s", Queue(), "static"), ObjectSpec("t", Queue(), "static")
        )
        dynamic = cluster_of(
            3, ObjectSpec("d", Queue(), "dynamic"), ObjectSpec("e", Queue(), "dynamic")
        )
        assert set(static.tm.objects) == {"s", "t"}
        assert set(dynamic.tm.objects) == {"d", "e"}

    def test_object_registered_with_tm(self):
        cluster = cluster_of(3, ObjectSpec("q", Queue(), "hybrid"))
        assert cluster.tm.object("q").name == "q"
        assert cluster.placement.replicas("q") == (0, 1, 2)


class TestMajorityAssignment:
    def test_valid_under_any_relation(self):
        prom = PROM()
        assignment = ObjectSpec("p", prom).compile_assignment(range(5), 5)
        static = known.ground(prom, known.PROM_STATIC, 5)
        hybrid = known.ground(prom, known.PROM_HYBRID, 5)
        assert satisfies(assignment, static)
        assert satisfies(assignment, hybrid)

    def test_covers_every_operation(self):
        queue = Queue()
        assignment = ObjectSpec("q", queue).compile_assignment(range(3), 3)
        assert set(assignment.operation_names) == set(queue.operations())
