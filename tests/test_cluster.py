"""Tests for cluster wiring and example-level flows."""

import pytest

from repro.dependency import known
from repro.dependency.relation import DependencyRelation
from repro.errors import SpecificationError
from repro.histories.events import Invocation
from repro.obs.audit import Auditor
from repro.obs.trace import Tracer
from repro.quorum.constraints import satisfies
from repro.replication.keyspace import ObjectSpec
from repro.spec.enumerate import event_alphabet
from repro.types import PROM, Counter, Queue, Register
from tests.helpers import cluster_of


class TestBuildCluster:
    def test_default_shape(self):
        cluster = cluster_of(5)
        assert cluster.n_sites == 5
        assert len(cluster.frontends) == 5
        assert [fe.site for fe in cluster.frontends] == [0, 1, 2, 3, 4]

    def test_custom_frontend_count_wraps_sites(self):
        cluster = cluster_of(3, n_frontends=5)
        assert [fe.site for fe in cluster.frontends] == [0, 1, 2, 0, 1]

    def test_deterministic_seed(self):
        first = cluster_of(3, seed=9).sim.rng.random()
        second = cluster_of(3, seed=9).sim.rng.random()
        assert first == second


class TestHybridRelationResolution:
    """A hybrid ``ObjectSpec`` given no relation resolves its default once,
    and the scheme and the auditor see that value (the quorum check is
    ``test_keyspace.py::TestKeyspaceSpec::test_quorums_must_meet_the_declared_relation``)."""

    def test_defaulted_queue_runs_under_the_grounded_static_relation(self):
        cluster = cluster_of(
            3, ObjectSpec("q", Queue()), ObjectSpec("p", Queue(), "hybrid"),
            tracer=Tracer(),
        )
        auditor = Auditor(cluster)
        first, second = (cluster.tm.object(name).cc.relation for name in "qp")
        assert first == known.ground(Queue(), known.QUEUE_STATIC, 5)
        assert first is second
        txn = cluster.tm.begin(0)
        cluster.frontends[0].execute(txn, "q", Invocation("Enq", ("a",)))
        cluster.tm.commit(txn)
        assert auditor.finish().ok

    @pytest.mark.parametrize("datatype", [Register(), Counter()], ids=["Register", "Counter"])
    def test_other_types_resolve_to_the_total_relation(self, datatype):
        total = DependencyRelation.total(
            datatype.invocations(), event_alphabet(datatype, 5)
        )
        assert ObjectSpec("x", datatype).relation == total

    def test_an_explicit_relation_wins(self):
        prom = PROM()
        hybrid = known.ground(prom, known.PROM_HYBRID, 5)
        cluster = cluster_of(3, ObjectSpec("p", prom, relation=hybrid))
        assert cluster.tm.object("p").cc.relation is hybrid
        assert hybrid != ObjectSpec("d", prom).relation

    @pytest.mark.parametrize("scheme", ["static", "dynamic"])
    def test_static_and_dynamic_keep_no_relation(self, scheme):
        assert ObjectSpec("q", Queue(), scheme).relation is None


class TestAddObject:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(SpecificationError):
            cluster_of(3, ObjectSpec("q", Queue(), "optimistic"))

    def test_static_and_dynamic_need_no_relation(self):
        cluster = cluster_of(
            3, ObjectSpec("s", Queue(), "static"), ObjectSpec("d", Queue(), "dynamic")
        )
        assert set(cluster.tm.objects) == {"s", "d"}

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
