"""Tests for cluster wiring and example-level flows."""

import pytest

from repro.dependency import known
from repro.errors import SpecificationError
from repro.quorum.constraints import satisfies
from repro.replication.keyspace import ObjectSpec
from repro.types import PROM, Queue
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


class TestAddObject:
    def test_hybrid_requires_relation(self):
        with pytest.raises(SpecificationError):
            cluster_of(3, ObjectSpec("q", Queue(), "hybrid"))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SpecificationError):
            cluster_of(3, ObjectSpec("q", Queue(), "optimistic"))

    def test_static_and_dynamic_need_no_relation(self):
        cluster = cluster_of(
            3, ObjectSpec("s", Queue(), "static"), ObjectSpec("d", Queue(), "dynamic")
        )
        assert set(cluster.tm.objects) == {"s", "d"}

    def test_object_registered_with_tm(self):
        relation = known.ground(Queue(), known.QUEUE_STATIC, 5)
        cluster = cluster_of(3, ObjectSpec("q", Queue(), "hybrid", relation=relation))
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
