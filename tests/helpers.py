"""Shared builders for replication-layer tests."""

from __future__ import annotations

from repro.dependency import known
from repro.dependency.relation import DependencyRelation
from repro.quorum.assignment import QuorumAssignment
from repro.replication.cluster import Cluster, build_cluster
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
    cluster = build_cluster(n_sites, seed=seed)
    obj = cluster.add_object(
        name, datatype, scheme, assignment=assignment, relation=relation
    )
    return cluster, obj


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
