"""Interplay of the administrative operations: reconfigure × compact ×
anti-entropy on one object, interleaved with a live workload."""

import pytest

from repro.atomicity.properties import HybridAtomicity
from repro.histories.events import Invocation, ok
from repro.quorum.assignment import OperationQuorums, QuorumAssignment
from repro.quorum.coterie import SubsetThresholdCoterie, ThresholdCoterie
from repro.replication.antientropy import AntiEntropy
from repro.replication.keyspace import ObjectSpec, PlacementRule
from repro.replication.reconfig import reconfigure
from repro.replication.snapshot import compact
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.spec.legality import LegalityOracle
from repro.types import Queue
from tests.helpers import cluster_of, queue_system

ENQ_A = Invocation("Enq", ("a",))
ENQ_B = Invocation("Enq", ("b",))
DEQ = Invocation("Deq")


def _threshold_assignment(n, init, final):
    quorums = OperationQuorums(
        initial=ThresholdCoterie(n, init), final=ThresholdCoterie(n, final)
    )
    return QuorumAssignment(n, {"Enq": quorums, "Deq": quorums})


class TestAdminInterplay:
    def test_compact_then_reconfigure_preserves_data(self):
        cluster, obj = queue_system("hybrid", n_sites=5)
        fe = cluster.frontends[0]
        for invocation in (ENQ_A, ENQ_B):
            txn = cluster.tm.begin(0)
            fe.execute(txn, "obj", invocation)
            cluster.tm.commit(txn)
        compact(cluster.network, cluster.repositories, obj, cluster.tm)
        reconfigure(
            cluster.network,
            cluster.repositories,
            obj,
            _threshold_assignment(5, init=5, final=1),
        )
        txn = cluster.tm.begin(3)
        assert cluster.frontends[3].execute(txn, "obj", DEQ) == ok("a")
        assert cluster.frontends[3].execute(txn, "obj", DEQ) == ok("b")
        cluster.tm.commit(txn)

    def test_reconfigure_then_compact(self):
        cluster, obj = queue_system("hybrid", n_sites=5)
        fe = cluster.frontends[0]
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", ENQ_A)
        cluster.tm.commit(txn)
        reconfigure(
            cluster.network,
            cluster.repositories,
            obj,
            _threshold_assignment(5, init=1, final=5),
        )
        snapshot = compact(cluster.network, cluster.repositories, obj, cluster.tm)
        assert snapshot is not None and snapshot.state == ("a",)
        txn = cluster.tm.begin(1)
        assert cluster.frontends[1].execute(txn, "obj", DEQ) == ok("a")
        cluster.tm.commit(txn)

    def test_antientropy_spreads_snapshots_nothing_to_resurrect(self):
        """Anti-entropy between a compacted and an uncompacted site must
        not resurrect folded entries at the compacted one."""
        cluster, obj = queue_system("hybrid", n_sites=3)
        fe = cluster.frontends[0]
        cluster.network.crash(2)  # site 2 misses everything
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", ENQ_A)
        cluster.tm.commit(txn)
        cluster.network.recover(2)
        # Compact while 2 is reachable: it receives the snapshot.
        compact(cluster.network, cluster.repositories, obj, cluster.tm)
        ae = AntiEntropy(cluster.network, cluster.repositories)
        assert ae.synchronize(0, 2)
        assert cluster.repositories[0].entry_count("obj") == 0
        assert cluster.repositories[2].entry_count("obj") == 0

    def test_full_lifecycle_stays_atomic(self):
        cluster, obj = queue_system("hybrid", n_sites=5, seed=23)
        mix = OperationMix.uniform("obj", obj.datatype.invocations())
        generator = WorkloadGenerator(
            cluster.sim,
            cluster.tm,
            cluster.frontends,
            mix,
            ops_per_transaction=2,
            concurrency=3,
        )
        generator.run(15)
        compact(cluster.network, cluster.repositories, obj, cluster.tm)
        # A genuinely different layout (not the majority default, which
        # would be a structural no-op and skip the hand-over entirely).
        reconfigure(
            cluster.network,
            cluster.repositories,
            obj,
            _threshold_assignment(5, init=4, final=2),
        )
        generator.run(15)
        compact(cluster.network, cluster.repositories, obj, cluster.tm)
        generator.run(10)
        checker = HybridAtomicity(obj.datatype, LegalityOracle(obj.datatype))
        assert checker.admits(obj.recorder.to_behavioral_history())


    def test_a_drain_drops_what_the_best_snapshot_covers(self):
        """Site 1 misses the first compaction and still holds ``a``'s
        entry; the second compaction's drain reaches it beside sites
        holding the snapshot, and must not fold ``a`` a second time."""
        cluster, obj = queue_system("hybrid", n_sites=5)
        for site, invocation in ((0, ENQ_A), (1, ENQ_B)):
            if site == 1:
                cluster.network.crash(1)
                compact(cluster.network, cluster.repositories, obj, cluster.tm)
                cluster.network.recover(1)
            txn = cluster.tm.begin(site)
            cluster.frontends[site].execute(txn, "obj", invocation)
            cluster.tm.commit(txn)
        assert cluster.repositories[1].read_snapshot("obj") is None
        assert cluster.repositories[1].entry_count("obj") == 2
        snapshot = compact(
            cluster.network, cluster.repositories, obj, cluster.tm, coordinator_site=1
        )
        assert snapshot.state == ("a", "b")


class TestReconfigurePropagatesSnapshots:
    def test_primed_site_without_snapshot_receives_one(self):
        """Regression: a site unreachable during compaction must receive
        the snapshot when reconfiguration primes it, or it would hold
        neither the folded entries nor the state subsuming them."""
        cluster, obj = queue_system("hybrid", n_sites=5)
        fe = cluster.frontends[0]
        cluster.network.crash(4)
        for invocation in (ENQ_A, ENQ_B):
            txn = cluster.tm.begin(0)
            fe.execute(txn, "obj", invocation)
            cluster.tm.commit(txn)
        compact(cluster.network, cluster.repositories, obj, cluster.tm)
        assert cluster.repositories[4].read_snapshot("obj") is None
        cluster.network.recover(4)
        # A genuinely different layout (not the majority default, which
        # would be a structural no-op and never prime anything).
        reconfigure(
            cluster.network,
            cluster.repositories,
            obj,
            _threshold_assignment(5, init=4, final=2),
            coordinator_site=4,
        )
        assert cluster.repositories[4].read_snapshot("obj") is not None
        # And a read through site 4 sees the folded history.
        txn = cluster.tm.begin(4)
        assert cluster.frontends[4].execute(txn, "obj", DEQ) == ok("a")
        cluster.tm.commit(txn)


class TestOneVisitOrder:
    """Compaction and reconfiguration hand over in one order."""

    @pytest.mark.parametrize("coordinator", range(5))
    def test_both_drains_probe_the_replicas_in_one_order(self, coordinator, monkeypatch):
        # Replicas at 0, 2 and 4: a coordinator at 1 or 3 holds none.
        replicas = (0, 2, 4)
        spec = ObjectSpec("obj", Queue(), placement=PlacementRule.at(replicas))
        cluster = cluster_of(5, spec)
        obj = cluster.tm.object("obj")
        txn = cluster.tm.begin(0)
        cluster.frontends[0].execute(txn, "obj", ENQ_A)
        cluster.tm.commit(txn)
        probed = []
        gather = cluster.network.gather

        def recording(origin, order, *args, **kwargs):
            probed.append(list(order))
            return gather(origin, order, *args, **kwargs)

        monkeypatch.setattr(cluster.network, "gather", recording)
        compact(cluster.network, cluster.repositories, obj, cluster.tm,
                coordinator_site=coordinator, sites=replicas)  # fmt: skip
        drain, install = probed
        quorums = OperationQuorums(
            initial=SubsetThresholdCoterie(5, replicas, 3),
            final=SubsetThresholdCoterie(5, replicas, 1),
        )
        new = QuorumAssignment(5, {"Enq": quorums, "Deq": quorums})
        assert cluster.reconfigure("obj", new, coordinator_site=coordinator)
        # The pool rotated from the coordinator, as reconfiguration drains.
        expected = sorted(replicas, key=lambda site: (site - coordinator) % 5)
        assert drain == install == probed[2] == expected
