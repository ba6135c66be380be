"""Tests for pairwise anti-entropy reconciliation."""

import pytest

from repro.histories.events import Invocation
from repro.replication.antientropy import AntiEntropy
from tests.helpers import queue_system

ENQ_A = Invocation("Enq", ("a",))
ENQ_B = Invocation("Enq", ("b",))


class TestSynchronize:
    def test_pairwise_exchange_merges_both_ways(self):
        cluster, _obj = queue_system("hybrid", n_sites=3)
        fe = cluster.frontends[0]
        # Write while site 2 is down: it misses the entry.
        cluster.network.crash(2)
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", ENQ_A)
        cluster.tm.commit(txn)
        cluster.network.recover(2)
        assert cluster.repositories[2].entry_count("obj") == 0

        ae = AntiEntropy(cluster.network, cluster.repositories)
        assert ae.synchronize(0, 2)
        assert cluster.repositories[2].entry_count("obj") == 1

    def test_exchange_fails_cleanly_across_partition(self):
        cluster, _obj = queue_system("hybrid", n_sites=3)
        cluster.network.partition({0}, {1, 2})
        ae = AntiEntropy(cluster.network, cluster.repositories)
        assert not ae.synchronize(0, 1)

    def test_idempotent_when_already_synchronized(self):
        cluster, _obj = queue_system("hybrid", n_sites=3)
        fe = cluster.frontends[0]
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", ENQ_A)
        cluster.tm.commit(txn)
        ae = AntiEntropy(cluster.network, cluster.repositories)
        before = [repo.entry_count("obj") for repo in cluster.repositories]
        assert ae.synchronize(0, 1)
        assert ae.synchronize(0, 1)
        after = [repo.entry_count("obj") for repo in cluster.repositories]
        assert before == after

    def test_recovered_site_pulls_every_missed_entry(self):
        cluster, _obj = queue_system("hybrid", n_sites=3, seed=5)
        fe = cluster.frontends[0]
        cluster.network.crash(2)
        for invocation in (ENQ_A, ENQ_B):
            txn = cluster.tm.begin(0)
            fe.execute(txn, "obj", invocation)
            cluster.tm.commit(txn)
        cluster.network.recover(2)
        # The recovered site drives the exchange itself and converges
        # without having served a single quorum.
        ae = AntiEntropy(cluster.network, cluster.repositories)
        assert ae.synchronize(2, 0)
        assert cluster.repositories[2].entry_count("obj") == 2
        assert ae.exchanges == 1

    def test_failed_exchange_is_not_counted_and_changes_nothing(self):
        cluster, _obj = queue_system("hybrid", n_sites=3)
        fe = cluster.frontends[0]
        cluster.network.partition({0, 1}, {2})
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", ENQ_A)
        cluster.tm.commit(txn)
        before = [repo.entry_count("obj") for repo in cluster.repositories]
        ae = AntiEntropy(cluster.network, cluster.repositories)
        assert not ae.synchronize(0, 2)
        assert not ae.synchronize(2, 0)
        assert ae.exchanges == 0
        assert [repo.entry_count("obj") for repo in cluster.repositories] == before

    def test_exchange_succeeds_once_the_cut_heals(self):
        cluster, _obj = queue_system("hybrid", n_sites=3)
        fe = cluster.frontends[0]
        cluster.network.partition({0, 1}, {2})
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", ENQ_A)
        cluster.tm.commit(txn)
        ae = AntiEntropy(cluster.network, cluster.repositories)
        assert not ae.synchronize(0, 2)
        cluster.network.heal()
        assert cluster.repositories[2].entry_count("obj") == 0
        assert ae.synchronize(0, 2)
        assert ae.exchanges == 1
        assert cluster.repositories[2].entry_count("obj") == 1


class TestSnapshotSpreading:
    def test_exchange_spreads_snapshot_to_stale_peer(self):
        from repro.histories.events import Invocation
        from repro.replication.snapshot import compact

        cluster, obj = queue_system("hybrid", n_sites=3)
        fe = cluster.frontends[0]
        cluster.network.crash(2)
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", Invocation("Enq", ("a",)))
        cluster.tm.commit(txn)
        # Compact while 2 is still down: it gets neither entries nor
        # snapshot.
        compact(cluster.network, cluster.repositories, obj, cluster.tm)
        cluster.network.recover(2)
        assert cluster.repositories[2].read_snapshot("obj") is None
        ae = AntiEntropy(cluster.network, cluster.repositories)
        assert ae.synchronize(2, 0)
        assert cluster.repositories[2].read_snapshot("obj") is not None
        assert ae.synchronize(0, 2)  # reverse direction also fine
