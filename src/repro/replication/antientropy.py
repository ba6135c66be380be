"""Anti-entropy: pairwise log reconciliation between repositories.

Quorum consensus is correct without any repair — quorum intersection
alone guarantees every view is complete enough — but repair still pays:
a recovered repository serves stale fragments until it happens to be
written through a final quorum, inflating view sizes needed elsewhere
and wasting the recovered site's vote.  Because log merge is an
idempotent, commutative, associative join, reconciliation is trivially
safe: any pair of repositories can exchange and merge logs at any time
without coordination (the same algebra that makes the views themselves
sound).

:class:`AntiEntropy` is the exchange: :meth:`AntiEntropy.synchronize`
reconciles one pair of sites for every object both hold.  It runs on
demand — the resilience layer's
:class:`~repro.resilience.heal.PartitionHealDriver` calls it the moment
a cut heals or a crashed site recovers.  The tests show a recovered site
converging to the full log without participating in any quorum.
"""

from __future__ import annotations

from typing import Sequence

from repro.replication.repository import Repository
from repro.sim.network import Network, Timeout


class AntiEntropy:
    """Pairwise log exchange between repositories.

    Args:
        network: the fabric exchanges travel (and whose reachability
            gates them).
        repositories: the replica set to reconcile, indexed by site.

    Counters: ``exchanges`` (completed bidirectional syncs) and
    ``cross_shard_skips``.
    """

    def __init__(self, network: Network, repositories: Sequence[Repository]):
        self.network = network
        self.repositories = tuple(repositories)
        self.exchanges = 0
        #: Object syncs not attempted because one side does not hold the
        #: shard (partial replication: reconciliation must not spread an
        #: object beyond its replica set — copying would silently turn a
        #: misrouted write into a permanent extra replica).
        self.cross_shard_skips = 0

    def synchronize(self, first: int, second: int) -> bool:
        """One bidirectional exchange; returns ``True`` if it completed.

        Args:
            first: the site driving the exchange (requests originate here).
            second: the peer site being reconciled with.

        Each direction is a normal network request and can time out
        (crash, partition, or message loss on the fabric); a
        half-completed exchange is harmless (merge is monotone), and a
        timeout simply returns ``False`` — never raises.  The exchange is
        one ``antientropy.sync`` span (kind ``sync``, at ``first``) with
        the ``peer``, the ``objects`` merged, ``attempted`` ``[first,
        second]`` (``first`` needs no message) and ``served``, which
        names the peer once a request leg reached it.
        """
        repo_a, repo_b = self.repositories[first], self.repositories[second]
        request = self.network.request
        served, exchanged = [first], []
        try:
            with self.network.tracer.span(
                "antientropy.sync", kind="sync", site=first, peer=second
            ) as span:
                try:
                    # Digest exchange: learn what the peer stores (and
                    # probe reachability) before shipping logs.
                    peer_objects = request(first, second, repo_b.stored_objects)
                    served.append(second)
                    objects = set(repo_a.stored_objects()) | set(peer_objects)
                    for name in sorted(objects):
                        # Genuine partial replication: only reconcile
                        # shards both sites are assigned (always true when
                        # fully replicated, where ``holds`` is vacuous).
                        if not (repo_a.holds(name) and repo_b.holds(name)):
                            self.cross_shard_skips += 1
                            continue
                        # Spread compaction snapshots first, so neither
                        # side re-admits entries the other has folded.
                        snap_b = request(
                            first, second, lambda n=name: repo_b.read_snapshot(n)
                        )
                        snap_a = repo_a.read_snapshot(name)
                        if snap_b is not None and snap_b.subsumes(snap_a):
                            repo_a.install_snapshot(name, snap_b)
                        elif snap_a is not None:
                            request(
                                first,
                                second,
                                lambda n=name, s=snap_a: repo_b.install_snapshot(n, s),
                            )
                        log_b = request(first, second, lambda n=name: repo_b.read_log(n))
                        merged = repo_a.read_log(name).extended(log_b)
                        repo_a.write_log(name, merged)
                        exchanged.append(name)
                        request(
                            first,
                            second,
                            lambda n=name, m=merged: repo_b.write_log(n, m),
                        )
                except Timeout as lost:
                    if lost.served and len(served) == 1:
                        served.append(second)
                    raise
                finally:
                    span.annotate(
                        attempted=[first, second], served=served, objects=exchanged
                    )
        except Timeout:
            return False
        self.exchanges += 1
        return True
