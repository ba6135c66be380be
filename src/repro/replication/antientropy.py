"""Anti-entropy: background log reconciliation between repositories.

Quorum consensus is correct without any background repair — quorum
intersection alone guarantees every view is complete enough — but
repair still pays: a recovered repository serves stale fragments until
it happens to be written through a final quorum, inflating view sizes
needed elsewhere and wasting the recovered site's vote.  Because log
merge is an idempotent, commutative, associative join, reconciliation
is trivially safe: any pair of repositories can exchange and merge logs
at any time without coordination (the same algebra that makes the
views themselves sound).

:class:`AntiEntropy` is a simulator process that periodically picks a
random reachable pair of sites and synchronizes their logs for every
object either stores.  The tests show a recovered site converging to
the full log without participating in any quorum.
"""

from __future__ import annotations

from typing import Sequence

from repro.replication.repository import Repository
from repro.sim.network import Network, Timeout


class AntiEntropy:
    """Periodic pairwise log exchange between repositories.

    Args:
        network: the fabric exchanges travel (and whose reachability
            gates them).
        repositories: the replica set to reconcile, indexed by site.
        interval: simulated time between background rounds.

    Counters: ``rounds`` (background ticks), ``exchanges`` (completed
    bidirectional syncs), ``skipped`` (rounds whose drawn pair was
    unreachable — crashed or across an active partition cut — and was
    therefore not attempted at all).
    """

    def __init__(
        self,
        network: Network,
        repositories: Sequence[Repository],
        interval: float = 10.0,
    ):
        self.network = network
        self.repositories = tuple(repositories)
        self.interval = interval
        self.rounds = 0
        self.exchanges = 0
        self.skipped = 0
        #: Object syncs not attempted because one side does not hold the
        #: shard (partial replication: reconciliation must not spread an
        #: object beyond its replica set — copying would silently turn a
        #: misrouted write into a permanent extra replica).
        self.cross_shard_skips = 0

    def install(self) -> None:
        """Schedule the periodic reconciliation process on the simulator.

        Each round draws a random site pair from the simulator's seeded
        RNG, so the reconciliation schedule is reproducible per seed.
        """
        self.network.sim.schedule(self.interval, self._round)

    def _round(self) -> None:
        """One background tick: draw a pair, sync it if connected.

        Partition-aware: a pair that cannot currently reach each other
        (either side crashed, or an active cut between them) is skipped
        without sending anything — previously the exchange was attempted
        across the cut and burned a timed-out request per round.  The
        RNG draw happens either way, so enabling or suffering partitions
        never shifts the seeded schedule of later rounds.
        """
        self.rounds += 1
        sim = self.network.sim
        n = len(self.repositories)
        if n >= 2:
            first = sim.rng.randrange(n)
            second = (first + 1 + sim.rng.randrange(n - 1)) % n
            if self.network.reachable(first, second):
                self.synchronize(first, second)
            else:
                self.skipped += 1
        sim.schedule(self.interval, self._round)

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
                        merged = repo_a.read_log(name).merge(log_b)
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
