"""Heal-triggered anti-entropy: automatic catch-up after faults clear.

:class:`~repro.replication.antientropy.AntiEntropy` is sound whenever it
runs, but until now it only ran when a test scheduled it by hand, so a
healed partition or a recovered site served stale fragments until a
final quorum happened to write through it.  The
:class:`PartitionHealDriver` closes that gap: it listens to the
network's failure events and drives a reconciliation pass the moment a
cut heals or a crashed site comes back, recording how long catch-up
took (in simulated time) into the ``resilience.recovery.latency``
histogram — the recovery-latency figure the chaos verdicts report.

The driver reuses the one-request-at-a-time
:meth:`AntiEntropy.synchronize` exchange, which charges normal request
latencies through the simulated network — so a chaos run's catch-up
cost is part of its deterministic, seeded schedule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.replication.antientropy import AntiEntropy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.replication.repository import Repository
    from repro.sim.network import Network

__all__ = ["PartitionHealDriver"]


class PartitionHealDriver:
    """Fires anti-entropy exchanges when partitions heal or sites recover.

    Args:
        network: the fabric to listen on (crash/recover/partition/heal).
        repositories: the replica set to reconcile.
        antientropy: the exchange engine to drive; a private
            :class:`AntiEntropy` over the same repositories by default.
        registry: sink for ``resilience.recovery.*`` metrics
            (histogram ``resilience.recovery.latency`` plus ``syncs`` /
            ``failed`` counters); ``None`` disables measurement.

    On ``heal`` the driver bridges every former partition group to the
    lowest-numbered up site (one exchange per other group's
    representative); on ``recover`` it pairs the returning site with its
    first reachable peer.  Exchanges run synchronously in the listener —
    inside the event loop when the trigger was a scheduled injector,
    inline when the trigger was a chaos boundary — and are bounded: one
    pass per event, no periodic background process unless the caller
    also installs one.
    """

    def __init__(
        self,
        network: "Network",
        repositories: Sequence["Repository"],
        *,
        antientropy: AntiEntropy | None = None,
        registry: "MetricsRegistry | None" = None,
    ):
        self.network = network
        self.repositories = tuple(repositories)
        self.antientropy = (
            antientropy
            if antientropy is not None
            else AntiEntropy(network, repositories)
        )
        self.registry = registry
        self.heals_handled = 0
        self.recoveries_handled = 0
        network.add_failure_listener(self._on_failure)

    def detach(self) -> None:
        """Stop reacting to failure events."""
        self.network.remove_failure_listener(self._on_failure)

    # -- listener ----------------------------------------------------------

    def _on_failure(self, kind: str, **info) -> None:
        if kind == "heal" and info.get("former_groups"):
            self.heals_handled += 1
            self._bridge_groups(info["former_groups"])
        elif kind == "recover":
            self.recoveries_handled += 1
            self._catch_up(info["site"])

    # -- reconciliation passes ---------------------------------------------

    def _bridge_groups(self, former_groups) -> None:
        """Synchronize one representative of each formerly cut group."""
        reps = []
        for group in former_groups:
            up = [s for s in sorted(group) if self.network.is_up(s)]
            if up:
                reps.append(up[0])
        for other in reps[1:]:
            self._timed_sync(reps[0], other)

    def _catch_up(self, site: int) -> None:
        """Pair a recovered site with its first reachable peer.

        Placement-aware: under partial replication a peer holding none
        of the recovered site's shards has nothing to replay into it, so
        the first reachable *shard-sharing* peer is preferred — recovery
        replays only the site's own shards (the genuine-partial-
        replication discipline extends to repair traffic).  Fully
        replicated sites (``shards is None``) share everything, keeping
        the classic first-reachable-peer behaviour.
        """
        shards = self.repositories[site].shards
        fallback = None
        for peer in range(len(self.repositories)):
            if peer == site or not self.network.reachable(site, peer):
                continue
            if fallback is None:
                fallback = peer
            peer_shards = self.repositories[peer].shards
            if (
                shards is None
                or peer_shards is None
                or shards & peer_shards
            ):
                self._timed_sync(site, peer)
                return
        if fallback is not None:
            self._timed_sync(site, fallback)

    def _timed_sync(self, first: int, second: int) -> bool:
        started_at = self.network.sim.now
        completed = self.antientropy.synchronize(first, second)
        if self.registry is not None:
            if completed:
                self.registry.counter("resilience.recovery.syncs").inc()
                self.registry.histogram("resilience.recovery.latency").observe(
                    self.network.sim.now - started_at
                )
            else:
                self.registry.counter("resilience.recovery.failed").inc()
        return completed
