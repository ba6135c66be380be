"""Crash-recovery replay: durable journals, checkpoints, and restarts.

The base :class:`~repro.replication.repository.Repository` models
*stable* storage — a crash makes the site unreachable but loses nothing.
That is the paper's assumption, but it leaves the recovery path itself
untested: nothing ever has to rebuild state.  This module makes the
recovery path real while preserving the stable-storage *semantics*:

* every repository mutation that changes a stored log or snapshot
  appends a post-state record to a per-site :class:`SiteJournal` (the
  durable log);
* :meth:`SiteJournal.checkpoint` folds the journal into a checkpoint so
  replay cost stays bounded;
* when a site crashes, its **volatile** dicts are wiped; when it
  recovers, :meth:`Repository.restart` replays checkpoint + journal
  suffix, rebuilding logs and snapshots exactly — so a recovered run is
  indistinguishable from the stable-storage model (which is exactly
  what makes enabling recovery safe in the deterministic equality
  tests).

A journal is attached by :class:`RecoveryManager`; repositories without
one keep today's stable-storage behaviour untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.replication.log import Log

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.replication.repository import Repository
    from repro.sim.network import Network

__all__ = ["SiteJournal", "RecoveryManager", "ResilienceRuntime"]

#: A recovering site's journal is folded into a checkpoint once it
#: holds this many records, so replay cost stays bounded.
CHECKPOINT_EVERY = 64


class SiteJournal:
    """Durable append-only record of one repository's mutations.

    Each record captures the *post-state* of exactly one mutation:
    ``("log", name, log)`` for log writes and
    ``("snapshot", name, snapshot, filtered_log)`` for snapshot installs
    (which rewrite the log too).  Replaying checkpoint + records through
    :meth:`restore` therefore reproduces the repository's logs and
    snapshots exactly.
    """

    def __init__(self) -> None:
        #: State at the last checkpoint: (logs, snapshots).
        self._base_logs: dict[str, Log] = {}
        self._base_snapshots: dict[str, object] = {}
        self.records: list[tuple] = []
        self.checkpoints = 0
        self.replays = 0

    # -- recording (called from Repository mutation paths) -----------------

    def record_log(self, name: str, log: Log) -> None:
        """Journal a post-write log state."""
        self.records.append(("log", name, log))

    def record_snapshot(self, name: str, snapshot, log: Log) -> None:
        """Journal a snapshot install and the log it filtered."""
        self.records.append(("snapshot", name, snapshot, log))

    # -- checkpoint / restart ----------------------------------------------

    def checkpoint(self, repo: "Repository") -> int:
        """Fold the journal into a checkpoint of ``repo``'s current state.

        Returns the number of journal records the checkpoint absorbed.
        Replay after a checkpoint starts from this state instead of
        empty, bounding restart cost.
        """
        self._base_logs = dict(repo._logs)
        self._base_snapshots = dict(repo._snapshots)
        absorbed = len(self.records)
        self.records.clear()
        self.checkpoints += 1
        return absorbed

    def restore(self, repo: "Repository") -> int:
        """Rebuild ``repo``'s state from checkpoint + journal suffix.

        Returns the number of records replayed.  Restoration is exact:
        logs and snapshots match the pre-crash values, because every
        mutation appended its post-state.
        """
        repo._logs = dict(self._base_logs)
        repo._snapshots = dict(self._base_snapshots)
        for record in self.records:
            if record[0] == "log":
                _kind, name, log = record
                repo._logs[name] = log
            else:
                _kind, name, snapshot, log = record
                repo._snapshots[name] = snapshot
                repo._logs[name] = log
        self.replays += 1
        return len(self.records)


class RecoveryManager:
    """Wires journals to repositories and replays them across crashes.

    Attaching the manager switches the failure model from "stable
    storage survives crashes by fiat" to "volatile state is lost and
    rebuilt by replay": on every ``site.crash`` the repository's
    in-memory dicts are wiped, and on ``site.recover`` they are restored
    from its journal via :meth:`Repository.restart`.  External behaviour
    is unchanged (a crashed site is unreachable either way), which is
    what lets chaos runs enable recovery without perturbing seeded
    histories.

    Args:
        network: the fabric whose crash/recover events drive replay.
        repositories: the sites to journal (all of them, typically).

    A recovering site's journal is checkpointed once it holds
    :data:`CHECKPOINT_EVERY` records.
    """

    def __init__(self, network: "Network", repositories: Sequence["Repository"]):
        self.repositories = tuple(repositories)
        self.crashes_wiped = 0
        self.restarts = 0
        for repo in self.repositories:
            journal = SiteJournal()
            # Checkpoint whatever state predates the manager, so replay
            # never has to reconstruct history it did not observe.
            repo.journal = journal
            journal.checkpoint(repo)
        network.add_failure_listener(self._on_failure)

    def _on_failure(self, kind: str, **info) -> None:
        if kind == "crash":
            repo = self.repositories[info["site"]]
            repo.lose_volatile()
            self.crashes_wiped += 1
        elif kind == "recover":
            repo = self.repositories[info["site"]]
            repo.restart()
            self.restarts += 1
            if (
                repo.journal is not None
                and len(repo.journal.records) >= CHECKPOINT_EVERY
            ):
                repo.journal.checkpoint(repo)


class ResilienceRuntime:
    """The bundle :meth:`Cluster.enable_resilience` wires up and returns.

    Holds the active :class:`~repro.resilience.policy.RetryPolicy`, the
    :class:`RecoveryManager`, the partition-heal
    :class:`~repro.resilience.heal.PartitionHealDriver`, and the metrics
    registry collecting ``resilience.*`` counters and the
    ``resilience.recovery.latency`` histogram.
    """

    def __init__(self, policy, recovery, heal, registry: "MetricsRegistry"):
        self.policy = policy
        self.recovery = recovery
        self.heal = heal
        self.registry = registry
