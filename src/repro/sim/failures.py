"""Failure injection: stochastic crashes and partitions.

:class:`CrashInjector` / :class:`PartitionInjector` are background
processes with exponential inter-failure and repair times, for
availability experiments.  They draw from the simulator's seeded RNG and
are therefore reproducible.  Deterministic fault schedules are the chaos
layer's (:class:`~repro.resilience.chaos.ChaosSchedule`, indexed by
transaction boundary); a test that needs one fault at one point calls
:meth:`~repro.sim.network.Network.crash` and its siblings directly.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.network import Network


class CrashInjector:
    """Stochastic crash/recovery process for every site.

    Each up site crashes with exponential rate ``1 / mean_uptime`` and
    each down site recovers with rate ``1 / mean_downtime``.  The
    long-run per-site availability is therefore
    ``mean_uptime / (mean_uptime + mean_downtime)``, which the
    ``End-to-end availability`` claim row matches against the analytic
    quorum availability.

    Args:
        network: the fabric whose sites crash and recover.
        mean_uptime: mean simulated time a site stays up.
        mean_downtime: mean simulated time a crashed site stays down.
        sites: which sites churn (all of them by default).
    """

    def __init__(
        self,
        network: Network,
        mean_uptime: float,
        mean_downtime: float,
        sites: Sequence[int] | None = None,
    ):
        self.network = network
        self.mean_uptime = mean_uptime
        self.mean_downtime = mean_downtime
        self.sites = tuple(sites if sites is not None else range(network.n_sites))

    def install(self) -> None:
        """Schedule the first crash for every covered site.

        Draws all inter-failure delays from the simulator's seeded RNG,
        so the resulting schedule is a pure function of the seed.
        """
        for site in self.sites:
            self._schedule_crash(site)

    def _schedule_crash(self, site: int) -> None:
        sim = self.network.sim
        delay = sim.rng.expovariate(1.0 / self.mean_uptime)

        def crash() -> None:
            self.network.crash(site)
            self._schedule_recovery(site)

        sim.schedule(delay, crash)

    def _schedule_recovery(self, site: int) -> None:
        sim = self.network.sim
        delay = sim.rng.expovariate(1.0 / self.mean_downtime)

        def recover() -> None:
            self.network.recover(site)
            self._schedule_crash(site)

        sim.schedule(delay, recover)


class PartitionInjector:
    """Stochastic partition process: random splits that later heal.

    Args:
        network: the fabric to cut and heal.
        mean_interval: mean simulated time between partitions.
        mean_duration: mean simulated time a partition lasts.

    Each heal goes through :meth:`Network.heal`, so failure listeners —
    including the resilience layer's heal-triggered anti-entropy driver
    — fire automatically after every injected cut clears.
    """

    def __init__(
        self,
        network: Network,
        mean_interval: float,
        mean_duration: float,
    ):
        self.network = network
        self.mean_interval = mean_interval
        self.mean_duration = mean_duration

    def install(self) -> None:
        """Schedule the first partition; splits and heals then alternate.

        Group membership and timing draw from the simulator's seeded
        RNG, so the cut sequence is reproducible per seed.
        """
        self._schedule_partition()

    def _schedule_partition(self) -> None:
        sim = self.network.sim
        delay = sim.rng.expovariate(1.0 / self.mean_interval)

        def split() -> None:
            sites = list(range(self.network.n_sites))
            sim.rng.shuffle(sites)
            cut = sim.rng.randint(1, max(1, len(sites) - 1))
            self.network.partition(sites[:cut], sites[cut:])
            self._schedule_heal()

        sim.schedule(delay, split)

    def _schedule_heal(self) -> None:
        sim = self.network.sim
        delay = sim.rng.expovariate(1.0 / self.mean_duration)

        def heal() -> None:
            self.network.heal()
            self._schedule_partition()

        sim.schedule(delay, heal)
