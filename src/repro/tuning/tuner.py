"""The online quorum tuner: observe, score, reconfigure.

Closes the loop the paper leaves open: quorum consensus admits a whole
spectrum of legal assignments per type (Thms 6/10), and which point is
*cheapest* depends on the live operation mix.  The
:class:`QuorumTuner` watches each object's windowed mix through a
:class:`~repro.tuning.mix.MixObserver`, asks
:func:`~repro.quorum.search.cheapest_assignment` for the cheapest
valid threshold layout over the object's replica set under that mix,
and — when the predicted saving clears a hysteresis threshold —
installs the winner through the drain-and-prime epoch transaction in
:mod:`repro.replication.reconfig`.  Safety is therefore not the tuner's
problem: every candidate is drawn from the threshold inequalities of
the object's own dependency relation, ``reconfigure`` refuses a layout
that leaves one of its pairs without intersecting quorums, and the
switch itself is the provably view-preserving hand-over, audited
across epochs by the ``reconfig-epoch`` monitor.

Determinism: the tuner evaluates only from the workload generator's
``on_transaction_start`` hook — a schedule that is identical across
``--jobs`` counts and independent of simulated time (it advances per
*new* transaction, never per retry) — and all scoring/tie-breaking is
deterministic, so tuned runs fingerprint byte-identically across the
whole determinism envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import UnavailableError
from repro.quorum.assignment import QuorumAssignment
from repro.quorum.search import (
    ThresholdChoice,
    assignment_messages,
    cheapest_assignment,
)
from repro.resilience.policy import read_only_operations
from repro.tuning.mix import MixObserver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.replication.cluster import Cluster


@dataclass(frozen=True)
class TunerConfig:
    """Knobs of the online tuner (all deterministic).

    Attributes:
        window: mix-observer bucket size; the scored mix reflects the
            last ``window``–``2 × window`` operations per object.
        evaluate_every: transactions between tuning evaluations (the
            cadence of the ``on_transaction_start`` hook).
        hysteresis: minimum *fractional* predicted message saving before
            a reconfiguration fires — e.g. ``0.1`` demands the candidate
            beat the incumbent by ≥10%.  This is what keeps the tuner
            from oscillating on a balanced mix: after a switch the
            incumbent is the previous winner, and the reverse move must
            now clear the same bar from the other side.
        p_up: independent per-site up-probability of the availability
            model.
        availability_floor: worst-operation availability a candidate
            must clear (a constraint, never traded against messages).
        min_samples: windowed operations an object needs before the
            tuner will score it at all (an empty window prices nothing).
    """

    window: int = 192
    evaluate_every: int = 32
    hysteresis: float = 0.10
    p_up: float = 0.9
    availability_floor: float = 0.0
    min_samples: int = 24


class QuorumTuner:
    """Adaptive quorum tuning for one cluster.

    Construction wires a :class:`~repro.tuning.mix.MixObserver` into
    every front-end; drive the tuner by installing
    :meth:`on_transaction_start` as the workload generator's
    transaction hook (or call :meth:`maybe_tune` at your own cadence).
    Every object is tunable: each runs under its mechanism's dependency
    relation, which is what makes candidate legality *provable*.
    """

    def __init__(
        self,
        cluster: "Cluster",
        *,
        config: TunerConfig | None = None,
        registry: "MetricsRegistry | None" = None,
    ):
        self.cluster = cluster
        self.config = config if config is not None else TunerConfig()
        self.registry = registry
        read_ops = {
            name: read_only_operations(obj.datatype)
            for name, obj in cluster.tm.objects.items()
        }
        self.observer = MixObserver(
            read_ops, window=self.config.window, registry=registry
        )
        self.observer.attach(cluster.frontends)
        #: (object name, new epoch, describe()) per performed switch.
        self.switches: list[tuple[str, int, str]] = []

    def tunable_objects(self) -> tuple[str, ...]:
        """Names of objects the tuner may reconfigure, sorted: all of them."""
        return tuple(sorted(self.cluster.tm.objects))

    # -- the tuning loop ---------------------------------------------------

    def on_transaction_start(self, index: int) -> None:
        """Workload hook: evaluate every ``evaluate_every`` transactions.

        Fires on the generator's deterministic new-transaction schedule,
        so tuning decisions land at identical points across job counts.
        """
        if index > 0 and index % self.config.evaluate_every == 0:
            self.maybe_tune()

    def maybe_tune(self) -> int:
        """One evaluation pass; returns how many objects were switched."""
        self._count("tuning.evaluations")
        switched = 0
        for name in self.tunable_objects():
            if self._tune_object(name):
                switched += 1
        return switched

    def _tune_object(self, name: str) -> bool:
        cfg = self.config
        if self.observer.samples(name) < cfg.min_samples:
            return False
        weights = self.observer.weights(name)
        if not weights:
            return False
        obj = self.cluster.tm.object(name)
        best = cheapest_assignment(
            obj.relation,
            obj.datatype.operations(),
            weights,
            self.cluster.placement.replicas(name),
            self.cluster.n_sites,
            p_up=cfg.p_up,
            availability_floor=cfg.availability_floor,
        )
        if best is None:
            return False
        choice, assignment, messages = best
        incumbent = assignment_messages(obj.assignment, weights)
        if messages > incumbent * (1.0 - cfg.hysteresis):
            return False
        return self._switch(name, assignment, choice)

    def _switch(
        self, name: str, assignment: QuorumAssignment, choice: ThresholdChoice
    ) -> bool:
        try:
            changed = self.cluster.reconfigure(
                name, assignment, registry=self.registry
            )
        except UnavailableError:
            # The hand-over could not drain or prime a transversal right
            # now; the old assignment is untouched and a later
            # evaluation simply retries.  The reconfig layer already
            # counted the abort.
            return False
        if not changed:
            return False
        obj = self.cluster.tm.object(name)
        self.switches.append((name, obj.epoch, choice.describe()))
        self._count("tuning.switches")
        return True

    def _count(self, counter: str) -> None:
        if self.registry is not None:
            self.registry.counter(counter).inc()
