"""Declarative scenario specifications and the workload class contract.

A :class:`ScenarioSpec` is a frozen, validated description of a traffic
shape — what operations a transaction contains, which keys it touches,
when transactions arrive, and how many run at once.  Specs are data,
not behavior: :mod:`repro.scenarios.runner` compiles a spec onto the
existing :class:`~repro.sim.workload.WorkloadGenerator` hooks, and the
frozen :data:`~repro.scenarios.catalog.SCENARIOS` catalog pins one spec
per named scenario with a ``doc_ref`` anchor into ``docs/SCENARIOS.md``
(drift between catalog and doc is test-enforced).

The escape hatch is :class:`ScenarioWorkload`: any object satisfying
its ``init()``/``run()`` contract can replace the driver's built-in
:class:`~repro.sim.workload.MixWorkload` (re-exported here) entirely,
pgWorkload-style, while still riding the driver's concurrency, retry,
and arrival machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.sim.workload import MixWorkload  # re-exported: the default workload

__all__ = [
    "ArrivalSpec",
    "MixSpec",
    "MixWorkload",
    "ScenarioSpec",
    "ScenarioWorkload",
    "SkewSpec",
]


@dataclass(frozen=True)
class MixSpec:
    """Operation-mix shape: read/write balance plus per-op multipliers.

    ``read_weight`` and ``write_weight`` scale every read-only and
    state-changing operation respectively (classified mechanically by
    :func:`~repro.resilience.policy.read_only_operations`, so a data
    type with no read-only operations — the FIFO queue — simply sees
    ``write_weight`` everywhere).  ``op_weights`` multiplies named
    operations on top of that, e.g. ``(("Enq", 3.0),)`` to skew a queue
    toward producers.  The default (all ones) compiles to the legacy
    uniform mix exactly.
    """

    read_weight: float = 1.0
    write_weight: float = 1.0
    op_weights: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.read_weight <= 0 or self.write_weight <= 0:
            raise ValueError(
                "mix weights must be positive, got "
                f"read={self.read_weight} write={self.write_weight}"
            )
        for op, weight in self.op_weights:
            if weight <= 0:
                raise ValueError(f"op weight for {op!r} must be positive")

    @staticmethod
    def uniform() -> "MixSpec":
        """Every invocation equally likely (the legacy default)."""
        return MixSpec()

    @staticmethod
    def read_dominant(ratio: float = 9.0) -> "MixSpec":
        """Reads ``ratio`` times more likely than writes."""
        return MixSpec(read_weight=ratio, write_weight=1.0)

    @staticmethod
    def write_heavy(ratio: float = 4.0) -> "MixSpec":
        """Writes ``ratio`` times more likely than reads."""
        return MixSpec(read_weight=1.0, write_weight=ratio)

    def multiplier(self, op: str, read_only: bool) -> float:
        """The compiled weight factor for operation ``op``."""
        factor = self.read_weight if read_only else self.write_weight
        for name, weight in self.op_weights:
            if name == op:
                factor *= weight
        return factor


@dataclass(frozen=True)
class SkewSpec:
    """Key-skew shape: a zipf exponent over the keyspace's objects.

    ``s = 0`` (the default) is uniform; larger ``s`` concentrates
    traffic on a few hot keys.  *Which* keys are hot comes from a
    seeded shuffle (:func:`~repro.scenarios.sampler.hot_key_ranks`), so
    the hot set varies per seed but is reproducible everywhere.
    """

    s: float = 0.0

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ValueError(f"zipf exponent must be non-negative, got {self.s}")

    @staticmethod
    def uniform() -> "SkewSpec":
        return SkewSpec(s=0.0)

    @staticmethod
    def zipf(s: float) -> "SkewSpec":
        return SkewSpec(s=s)


@dataclass(frozen=True)
class ArrivalSpec:
    """Arrival-process shape: closed loop, open-loop Poisson, or bursty.

    * ``"closed"`` — the legacy fixed-pool loop: a finished transaction
      is immediately replaced, ``concurrency`` deep (no schedule);
    * ``"poisson"`` — open loop at ``rate`` transactions per simulated
      time unit (:func:`~repro.scenarios.sampler.poisson_arrivals`),
      with ``concurrency`` acting as an admission-backlog cap;
    * ``"bursty"`` — open loop alternating calm ``rate`` traffic with
      ``burst_length``-arrival crowds at ``burst_rate`` every ``cycle``
      arrivals (:func:`~repro.scenarios.sampler.bursty_arrivals`).
    """

    kind: str = "closed"
    rate: float | None = None
    burst_rate: float | None = None
    burst_length: int | None = None
    cycle: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("closed", "poisson", "bursty"):
            raise ValueError(
                f"unknown arrival kind {self.kind!r} "
                "(use 'closed', 'poisson', or 'bursty')"
            )
        if self.kind == "closed":
            if self.rate is not None:
                raise ValueError("a closed-loop arrival spec takes no rate")
            return
        if self.rate is None or self.rate <= 0:
            raise ValueError(f"{self.kind} arrivals need a positive rate")
        if self.kind == "bursty":
            if (
                self.burst_rate is None
                or self.burst_length is None
                or self.cycle is None
            ):
                raise ValueError(
                    "bursty arrivals need burst_rate, burst_length, and cycle"
                )

    @staticmethod
    def closed() -> "ArrivalSpec":
        """The legacy closed-loop pool (no arrival schedule)."""
        return ArrivalSpec(kind="closed")

    @staticmethod
    def poisson(rate: float) -> "ArrivalSpec":
        """Open-loop Poisson arrivals at ``rate`` per simulated time unit."""
        return ArrivalSpec(kind="poisson", rate=rate)

    @staticmethod
    def bursty(
        rate: float, burst_rate: float, burst_length: int, cycle: int
    ) -> "ArrivalSpec":
        """Calm ``rate`` traffic with periodic ``burst_rate`` crowds."""
        return ArrivalSpec(
            kind="bursty",
            rate=rate,
            burst_rate=burst_rate,
            burst_length=burst_length,
            cycle=cycle,
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One frozen scenario: mix × skew × arrivals × concurrency shape.

    ``doc_ref`` anchors the scenario into ``docs/SCENARIOS.md``
    (``"docs/SCENARIOS.md#<anchor>"``); the drift guard in
    ``tests/test_docs.py`` fails the build if the anchor goes stale.
    ``objects`` sizes the keyspace the scenario runs over (1 keeps the
    classic single-queue cluster); ``transactions`` is the default run
    length, overridable at run time.
    """

    name: str
    doc_ref: str
    description: str
    mix: MixSpec = field(default_factory=MixSpec)
    skew: SkewSpec = field(default_factory=SkewSpec)
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    ops_per_transaction: int = 3
    concurrency: int = 4
    think_time: float = 0.1
    objects: int = 1
    transactions: int = 16

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        if "#" not in self.doc_ref:
            raise ValueError(
                f"scenario {self.name!r}: doc_ref must be "
                "'<path>#<anchor>', got " + repr(self.doc_ref)
            )
        if self.ops_per_transaction < 1:
            raise ValueError(
                f"scenario {self.name!r}: ops_per_transaction must be >= 1"
            )
        if self.concurrency < 1:
            raise ValueError(f"scenario {self.name!r}: concurrency must be >= 1")
        if self.think_time <= 0:
            raise ValueError(f"scenario {self.name!r}: think_time must be > 0")
        if self.objects < 1:
            raise ValueError(f"scenario {self.name!r}: objects must be >= 1")
        if self.transactions < 1:
            raise ValueError(f"scenario {self.name!r}: transactions must be >= 1")
        if self.skew.s > 0 and self.objects < 2:
            raise ValueError(
                f"scenario {self.name!r}: key skew needs at least 2 objects"
            )


class ScenarioWorkload:
    """The user-supplied workload class contract (pgWorkload-style).

    Subclass (or duck-type) this to drive arbitrary transaction bodies
    through the :class:`~repro.sim.workload.WorkloadGenerator`:

    * :meth:`init` is called once with the built cluster, before any
      transaction runs — stash handles, pre-seed state;
    * :meth:`run` is called once per transaction with the simulator's
      seeded RNG and returns that transaction's operation list as
      ``(object_name, invocation)`` pairs.  Draw *only* from the given
      ``rng`` (never ``random`` module globals) to stay inside the
      determinism envelope.

    The generator owns everything else: concurrency, retries, deadlock
    policy, arrival gating, metrics.
    """

    def init(self, cluster) -> None:  # pragma: no cover - default no-op
        """One-time setup against the built cluster (optional)."""

    def run(self, rng) -> Sequence[tuple]:
        """Return one transaction's ``(object_name, invocation)`` list."""
        raise NotImplementedError
