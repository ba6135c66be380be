"""Seeded samplers for scenario compilation: key skew and arrivals.

Every sampler here draws from a dedicated :class:`random.Random` seeded
by integer key mixing (:func:`~repro.resilience.policy._mix_key`) under
a fixed domain constant — never from ``sim.rng`` (which the workload
consumes operation by operation) and never from string ``hash()``
(randomized per process).  That is the same discipline the chaos
schedules follow, and it is what keeps a compiled scenario inside the
determinism envelope: the same ``(scenario, seed)`` pair produces the
same hot-key ranking and the same arrival schedule in every process and
at every ``--jobs`` setting.

Arrival schedules are expressed in *simulated-time units on the
driver's pacing clock* (see :mod:`repro.sim.workload`), not on
``sim.now`` — the kernel clock moves with how quorum fan-out charges
probe latencies, and the golden table pins open-loop fingerprints that
must not move with it.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from repro.resilience.policy import _mix_key

__all__ = [
    "bursty_arrivals",
    "hot_key_ranks",
    "poisson_arrivals",
    "zipf_weights",
]

#: Domain-separation constant for scenario sampler RNGs (arbitrary,
#: fixed forever: changing it re-rolls every published scenario).
_SAMPLER_DOMAIN = 0x5CE9A

#: Sub-domains under :data:`_SAMPLER_DOMAIN`, one per sampler family,
#: so the skew shuffle and the arrival schedule never share a stream.
_SKEW_STREAM = 1
_ARRIVAL_STREAM = 2


def zipf_weights(n: int, s: float) -> tuple[float, ...]:
    """Zipf weights for ``n`` ranks: weight of rank ``r`` ∝ 1/(r+1)**s.

    ``s = 0`` degenerates to the uniform distribution (every weight
    exactly ``1.0``), which is what lets the default scenario compile to
    the legacy uniform mix byte-for-byte.  Larger ``s`` concentrates
    probability on the low ranks — ``s ≈ 1`` is the classic web-traffic
    skew, ``s > 1`` a hot-key stress.
    """
    if n < 1:
        raise ValueError("zipf_weights needs at least one rank")
    if s < 0:
        raise ValueError(f"zipf exponent must be non-negative, got {s}")
    if s == 0:
        return (1.0,) * n
    return tuple(1.0 / math.pow(rank + 1, s) for rank in range(n))


def hot_key_ranks(names: Sequence[str], seed: int) -> dict[str, int]:
    """Map each object name to its zipf rank (0 = hottest).

    Which keys are hot is part of the *seed*, not the catalog: the rank
    order is a seeded shuffle of the sorted names, so seed 0 and seed 1
    stress different keys while either seed is reproducible everywhere.
    """
    ordered = sorted(names)
    rng = random.Random(
        _mix_key(seed, (_SAMPLER_DOMAIN, _SKEW_STREAM, len(ordered)))
    )
    rng.shuffle(ordered)
    return {name: rank for rank, name in enumerate(ordered)}


def poisson_arrivals(rate: float, n: int, seed: int) -> tuple[float, ...]:
    """``n`` open-loop Poisson arrival instants at ``rate`` per time unit.

    Inter-arrival gaps are i.i.d. exponential draws; the returned tuple
    is the cumulative (non-decreasing) schedule the workload driver
    gates admission on.  Deterministic per ``(rate, n, seed)``.
    """
    if rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {rate}")
    if n < 0:
        raise ValueError("cannot schedule a negative number of arrivals")
    rng = random.Random(_mix_key(seed, (_SAMPLER_DOMAIN, _ARRIVAL_STREAM, n)))
    clock = 0.0
    schedule = []
    for _ in range(n):
        clock += rng.expovariate(rate)
        schedule.append(clock)
    return tuple(schedule)


def bursty_arrivals(
    base_rate: float,
    burst_rate: float,
    burst_length: int,
    cycle: int,
    n: int,
    seed: int,
) -> tuple[float, ...]:
    """A flash-crowd schedule: calm Poisson traffic with periodic bursts.

    Every ``cycle`` arrivals, the first ``burst_length`` of them come at
    ``burst_rate`` (the crowd) and the remainder at ``base_rate`` (the
    calm).  Both phases are exponential inter-arrival draws from one
    seeded stream, so the whole schedule is reproducible and the burst
    boundaries are indexed by arrival count — not wall or sim time —
    exactly like chaos fault boundaries.
    """
    if base_rate <= 0 or burst_rate <= 0:
        raise ValueError("arrival rates must be positive")
    if burst_length < 1 or cycle < 2 or burst_length >= cycle:
        raise ValueError(
            f"need 1 <= burst_length < cycle, got burst_length={burst_length} "
            f"cycle={cycle}"
        )
    if n < 0:
        raise ValueError("cannot schedule a negative number of arrivals")
    rng = random.Random(_mix_key(seed, (_SAMPLER_DOMAIN, _ARRIVAL_STREAM, n)))
    clock = 0.0
    schedule = []
    for index in range(n):
        rate = burst_rate if (index % cycle) < burst_length else base_rate
        clock += rng.expovariate(rate)
        schedule.append(clock)
    return tuple(schedule)
