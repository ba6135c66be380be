"""Retry, deadline, and degraded-read policies for the replication runtime.

Herlihy's method measures how *available* typed data stays when sites
crash and networks partition — yet the raw operation protocol treats an
unassemblable quorum as a terminal error.  This module supplies the
machinery the paper implicitly assumes clients have: bounded retries
with exponential backoff over *simulated* time, per-operation deadline
budgets, and an explicit read-quorum-only degraded mode for when write
quorums are unreachable (the availability asymmetry the paper's PROM
``1/n/1`` example is built on).

Everything here is deterministic.  Backoff jitter is derived from the
policy's own seed and a caller-supplied key — never from the
simulator's RNG — so enabling or tuning a policy does not perturb the
seeded workload/failure schedule, and the same seed gives byte-identical
runs in every process and at every ``--jobs`` setting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Hashable

from repro.spec.facts import derived_once

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator
    from repro.spec.datatype import SerialDataType

__all__ = [
    "Deadline",
    "OperationResult",
    "RetryPolicy",
    "POLICIES",
    "read_only_operations",
]


#: Upper bound on distinct states explored when classifying operations
#: as read-only.  What it guarantees: the classification is sound up to
#: the explored states — an operation is reported read-only iff none of
#: its invocations moved any of them.  A finite state space (Register,
#: PROM, Bag, Directory) is explored whole, and a type whose every
#: operation mutates (Queue, Stack) stops after a few states; an
#: unbounded type with a genuine read runs into the cap on every call
#: (Counter, Account, LogObject — ~12k ``apply`` calls for Counter).
_CLASSIFY_STATE_CAP = 4096

#: Large odd multipliers for mixing jitter keys (splitmix-style); the
#: exact constants are unimportant, only that the mix is deterministic
#: across processes (no ``hash()`` of strings, which is randomized).
_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9


def _mix_key(seed: int, parts: tuple[int, ...]) -> int:
    """Fold integer key parts into one deterministic 64-bit RNG seed."""
    acc = (seed * _MIX_A + 1) & 0xFFFFFFFFFFFFFFFF
    for part in parts:
        acc ^= (part & 0xFFFFFFFFFFFFFFFF) * _MIX_B & 0xFFFFFFFFFFFFFFFF
        acc = (acc * _MIX_A + 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF
    return acc


class Deadline:
    """A per-operation budget of *simulated* time.

    Args:
        sim: the simulator whose clock the budget is measured against.
        budget: seconds of simulated time the operation may consume,
            or ``None`` for an unbounded deadline.

    A ``Deadline`` is created when an operation starts and consulted
    before each retry; it never interrupts work in progress (quorum
    probes run to completion), it only stops *further* attempts.
    """

    __slots__ = ("sim", "budget", "started_at")

    def __init__(self, sim: "Simulator", budget: float | None):
        self.sim = sim
        self.budget = budget
        self.started_at = sim.now

    @property
    def expired(self) -> bool:
        """``True`` once the operation has consumed its whole budget."""
        if self.budget is None:
            return False
        return self.sim.now - self.started_at >= self.budget

    def remaining(self) -> float:
        """Simulated seconds left, ``inf`` for an unbounded deadline."""
        if self.budget is None:
            return float("inf")
        return max(0.0, self.budget - (self.sim.now - self.started_at))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Deadline(budget={self.budget}, remaining={self.remaining():.2f})"


@dataclass(frozen=True)
class OperationResult:
    """Outcome of one front-end operation executed under a policy.

    ``degraded`` is ``True`` when the response came from the
    read-quorum-only fallback: the value is legal for the merged initial
    quorum view, but the event was *not* logged and is not part of the
    transaction — surfaced explicitly so callers can never mistake a
    degraded read for a fully replicated one.
    """

    response: object
    degraded: bool = False
    attempts: int = 1


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry policy for quorum assembly failures.

    Args:
        max_attempts: total tries per quorum phase (1 = no retries).
        base_delay: simulated seconds before the first retry.
        multiplier: exponential backoff factor between retries.
        max_delay: cap on any single backoff delay.
        jitter: fraction of the delay randomized (0 disables jitter);
            jitter draws come from a :class:`random.Random` seeded by
            ``(seed, key, attempt)`` — **not** the simulator's RNG — so
            retries never perturb the seeded workload schedule.
        op_budget: per-operation :class:`Deadline` budget in simulated
            seconds (``None`` = unbounded); retries stop once spent.
        txn_attempts: times a whole transaction whose operation died of
            quorum unavailability may be re-run by the workload driver.
        degraded_reads: when the *final* quorum is unreachable but the
            operation is read-only, return the view-legal response as an
            explicit degraded result instead of aborting.
        read_only_ops: explicit override of which operations count as
            read-only for ``degraded_reads``; ``None`` classifies them
            mechanically via :func:`read_only_operations`.
        seed: jitter seed, mixed with the caller's key per draw.

    Instances are frozen; derive variants with :meth:`with_options`.
    """

    max_attempts: int = 4
    base_delay: float = 2.0
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.25
    op_budget: float | None = 120.0
    txn_attempts: int = 2
    degraded_reads: bool = False
    read_only_ops: frozenset[str] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.txn_attempts < 1:
            raise ValueError("txn_attempts must be at least 1")

    def allows(self, attempt: int, deadline: Deadline | None = None) -> bool:
        """May a retry follow failed attempt number ``attempt`` (1-based)?

        Returns ``False`` when attempts are exhausted or the operation's
        deadline budget is spent.
        """
        if attempt >= self.max_attempts:
            return False
        if deadline is not None and deadline.expired:
            return False
        return True

    def backoff(self, attempt: int, key: tuple[int, ...] = ()) -> float:
        """Simulated-time delay before retry ``attempt + 1``.

        ``key`` identifies the retrying call site (e.g. ``(site,
        sequence)``) so concurrent retriers de-synchronize; the jittered
        delay is a pure function of ``(policy.seed, key, attempt)``.
        """
        raw = self.base_delay * (self.multiplier ** (attempt - 1))
        delay = min(raw, self.max_delay)
        if self.jitter <= 0.0 or delay <= 0.0:
            return delay
        rng = random.Random(_mix_key(self.seed, key + (attempt,)))
        spread = self.jitter * delay
        return delay - spread + rng.random() * 2.0 * spread

    def deadline(self, sim: "Simulator") -> Deadline:
        """Start this policy's per-operation deadline on ``sim``'s clock."""
        return Deadline(sim, self.op_budget)

    def with_options(self, **overrides) -> "RetryPolicy":
        """A copy of this policy with the given fields replaced."""
        return replace(self, **overrides)

    @staticmethod
    def no_retry() -> "RetryPolicy":
        """The pre-policy behaviour: one attempt, fail fast, no fallback."""
        return RetryPolicy(
            max_attempts=1, txn_attempts=1, degraded_reads=False, op_budget=None
        )

    @staticmethod
    def default() -> "RetryPolicy":
        """Bounded retries at both levels, no degraded fallback."""
        return RetryPolicy()

    @staticmethod
    def degraded() -> "RetryPolicy":
        """Bounded retries plus the read-quorum-only degraded fallback."""
        return RetryPolicy(degraded_reads=True)


#: The built-in policy menu the chaos sweep runs every profile under.
POLICIES: dict[str, RetryPolicy] = {
    "no-retry": RetryPolicy.no_retry(),
    "default": RetryPolicy.default(),
    "degraded": RetryPolicy.degraded(),
}


def read_only_operations(datatype: "SerialDataType") -> frozenset[str]:
    """Operations of ``datatype`` that never change its state.

    Classified mechanically: a bounded breadth-first search over the
    states reachable from ``initial_state()`` under the generator
    alphabet checks, for every reachable state, that each of the
    operation's invocations maps the state only to itself
    (``canonical``-equal).  Queue's ``Deq`` mutates; Register's ``Read``
    does not — exactly the distinction the degraded-read fallback needs.

    Derived once per data type value
    (:func:`~repro.spec.facts.derived_once`): every object of an equal
    data type, in every cluster, gets the same frozenset.  Raises
    nothing: an operation absent from the alphabet is simply never
    classified read-only.
    """
    return derived_once(
        datatype, "read_only_operations", lambda: _classify_read_only(datatype)
    )


def _classify_read_only(datatype: "SerialDataType") -> frozenset[str]:
    alphabet = tuple(datatype.invocations())
    candidates = set(datatype.operations())
    frontier = [datatype.initial_state()]
    seen = {datatype.canonical(frontier[0])}
    while frontier and candidates and len(seen) < _CLASSIFY_STATE_CAP:
        state = frontier.pop()
        key = datatype.canonical(state)
        for invocation in alphabet:
            for _response, nxt in datatype.apply(state, invocation):
                nxt_key = datatype.canonical(nxt)
                if nxt_key != key:
                    candidates.discard(invocation.op)
                if nxt_key not in seen:
                    seen.add(nxt_key)
                    frontier.append(nxt)
    return frozenset(candidates)
