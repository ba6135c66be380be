"""Retry, deadline, and degraded-read policies for the replication runtime.

Herlihy's method measures how *available* typed data stays when sites
crash and networks partition — yet the raw operation protocol treats an
unassemblable quorum as a terminal error.  This module supplies the
machinery the paper implicitly assumes clients have: bounded retries
with exponential backoff over *simulated* time, per-operation deadline
budgets, and an explicit read-quorum-only degraded mode for when write
quorums are unreachable (the availability asymmetry the paper's PROM
``1/n/1`` example is built on).

Everything here is deterministic.  Backoff jitter is derived from a
fixed seed and a caller-supplied key — never from the
simulator's RNG — so enabling or choosing a policy does not perturb the
seeded workload/failure schedule, and the same seed gives byte-identical
runs in every process and at every ``--jobs`` setting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

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


#: The backoff schedule every policy shares: retry ``k`` waits
#: ``BASE_DELAY · MULTIPLIER^(k−1)`` simulated seconds, capped at
#: ``MAX_DELAY``, with ±``JITTER`` of it drawn from a
#: :class:`random.Random` seeded by ``(JITTER_SEED, key, attempt)`` —
#: **not** the simulator's RNG — so retries never perturb the seeded
#: workload schedule.
BASE_DELAY = 2.0
MULTIPLIER = 2.0
MAX_DELAY = 30.0
JITTER = 0.25
JITTER_SEED = 0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry policy for quorum assembly failures.

    Args:
        max_attempts: total tries per quorum phase (1 = no retries).
        op_budget: per-operation :class:`Deadline` budget in simulated
            seconds (``None`` = unbounded); retries stop once spent.
        txn_attempts: times a whole transaction whose operation died of
            quorum unavailability may be re-run by the workload driver.
        degraded_reads: when the *final* quorum is unreachable but the
            operation is read-only (:func:`read_only_operations`),
            return the view-legal response as an explicit degraded
            result instead of aborting.

    The menu the runtime uses is :data:`POLICIES`.
    """

    max_attempts: int = 4
    op_budget: float | None = 120.0
    txn_attempts: int = 2
    degraded_reads: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
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
        delay is a pure function of ``(key, attempt)``.
        """
        delay = min(BASE_DELAY * (MULTIPLIER ** (attempt - 1)), MAX_DELAY)
        rng = random.Random(_mix_key(JITTER_SEED, key + (attempt,)))
        spread = JITTER * delay
        return delay - spread + rng.random() * 2.0 * spread

    def deadline(self, sim: "Simulator") -> Deadline:
        """Start this policy's per-operation deadline on ``sim``'s clock."""
        return Deadline(sim, self.op_budget)


#: The built-in policy menu the chaos sweep runs every profile under.
POLICIES: dict[str, RetryPolicy] = {
    # The pre-policy behaviour: one attempt, fail fast, no fallback.
    "no-retry": RetryPolicy(max_attempts=1, txn_attempts=1, op_budget=None),
    # Bounded retries at both levels, no degraded fallback.
    "default": RetryPolicy(),
    # Bounded retries plus the read-quorum-only degraded fallback.
    "degraded": RetryPolicy(degraded_reads=True),
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
