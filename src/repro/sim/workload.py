"""Workload driving: concurrent transaction streams over replicated objects.

:class:`WorkloadGenerator` is the execution engine under every
measured claim row, chaos sweep, soak, and scenario in the repository.  It is
*not* tied to one traffic shape: the engine interleaves in-flight
transactions one operation at a time (picking the next runnable
transaction pseudo-randomly from the simulator's seeded RNG) and two
orthogonal hooks decide what those transactions contain and when they
arrive:

* **what** — every transaction body comes from a ``workload`` object
  (anything with the ``run(rng)`` method of the
  :class:`~repro.scenarios.ScenarioWorkload` contract).  The default is
  :class:`MixWorkload`: ``ops_per_transaction`` draws from an
  :class:`OperationMix`; passing another replaces it with user-defined
  transaction bodies, pgWorkload-style.  The declarative
  :class:`~repro.scenarios.ScenarioSpec` layer compiles operation
  mixes, zipf key skew, and arrival processes onto these same hooks —
  see :mod:`repro.scenarios` and ``docs/SCENARIOS.md``;
* **when** — by default the driver is a *closed loop*: a fixed pool of
  ``concurrency`` transactions where a finished transaction is
  immediately replaced (think time ``think_time`` per step).  Passing
  ``arrivals`` — a non-decreasing schedule of simulated-time instants —
  switches admission to an *open loop*: transaction ``k`` is admitted
  only once the driver's pacing clock reaches ``arrivals[k]``, with
  ``concurrency`` acting as an admission-backlog cap.  The pacing clock
  advances ``think_time`` per driver step and jumps to the next arrival
  when the pool idles, so admission is a function of the driver's own
  steps and not of how the protocol charges latency to the kernel
  clock: ``tests/test_golden_runs.py`` pins open-loop fingerprints, and
  a change to quorum fan-out timing (``sim.now``) must not move which
  transaction is admitted when — the same reason chaos schedules are
  indexed by transaction boundary rather than by ``sim.now``.

Neither hook perturbs seeded runs: with ``workload=None`` and
``arrivals=None`` the driver draws exactly the RNG sequence it always
has, and the compiled default scenario is test-enforced byte-identical
to it (``tests/test_scenarios.py``, ``tests/test_golden_runs.py``).

Outcomes feed the :class:`~repro.sim.metrics.MetricRecorder`:

* ``ok`` — the operation executed;
* ``unavailable`` — no initial quorum could be assembled (the paper's
  availability criterion); when the front-end's
  :class:`~repro.resilience.policy.RetryPolicy` is in force this already
  includes every allowed retry, and the *transaction* may still be
  re-run up to ``policy.txn_attempts`` times;
* ``degraded`` — the operation was served in read-quorum-only mode (the
  policy's ``degraded_reads`` fallback): a legal response from the
  initial quorum alone, explicitly outside the transaction's logged
  history — never counted as ``ok``;
* ``conflict`` — the concurrency-control scheme refused: non-fatal
  conflicts make the transaction *wait* for the lock holder (with
  waits-for deadlock detection choosing victims), fatal conflicts abort
  it (timestamp-order violations);
* ``aborted`` — the transaction died mid-operation (final-quorum write
  failure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ConflictError, TransactionAborted, UnavailableError
from repro.histories.events import Invocation
from repro.replication.frontend import FrontEnd
from repro.sim.kernel import Simulator
from repro.sim.metrics import MetricRecorder
from repro.txn.deadlock import WaitsForGraph
from repro.txn.ids import ActionId, Transaction
from repro.txn.manager import TransactionManager


@dataclass(frozen=True)
class OperationMix:
    """A weighted menu of invocations against named objects.

    ``choices`` maps ``(object_name, invocation)`` to a positive weight.
    """

    choices: tuple[tuple[tuple[str, Invocation], float], ...]

    @staticmethod
    def uniform(object_name: str, invocations: Sequence[Invocation]) -> "OperationMix":
        return OperationMix(
            tuple(((object_name, inv), 1.0) for inv in invocations)
        )

    @staticmethod
    def weighted(
        items: Sequence[tuple[str, Invocation, float]]
    ) -> "OperationMix":
        return OperationMix(
            tuple(((name, inv), weight) for name, inv, weight in items)
        )

    def sample(self, rng) -> tuple[str, Invocation]:
        total = sum(weight for _choice, weight in self.choices)
        point = rng.random() * total
        for choice, weight in self.choices:
            point -= weight
            if point <= 0:
                return choice
        return self.choices[-1][0]


class MixWorkload:
    """The built-in transaction source: sample a weighted mix.

    Performs exactly ``ops_per_transaction`` draws of ``mix.sample`` per
    transaction; the RNG consumption every seeded fingerprint is pinned
    on.
    """

    def __init__(self, mix: OperationMix, ops_per_transaction: int):
        self.mix = mix
        self.ops_per_transaction = ops_per_transaction

    def run(self, rng) -> list[tuple[str, Invocation]]:
        return [self.mix.sample(rng) for _ in range(self.ops_per_transaction)]


@dataclass
class _Script:
    """One in-flight transaction's remaining work."""

    txn: Transaction
    frontend: FrontEnd
    operations: list[tuple[str, Invocation]]
    index: int = 0
    waiting_on: ActionId | None = None
    retries_left: int = 10
    #: Times this logical transaction has been (re-)started; bounded by
    #: the front-end policy's ``txn_attempts``.
    txn_attempt: int = 1

    @property
    def done(self) -> bool:
        return self.index >= len(self.operations)


@dataclass
class WorkloadGenerator:
    """Drives ``total_transactions`` through the system concurrently."""

    sim: Simulator
    tm: TransactionManager
    frontends: Sequence[FrontEnd]
    mix: OperationMix
    ops_per_transaction: int = 3
    concurrency: int = 4
    max_retries: int = 10
    think_time: float = 0.1
    #: How lock conflicts between active transactions are resolved:
    #: "detect"     — wait; abort the requester if waiting closes a cycle;
    #: "wound-wait" — an older requester aborts (wounds) the younger
    #:                holder; a younger requester waits;
    #: "wait-die"   — an older requester waits; a younger one aborts
    #:                itself.  Both timestamp policies are deadlock-free
    #:                without cycle detection.
    deadlock_policy: str = "detect"
    #: Called with the transaction index (0-based) just before each *new*
    #: transaction begins — the chaos layer injects faults here so fault
    #: schedules are indexed by transaction boundary, not simulated time,
    #: which keeps them independent of protocol latency.  Policy
    #: retries of an existing transaction do **not** re-fire the hook.
    on_transaction_start: Callable[[int], None] | None = None
    #: Transaction source: any object with
    #: ``run(rng) -> sequence of (object_name, invocation)`` (see the
    #: :class:`~repro.scenarios.ScenarioWorkload` contract).  ``None``
    #: means :class:`MixWorkload` over ``mix`` and
    #: ``ops_per_transaction``, built once at construction.
    workload: object | None = None
    #: Open-loop arrival schedule: ``arrivals[k]`` is the pacing-clock
    #: instant (simulated-time units) at which transaction ``k`` may be
    #: admitted.  ``None`` keeps the classic closed loop.  Schedules are
    #: precomputed from a dedicated seeded RNG
    #: (:mod:`repro.scenarios.sampler`), never drawn from ``sim.rng``.
    arrivals: Sequence[float] | None = None
    metrics: MetricRecorder = field(default_factory=MetricRecorder)
    waits: WaitsForGraph = field(default_factory=WaitsForGraph)

    def __post_init__(self) -> None:
        if self.workload is None:
            self.workload = MixWorkload(self.mix, self.ops_per_transaction)

    def run(self, total_transactions: int) -> MetricRecorder:
        """Execute the workload to completion and return the metrics."""
        if self.deadlock_policy not in ("detect", "wound-wait", "wait-die"):
            raise ValueError(f"unknown deadlock policy {self.deadlock_policy!r}")
        arrivals = self.arrivals
        if arrivals is not None and len(arrivals) < total_transactions:
            raise ValueError(
                f"arrival schedule has {len(arrivals)} instants for "
                f"{total_transactions} transactions"
            )
        started = 0
        pool: list[_Script] = []
        self._pool = pool
        #: The driver's pacing clock: advances ``think_time`` per step
        #: and jumps to the next arrival on idle — a simulated-time
        #: measure independent of protocol latency (``sim.now`` is not;
        #: see the module docstring).
        pacing = 0.0
        stall_budget = 1000 * max(1, total_transactions)
        while started < total_transactions or pool:
            while (
                started < total_transactions
                and len(pool) < self.concurrency
                and (arrivals is None or arrivals[started] <= pacing)
            ):
                if self.on_transaction_start is not None:
                    self.on_transaction_start(started)
                pool.append(self._new_script())
                started += 1
            if arrivals is not None and not pool:
                # Open loop, nothing in flight: idle both clocks forward
                # to the next arrival (no RNG draws, no events invented).
                gap = arrivals[started] - pacing
                if gap > 0:
                    pacing = arrivals[started]
                    self.sim.advance(gap)
                    self.sim.run(until=self.sim.now)
                continue
            pool[:] = [s for s in pool if not self._swept(s)]
            if not pool:
                # Every in-flight script was swept (externally wounded);
                # re-enter the admission gate rather than stall-hunting
                # an empty pool.
                continue
            runnable = [s for s in pool if self._runnable(s)]
            if not runnable:
                # Everyone is waiting: break a deadlock-like stall by
                # aborting the youngest waiter (wound-wait flavor).
                victim = max(pool, key=lambda s: s.txn.begin_ts)
                self._abort(victim, "stall victim")
                pool.remove(victim)
                continue
            stall_budget -= 1
            if stall_budget <= 0:
                raise RuntimeError("workload failed to make progress")
            script = runnable[self.sim.rng.randrange(len(runnable))]
            if self._step(script):
                pool.remove(script)
            pacing += self.think_time
            self.sim.advance(self.think_time)
            # Dispatch background events (failure injectors, async
            # messages) that became due while we worked.
            self.sim.run(until=self.sim.now)
        return self.metrics

    # -- internals --------------------------------------------------------------

    def _new_script(self) -> _Script:
        # Front-ends can be replicated to an arbitrary extent (paper,
        # Section 3.2), so availability is measured from a *functioning*
        # client: prefer front-ends whose own site is up.
        live = [fe for fe in self.frontends if fe.network.is_up(fe.site)]
        candidates = live or list(self.frontends)
        frontend = candidates[self.sim.rng.randrange(len(candidates))]
        txn = self.tm.begin(site=frontend.site)
        return _Script(
            txn=txn,
            frontend=frontend,
            operations=list(self.workload.run(self.sim.rng)),
            retries_left=self.max_retries,
        )

    def _runnable(self, script: _Script) -> bool:
        if script.waiting_on is None:
            return True
        # lookup, not status_of: the holder may have been *retired* by
        # soak maintenance between its finalize and this poll — retired
        # implies finalized, so the waiter is runnable either way.
        holder = self.tm.lookup(script.waiting_on)
        if holder is None or not holder.is_active:
            script.waiting_on = None
            return True
        return False

    def _step(self, script: _Script) -> bool:
        """Advance one operation (or commit); True when the script is done."""
        if script.done:
            return self._commit(script)
        object_name, invocation = script.operations[script.index]
        # Simulated time spent inside the operation (quorum probes charge
        # latency even when they time out, so failures land in the
        # histogram tail rather than vanishing from it).
        started_at = self.sim.now
        try:
            result = script.frontend.execute_outcome(
                script.txn, object_name, invocation
            )
        except UnavailableError:
            self.metrics.record(
                invocation.op, "unavailable", latency=self.sim.now - started_at
            )
            self._abort(script, "no initial quorum")
            return not self._retry_transaction(script)
        except TransactionAborted as aborted:
            # A final-quorum failure is an availability event, not a
            # concurrency-control abort; classify by the underlying cause.
            quorum_failure = isinstance(aborted.__cause__, UnavailableError)
            self.metrics.record(
                invocation.op,
                "unavailable" if quorum_failure else "aborted",
                latency=self.sim.now - started_at,
            )
            self.metrics.record_abort()
            self.waits.remove(script.txn.id)
            if quorum_failure and self._retry_transaction(script):
                return False
            return True
        except ConflictError as conflict:
            self.metrics.record(
                invocation.op, "conflict", latency=self.sim.now - started_at
            )
            if conflict.fatal or script.retries_left <= 0:
                self._abort(script, str(conflict))
                return True
            return self._resolve_conflict(script, conflict)
        self.metrics.record(
            invocation.op,
            "degraded" if result.degraded else "ok",
            latency=self.sim.now - started_at,
        )
        script.index += 1
        return script.done and self._commit(script)

    def _retry_transaction(self, script: _Script) -> bool:
        """Re-begin an availability-aborted script under its retry policy.

        Returns ``True`` when the front-end's effective policy grants
        another transaction attempt: the script gets a fresh transaction
        and restarts its operation sequence from the top (the aborted
        attempt's abort was already recorded — retries never hide
        failures from the metrics).  The chaos boundary hook is *not*
        re-fired: a retried transaction is the same logical unit of work.
        """
        policy = script.frontend.effective_policy()
        if policy is None or script.txn_attempt >= policy.txn_attempts:
            return False
        script.txn_attempt += 1
        script.txn = self.tm.begin(site=script.frontend.site)
        script.index = 0
        script.waiting_on = None
        return True

    def _resolve_conflict(self, script: _Script, conflict: ConflictError) -> bool:
        """Apply the deadlock policy; True when the script is finished."""
        holder = conflict.holder
        script.retries_left -= 1
        if holder is None:
            script.waiting_on = None
            return False
        if self.deadlock_policy == "detect":
            if not self.waits.add_wait(script.txn.id, holder):
                self._abort(script, "deadlock victim")
                return True
            script.waiting_on = holder
            return False
        requester_older = script.txn.begin_ts < self.tm.begin_ts_of(holder)
        if self.deadlock_policy == "wound-wait":
            if requester_older:
                self._wound(holder)
                script.waiting_on = None  # retry once the wound lands
            else:
                script.waiting_on = holder
            return False
        # wait-die
        if requester_older:
            script.waiting_on = holder
            return False
        self._abort(script, "wait-die: younger requester dies")
        return True

    def _wound(self, holder) -> None:
        """Abort the (younger) holder on behalf of an older requester."""
        for other in self._pool:
            if other.txn.id == holder and other.txn.is_active:
                self.tm.abort(other.txn, "wounded by older transaction")
                self.metrics.record_abort()
                self.waits.remove(other.txn.id)
                return

    def _swept(self, script: _Script) -> bool:
        """Remove scripts whose transaction was wounded externally."""
        if script.txn.is_active:
            return False
        self.waits.remove(script.txn.id)
        return True

    def _commit(self, script: _Script) -> bool:
        try:
            self.tm.commit(script.txn)
            self.metrics.record_commit()
        except TransactionAborted:
            self.metrics.record_abort()
        self.waits.remove(script.txn.id)
        return True

    def _abort(self, script: _Script, reason: str) -> None:
        if script.txn.is_active:
            self.tm.abort(script.txn, reason)
        self.metrics.record_abort()
        self.waits.remove(script.txn.id)
