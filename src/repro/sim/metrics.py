"""Measurement for simulation runs.

A :class:`MetricRecorder` accumulates per-operation counters —
successes, unavailability (no quorum), concurrency-control conflicts,
aborts — plus latency samples, and renders summary tables.

This module is now a thin compatibility shim over
:mod:`repro.obs.metrics`: outcome counts and latency distributions live
in a :class:`~repro.obs.metrics.MetricsRegistry` (counters named
``ops.<operation>.<outcome>``, histograms named
``latency.<operation>``), and latency summaries report p50/p95/p99
rather than a bare mean — a mean hides exactly the timeout tails the
availability experiments are about.  The original dict-shaped API
(``outcomes``, ``latencies``, ``attempts`` …) is preserved for the
claim rows and tests that post-process it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.obs.metrics import Histogram, MetricsRegistry


@dataclass
class MetricRecorder:
    """Accumulates outcome counters keyed by (operation, outcome)."""

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    outcomes: Counter = field(default_factory=Counter)
    committed_transactions: int = 0
    aborted_transactions: int = 0
    #: The registry's instruments per ``(operation, outcome)`` and per
    #: operation, so a record builds no names.
    _counters: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _latencies: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    #: ``degraded`` counts read-quorum-only fallback responses (see
    #: :class:`~repro.resilience.policy.RetryPolicy` ``degraded_reads``) —
    #: the operation *found* its initial quorum, so availability() still
    #: counts it, but it is never conflated with ``ok``.
    OUTCOMES = ("ok", "unavailable", "conflict", "aborted", "degraded")

    def record(self, operation: str, outcome: str, latency: float | None = None) -> None:
        key = (operation, outcome)
        counter = self._counters.get(key)
        if counter is None:
            if outcome not in self.OUTCOMES:
                raise ValueError(f"unknown outcome {outcome!r}")
            counter = self._counters[key] = self.registry.counter(
                f"ops.{operation}.{outcome}"
            )
        self.outcomes[key] += 1
        counter.inc()
        if latency is not None:
            histogram = self._latencies.get(operation)
            if histogram is None:
                histogram = self._latencies[operation] = self.registry.histogram(
                    f"latency.{operation}"
                )
            histogram.observe(latency)

    def record_commit(self) -> None:
        self.committed_transactions += 1
        self.registry.counter("txn.committed").inc()

    def record_abort(self) -> None:
        self.aborted_transactions += 1
        self.registry.counter("txn.aborted").inc()

    # -- derived figures -----------------------------------------------------

    def attempts(self, operation: str) -> int:
        return sum(
            count
            for (op, _outcome), count in self.outcomes.items()
            if op == operation
        )

    def count(self, operation: str, outcome: str) -> int:
        return self.outcomes[(operation, outcome)]

    def availability(self, operation: str) -> float:
        """Fraction of attempts that found quorums (ok or CC-level outcome)."""
        attempts = self.attempts(operation)
        if attempts == 0:
            return float("nan")
        unavailable = self.count(operation, "unavailable")
        return 1.0 - unavailable / attempts

    def success_rate(self, operation: str) -> float:
        attempts = self.attempts(operation)
        if attempts == 0:
            return float("nan")
        return self.count(operation, "ok") / attempts

    def conflict_rate(self, operation: str) -> float:
        attempts = self.attempts(operation)
        if attempts == 0:
            return float("nan")
        return self.count(operation, "conflict") / attempts

    def commit_rate(self) -> float:
        total = self.committed_transactions + self.aborted_transactions
        if total == 0:
            return float("nan")
        return self.committed_transactions / total

    def operations(self) -> tuple[str, ...]:
        return tuple(sorted({op for op, _outcome in self.outcomes}))

    # -- latency distributions ----------------------------------------------

    def latency_histogram(self, operation: str) -> Histogram:
        return self.registry.histogram(f"latency.{operation}")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-operation rates plus percentile latency aggregation.

        Latency is reported as p50/p95/p99 (and max), not a bare mean:
        quorum probes that ride through crashes and partitions produce
        heavy timeout tails that a mean averages away.
        """
        result: dict[str, dict[str, float]] = {}
        for op in self.operations():
            entry: dict[str, float] = {
                "attempts": float(self.attempts(op)),
                "availability": self.availability(op),
                "success_rate": self.success_rate(op),
                "conflict_rate": self.conflict_rate(op),
            }
            hist = self.latency_histogram(op)
            if hist.count:
                entry.update(
                    {
                        "latency_p50": hist.p50,
                        "latency_p95": hist.p95,
                        "latency_p99": hist.p99,
                        "latency_max": hist.max,
                    }
                )
            result[op] = entry
        return result

    def table(self) -> str:
        """A fixed-width summary table, one row per operation.

        Latency columns (p50/p95/p99, simulated time units) appear when
        any operation recorded samples.
        """
        with_latency = any(
            hist.count
            for name, hist in self.registry.histograms.items()
            if name.startswith("latency.")
        )
        header = (
            f"{'operation':<12} {'attempts':>8} {'ok':>8} {'unavail':>8} "
            f"{'conflict':>8} {'degraded':>8} {'avail%':>8} {'ok%':>8}"
        )
        if with_latency:
            header += f" {'p50':>8} {'p95':>8} {'p99':>8}"
        rows = [header, "-" * len(header)]
        for op in self.operations():
            row = (
                f"{op:<12} {self.attempts(op):>8} {self.count(op, 'ok'):>8} "
                f"{self.count(op, 'unavailable'):>8} {self.count(op, 'conflict'):>8} "
                f"{self.count(op, 'degraded'):>8} "
                f"{100 * self.availability(op):>7.2f}% {100 * self.success_rate(op):>7.2f}%"
            )
            if with_latency:
                # summary() (not the raw properties) so an operation with
                # no samples prints 0.00 columns instead of nan.
                latency = self.latency_histogram(op).summary()
                row += (
                    f" {latency['p50']:>8.2f} {latency['p95']:>8.2f} "
                    f"{latency['p99']:>8.2f}"
                )
            rows.append(row)
        if self.committed_transactions or self.aborted_transactions:
            rows.append(
                f"transactions: {self.committed_transactions} committed, "
                f"{self.aborted_transactions} aborted "
                f"({100 * self.commit_rate():.2f}% commit rate)"
            )
        return "\n".join(rows)
