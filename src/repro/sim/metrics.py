"""Measurement for simulation runs.

A :class:`MetricRecorder` is the one record of a run.  It keeps each
count once — how often each operation ended in each outcome, how many
transactions committed and aborted — and each operation's latency
samples, as ``latency.<operation>`` histograms in a
:class:`~repro.obs.metrics.MetricsRegistry`.  Every report reads it:
:meth:`~MetricRecorder.summary` is the per-operation row (latency as
p50/p95/p99, not a bare mean, which would hide the timeout tails the
availability experiments are about), :meth:`~MetricRecorder.counts`
an audited verdict's totals, :meth:`~MetricRecorder.pooled` several runs
as one record, and :meth:`~MetricRecorder.export` the registry snapshot
``metrics --format json`` prints.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.metrics import Histogram, MetricsRegistry


@dataclass
class MetricRecorder:
    """Outcome counts keyed by ``(operation, outcome)``, transaction
    counts, and per-operation latency histograms."""

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    outcomes: Counter = field(default_factory=Counter)
    committed_transactions: int = 0
    aborted_transactions: int = 0
    #: The registry's histogram per operation, so a record builds no names.
    _latencies: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    #: Each outcome and the name :meth:`counts` totals it under.
    #: ``degraded`` is a read-quorum-only fallback response (see
    #: :class:`~repro.resilience.policy.RetryPolicy` ``degraded_reads``):
    #: it found its initial quorum, so it is available, but it is not ``ok``.
    OUTCOMES = {
        "ok": "succeeded",
        "degraded": "degraded",
        "unavailable": "unavailable",
        "conflict": "conflict",
        "aborted": "aborted_ops",
    }

    def record(self, operation: str, outcome: str, latency: float | None = None) -> None:
        if outcome not in self.OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}")
        self.outcomes[operation, outcome] += 1
        if latency is not None:
            histogram = self._latencies.get(operation)
            if histogram is None:
                histogram = self._latency(operation)
            histogram.observe(latency)

    def record_commit(self) -> None:
        self.committed_transactions += 1

    def record_abort(self) -> None:
        self.aborted_transactions += 1

    def _latency(self, operation: str) -> Histogram:
        if operation not in self._latencies:
            name = f"latency.{operation}"
            self._latencies[operation] = self.registry.histogram(name)
        return self._latencies[operation]

    @classmethod
    def pooled(cls, records: Iterable[MetricRecorder]) -> MetricRecorder:
        """One record of several runs: what one recorder fed every run's
        outcomes, commits, aborts and latencies in turn would hold."""
        pooled = cls()
        for record in records:
            pooled.outcomes.update(record.outcomes)
            pooled.committed_transactions += record.committed_transactions
            pooled.aborted_transactions += record.aborted_transactions
            for operation, histogram in record._latencies.items():
                pooled._latency(operation).merge(histogram)
        return pooled

    def counts(self) -> dict[str, int]:
        """Operations attempted, and each outcome's total over every
        operation under its :data:`OUTCOMES` name."""
        totals = Counter()
        for (_operation, outcome), count in self.outcomes.items():
            totals[outcome] += count
        named = {name: totals[outcome] for outcome, name in self.OUTCOMES.items()}
        return {"attempted": sum(totals.values()), **named}

    def outcome_counts(self) -> dict[str, int]:
        """``{"<operation>/<outcome>": count}`` in sorted order."""
        pairs = sorted(self.outcomes.items())
        return {f"{op}/{outcome}": n for (op, outcome), n in pairs}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-operation rows: attempts, ``availability`` (the share that
        found their quorums: every outcome but ``unavailable``),
        ``success_rate`` (``ok`` alone), ``conflict_rate``, and latency
        p50/p95/p99/max once the operation has samples."""
        by_operation: dict[str, Counter] = {}
        for (operation, outcome), count in self.outcomes.items():
            by_operation.setdefault(operation, Counter())[outcome] += count
        result = {}
        for operation, counts in sorted(by_operation.items()):
            attempts = sum(counts.values())
            row = result[operation] = {
                "attempts": float(attempts),
                "availability": 1.0 - counts["unavailable"] / attempts,
                "success_rate": counts["ok"] / attempts,
                "conflict_rate": counts["conflict"] / attempts,
            }
            histogram = self._latencies.get(operation)
            if histogram is not None and histogram.count:
                for key in ("p50", "p95", "p99", "max"):
                    row[f"latency_{key}"] = getattr(histogram, key)
        return result

    def export(self) -> dict:
        """The registry's snapshot with the counts named in it:
        ``ops.<operation>.<outcome>`` per recorded pair, and
        ``txn.committed``/``txn.aborted`` once nonzero."""
        snapshot = self.registry.to_dict()
        pairs = self.outcomes.items()
        counters = {f"ops.{op}.{outcome}": n for (op, outcome), n in pairs}
        for name, count in (
            ("txn.committed", self.committed_transactions),
            ("txn.aborted", self.aborted_transactions),
        ):
            if count:
                counters[name] = count
        counters.update(snapshot["counters"])
        return {**snapshot, "counters": dict(sorted(counters.items()))}
