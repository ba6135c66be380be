"""Unit tests for metric recording."""

import math

import pytest

from repro.sim.metrics import MetricRecorder


class TestMetricRecorder:
    def test_counts_by_operation_and_outcome(self):
        metrics = MetricRecorder()
        metrics.record("Enq", "ok")
        metrics.record("Enq", "ok")
        metrics.record("Enq", "conflict")
        assert metrics.attempts("Enq") == 3
        assert metrics.count("Enq", "ok") == 2

    def test_availability_counts_only_unavailable(self):
        metrics = MetricRecorder()
        metrics.record("Deq", "ok")
        metrics.record("Deq", "conflict")
        metrics.record("Deq", "unavailable")
        metrics.record("Deq", "unavailable")
        assert metrics.availability("Deq") == pytest.approx(0.5)

    def test_success_and_conflict_rates(self):
        metrics = MetricRecorder()
        metrics.record("Deq", "ok")
        metrics.record("Deq", "conflict")
        assert metrics.success_rate("Deq") == pytest.approx(0.5)
        assert metrics.conflict_rate("Deq") == pytest.approx(0.5)

    def test_nan_for_untouched_operation(self):
        metrics = MetricRecorder()
        assert math.isnan(metrics.availability("Pop"))

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError):
            MetricRecorder().record("Enq", "exploded")

    def test_commit_rate(self):
        metrics = MetricRecorder()
        for _ in range(3):
            metrics.record_commit()
        metrics.record_abort()
        assert metrics.commit_rate() == pytest.approx(0.75)

    def test_degraded_counts_as_available_but_not_as_ok(self):
        metrics = MetricRecorder()
        metrics.record("Read", "ok")
        metrics.record("Read", "degraded")
        assert metrics.availability("Read") == pytest.approx(1.0)
        assert metrics.success_rate("Read") == pytest.approx(0.5)
        assert metrics.count("Read", "degraded") == 1

    def test_operations_are_sorted_and_distinct(self):
        metrics = MetricRecorder()
        for op, outcome in (("Enq", "ok"), ("Deq", "ok"), ("Enq", "conflict")):
            metrics.record(op, outcome)
        assert metrics.operations() == ("Deq", "Enq")

    def test_rates_are_nan_before_anything_is_recorded(self):
        metrics = MetricRecorder()
        assert math.isnan(metrics.commit_rate())
        assert math.isnan(metrics.success_rate("Enq"))
        assert math.isnan(metrics.conflict_rate("Enq"))
        assert metrics.operations() == () and metrics.summary() == {}

    def test_latency_is_kept_per_operation_across_outcomes(self):
        metrics = MetricRecorder()
        metrics.record("Enq", "ok", latency=1.0)
        metrics.record("Enq", "unavailable", latency=9.0)
        metrics.record("Deq", "ok")
        assert metrics.latency_histogram("Enq").count == 2
        assert metrics.latency_histogram("Enq").max == pytest.approx(9.0)
        assert metrics.latency_histogram("Deq").count == 0

    def test_latency_mean(self):
        metrics = MetricRecorder()
        metrics.record("Enq", "ok", latency=2.0)
        metrics.record("Enq", "ok", latency=4.0)
        assert metrics.latency_histogram("Enq").mean == pytest.approx(3.0)

    def test_summary_reports_percentiles_not_bare_mean(self):
        metrics = MetricRecorder()
        # 98 fast operations and two timeout-tail stragglers: the mean
        # (~2.5) would hide what p99 exposes.
        for _ in range(98):
            metrics.record("Enq", "ok", latency=1.0)
        metrics.record("Enq", "ok", latency=50.0)
        metrics.record("Enq", "unavailable", latency=100.0)
        summary = metrics.summary()["Enq"]
        assert summary["latency_p50"] == pytest.approx(1.0)
        assert summary["latency_p95"] == pytest.approx(1.0)
        assert summary["latency_p99"] > 40.0
        assert summary["latency_max"] == pytest.approx(100.0)
        assert summary["attempts"] == 100.0

    def test_summary_without_latency_samples(self):
        metrics = MetricRecorder()
        metrics.record("Enq", "ok")
        summary = metrics.summary()["Enq"]
        assert "latency_p50" not in summary
        assert summary["success_rate"] == pytest.approx(1.0)

    def test_registry_backs_the_recorder(self):
        metrics = MetricRecorder()
        metrics.record("Enq", "ok", latency=2.0)
        metrics.record("Enq", "conflict")
        metrics.record_commit()
        registry = metrics.registry
        assert registry.counters["ops.Enq.ok"].value == 1
        assert registry.counters["ops.Enq.conflict"].value == 1
        assert registry.counters["txn.committed"].value == 1
        assert registry.histograms["latency.Enq"].count == 1

    def test_table_includes_percentiles_when_sampled(self):
        metrics = MetricRecorder()
        metrics.record("Enq", "ok", latency=2.0)
        text = metrics.table()
        assert "p50" in text and "p99" in text

    def test_table_renders_all_operations(self):
        metrics = MetricRecorder()
        metrics.record("Enq", "ok")
        metrics.record("Deq", "unavailable")
        metrics.record_commit()
        text = metrics.table()
        assert "Enq" in text and "Deq" in text and "commit rate" in text
