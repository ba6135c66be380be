"""Unit tests for metric recording: the run record and the table renderer."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import render_table
from repro.sim.metrics import MetricRecorder


class TestMetricRecorder:
    def test_counts_by_operation_and_outcome(self):
        metrics = MetricRecorder()
        metrics.record("Enq", "ok")
        metrics.record("Enq", "ok")
        metrics.record("Enq", "conflict")
        assert metrics.summary()["Enq"]["attempts"] == 3.0
        assert metrics.outcomes["Enq", "ok"] == 2

    def test_availability_counts_only_unavailable(self):
        metrics = MetricRecorder()
        metrics.record("Deq", "ok")
        metrics.record("Deq", "conflict")
        metrics.record("Deq", "unavailable")
        metrics.record("Deq", "unavailable")
        assert metrics.summary()["Deq"]["availability"] == pytest.approx(0.5)

    def test_success_and_conflict_rates(self):
        metrics = MetricRecorder()
        metrics.record("Deq", "ok")
        metrics.record("Deq", "conflict")
        row = metrics.summary()["Deq"]
        assert row["success_rate"] == pytest.approx(0.5)
        assert row["conflict_rate"] == pytest.approx(0.5)

    def test_an_untouched_operation_has_no_row(self):
        metrics = MetricRecorder()
        metrics.record("Enq", "ok")
        assert "Pop" not in metrics.summary()

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError):
            MetricRecorder().record("Enq", "exploded")

    def test_commits_and_aborts_are_counted(self):
        metrics = MetricRecorder()
        for _ in range(3):
            metrics.record_commit()
        metrics.record_abort()
        assert (metrics.committed_transactions, metrics.aborted_transactions) == (3, 1)

    def test_degraded_counts_as_available_but_not_as_ok(self):
        metrics = MetricRecorder()
        metrics.record("Read", "ok")
        metrics.record("Read", "degraded")
        row = metrics.summary()["Read"]
        assert row["availability"] == pytest.approx(1.0)
        assert row["success_rate"] == pytest.approx(0.5)
        assert metrics.outcomes["Read", "degraded"] == 1
        assert metrics.counts()["degraded"] == 1

    def test_operations_are_sorted_and_distinct(self):
        metrics = MetricRecorder()
        for op, outcome in (("Enq", "ok"), ("Deq", "ok"), ("Enq", "conflict")):
            metrics.record(op, outcome)
        assert tuple(metrics.summary()) == ("Deq", "Enq")

    def test_an_empty_record_reports_nothing(self):
        metrics = MetricRecorder()
        assert metrics.summary() == {}
        assert metrics.counts() == dict.fromkeys(
            ("attempted", "succeeded", "degraded", "unavailable", "conflict",
             "aborted_ops"), 0,
        )  # fmt: skip
        assert metrics.export()["counters"] == {}

    def test_counts_total_each_outcome_over_every_operation(self):
        metrics = MetricRecorder()
        for op, outcome in (
            ("Enq", "ok"), ("Deq", "ok"), ("Deq", "aborted"), ("Read", "degraded"),
            ("Enq", "unavailable"), ("Enq", "conflict"), ("Enq", "conflict"),
        ):  # fmt: skip
            metrics.record(op, outcome)
        assert metrics.counts() == {
            "attempted": 7,
            "succeeded": 2,
            "degraded": 1,
            "unavailable": 1,
            "conflict": 2,
            "aborted_ops": 1,
        }
        assert metrics.outcome_counts() == {
            "Deq/aborted": 1,
            "Deq/ok": 1,
            "Enq/conflict": 2,
            "Enq/ok": 1,
            "Enq/unavailable": 1,
            "Read/degraded": 1,
        }

    def test_latency_is_kept_per_operation_across_outcomes(self):
        metrics = MetricRecorder()
        metrics.record("Enq", "ok", latency=1.0)
        metrics.record("Enq", "unavailable", latency=9.0)
        metrics.record("Deq", "ok")
        histograms = metrics.registry.histograms
        assert histograms["latency.Enq"].count == 2
        assert histograms["latency.Enq"].max == pytest.approx(9.0)
        assert "latency.Deq" not in histograms
        assert metrics.summary()["Enq"]["latency_max"] == pytest.approx(9.0)

    def test_latency_mean(self):
        metrics = MetricRecorder()
        metrics.record("Enq", "ok", latency=2.0)
        metrics.record("Enq", "ok", latency=4.0)
        assert metrics.registry.histograms["latency.Enq"].mean == pytest.approx(3.0)

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

    def test_each_count_is_kept_once_and_named_on_export(self):
        metrics = MetricRecorder()
        metrics.record("Enq", "ok", latency=2.0)
        metrics.record("Enq", "conflict")
        metrics.record_commit()
        # The registry holds the latency histograms only ...
        assert metrics.registry.to_dict()["counters"] == {}
        assert set(metrics.registry.histograms) == {"latency.Enq"}
        # ... and the export names the record's counts in it.
        exported = metrics.export()
        assert exported["counters"] == {
            "ops.Enq.conflict": 1,
            "ops.Enq.ok": 1,
            "txn.committed": 1,
        }
        assert exported["histograms"]["latency.Enq"]["count"] == 1.0
        assert metrics.export() == exported

    def test_summary_rows_render_as_a_table(self):
        metrics = MetricRecorder()
        metrics.record("Enq", "ok", latency=2.0)
        metrics.record("Deq", "unavailable")
        text = render_table(
            ("operation", "avail%", "p50"),
            [
                (op, 100 * row["availability"], row.get("latency_p50"))
                for op, row in metrics.summary().items()
            ],
        )
        assert text.splitlines() == [
            "operation  avail%   p50",
            "-----------------------",
            "Deq          0.00     -",
            "Enq        100.00  2.00",
        ]


class TestPooled:
    def test_pooling_adds_counts_and_latencies(self):
        first, second = MetricRecorder(), MetricRecorder()
        first.record("Enq", "ok", latency=1.0)
        first.record_commit()
        second.record("Enq", "conflict", latency=3.0)
        second.record("Deq", "ok", latency=2.0)
        second.record_abort()
        pooled = MetricRecorder.pooled([first, second])
        assert pooled.outcomes == first.outcomes + second.outcomes
        assert (pooled.committed_transactions, pooled.aborted_transactions) == (1, 1)
        assert pooled.summary()["Enq"]["latency_max"] == 3.0
        # The pooled runs are left as they were.
        assert first.registry.histograms["latency.Enq"].count == 1

    def test_pooling_nothing_is_an_empty_record(self):
        pooled = MetricRecorder.pooled([])
        assert pooled.summary() == {} and pooled.export()["counters"] == {}

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.tuples(
                        st.sampled_from(("Enq", "Deq", "Read")),
                        st.sampled_from(tuple(MetricRecorder.OUTCOMES)),
                        st.one_of(
                            st.none(),
                            st.floats(0.0, 50.0, allow_nan=False),
                        ),
                    ),
                    st.sampled_from(("commit", "abort")),
                ),
                max_size=12,
            ),
            max_size=4,
        )
    )
    def test_pooled_equals_one_recorder_fed_every_run(self, runs):
        def feed(recorder, events):
            for event in events:
                if event == "commit":
                    recorder.record_commit()
                elif event == "abort":
                    recorder.record_abort()
                else:
                    recorder.record(*event)

        records = []
        for events in runs:
            records.append(MetricRecorder())
            feed(records[-1], events)
        pooled = MetricRecorder.pooled(records)
        single = MetricRecorder()
        feed(single, [event for events in runs for event in events])

        assert pooled.outcomes == single.outcomes
        assert (pooled.committed_transactions, pooled.aborted_transactions) == (
            single.committed_transactions,
            single.aborted_transactions,
        )
        assert pooled.summary() == single.summary()
        assert pooled.counts() == single.counts()
        for name, histogram in single.registry.histograms.items():
            merged = pooled.registry.histograms[name]
            for p in (0, 25, 50, 95, 99, 100):
                assert merged.quantile(p) == histogram.quantile(p)
        assert pooled.export() == single.export()


class TestRenderTable:
    def test_numbers_right_text_left_and_a_rule_under_the_header(self):
        text = render_table(
            ("name", "count", "share"),
            [("alpha", 3, 0.5), ("b", 12, None)],
            title=["a title"],
            footer=["a footer"],
        )
        assert text.splitlines() == [
            "a title",
            "name   count  share",
            "-------------------",
            "alpha      3   0.50",
            "b         12      -",
            "a footer",
        ]

    def test_a_table_without_rows_is_its_header(self):
        assert render_table(("a", "bb"), []).splitlines() == ["a  bb", "-----"]

    def test_no_cell_prints_nan(self):
        metrics = MetricRecorder()
        metrics.record("Enq", "ok", latency=2.0)
        metrics.record("Deq", "unavailable")  # no latency sample
        row = metrics.summary()
        text = render_table(
            ("operation", "p50"),
            [(op, r.get("latency_p50")) for op, r in row.items()],
        )
        assert "nan" not in text.lower() and math.isfinite(row["Enq"]["latency_p50"])
