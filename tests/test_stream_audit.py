"""The streaming bounded-memory audit pipeline.

Four layers of guarantees:

* **retention** — the tracer's ring/consume policies bound retained
  spans while listeners still observe every span; ``clear()`` notifies
  listeners so no observer keeps stale per-object state;
* **fidelity** — the streaming auditor's verdict is byte-identical to
  the deep auditor's on the tier-1 workload matrix, and every seeded
  protocol mutation is still flagged under a deliberately tiny window;
* **maintenance** — compaction + pruning + retirement keep the
  transaction table, recorders, and committed history bounded without
  perturbing correctness;
* **artifacts** — soak runs, stream writers, and the plan/report pair
  emit well-formed machine-readable output.
"""

from __future__ import annotations

import io
import json
from dataclasses import replace

import pytest

import repro.__main__ as cli
from repro.obs.audit import (
    DEFAULT_STREAM_WINDOW,
    STREAMING_INVARIANTS,
    Auditor,
    LogConsistencyMonitor,
    QuorumIntersectionMonitor,
    TimestampOrderMonitor,
    streaming_monitors,
)
from repro.obs.export import (
    ChromeTraceStreamWriter,
    JsonlStreamWriter,
    open_stream_writer,
    parse_jsonl,
)
from repro.obs.mutations import EXPECTED_INVARIANT, MUTATIONS
from repro.obs.soak import (
    SoakConfig,
    run_soak,
    streaming_matches_deep,
)
from repro.obs.trace import TraceListener, Tracer
from repro.scenarios import SCENARIOS, build_scenario
from repro.txn.ids import ActionId

pytestmark = [pytest.mark.obs, pytest.mark.streaming]


class _CountingListener(TraceListener):
    def __init__(self):
        self.ended = 0
        self.cleared = 0

    def on_span_end(self, span):
        self.ended += 1

    def on_clear(self):
        self.cleared += 1


# -- span retention ---------------------------------------------------------


class TestRetention:
    def test_ring_bounds_retention_but_listeners_see_everything(self):
        tracer = Tracer(retention="ring", window=8)
        listener = _CountingListener()
        tracer.add_listener(listener)
        for _ in range(50):
            tracer.end_span(tracer.start_span("op"))
        assert listener.ended == 50
        assert tracer.retained_spans == 8
        assert tracer.peak_retained <= 8 + 1  # window + one open span
        assert len(tracer.finished_spans()) == 8

    def test_all_mode_is_the_default_and_keeps_everything(self):
        tracer = Tracer()
        assert tracer.retention == "all"
        for _ in range(10):
            tracer.end_span(tracer.start_span("op"))
        assert tracer.retained_spans == 10

    def test_unknown_retention_mode_rejected(self):
        with pytest.raises(ValueError):
            Tracer(retention="bogus")

    def test_clear_notifies_listeners_and_resets_retention(self):
        tracer = Tracer(retention="ring", window=4)
        listener = _CountingListener()
        tracer.add_listener(listener)
        for _ in range(6):
            tracer.end_span(tracer.start_span("op"))
        tracer.clear()
        assert listener.cleared == 1
        assert tracer.retained_spans == 0
        # Peak survives a clear: it is a high-water mark, not a level.
        assert tracer.peak_retained >= 4

    def test_clear_mid_span_is_safe(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.clear()
        assert tracer.retained_spans == 0

    def test_clear_inside_a_step_leaves_the_stack_empty(self):
        tracer = Tracer()
        with tracer.span("quorum.final", kind="quorum") as step:
            assert tracer.event("site.crash", site=2).parent_id == step.span_id
            tracer.clear()
        assert tracer._stack == []
        assert tracer.event("after").parent_id is None


# -- streaming audit fidelity ----------------------------------------------


class TestStreamingFidelity:
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_streaming_clean_run_is_green(self, seed):
        outcome = streaming_matches_deep(seed=seed, transactions=12)
        assert outcome["match"]
        assert '"ok": true' in outcome["streaming"]

    @pytest.mark.parametrize(
        "case",
        [
            {"seed": 0, "sites": 3, "transactions": 12},
            {"seed": 3, "sites": 5, "transactions": 16},
            {"objects": 6, "placement": "ring", "sites": 5,
             "transactions": 16},
            {"crashes": True, "transactions": 16},
            {"objects": 6, "placement": "ring", "sites": 5,
             "transactions": 20},
            {"seed": 2, "sites": 5, "transactions": 20, "crashes": True},
        ],
        ids=["classic", "five-sites", "sharded", "crashy", "sharded-20",
             "crashy-five-sites"],
    )
    def test_streaming_matches_deep_byte_for_byte(self, case):
        outcome = streaming_matches_deep(**case)
        assert outcome["match"], outcome

    #: (case, SHA-256 of the sorted-key JSON of its outcome), taken while
    #: the standard workload still had a builder of its own beside
    #: ``build_scenario``; the outcome holds both verdicts byte for byte.
    #: The shard-misroute row was re-taken when every object of the
    #: standard keyspace became hybrid.  Every row was re-taken when
    #: protocol steps replaced per-probe records: ``spans_seen`` fell, and
    #: shard-misroute's violation times moved to their step's close.
    PINNED = [
        ({}, "bd40cf8ae631277114a768f0a7ead30f565ee615477a0becba321a682626461c"),
        (
            {"objects": 4, "placement": "ring", "sites": 5, "crashes": True},
            "de57b438950e9c2a673a4340b9f90ffc4efd665b5424f6706c3af3fa83959ec0",
        ),
        (
            {"mutate": "shard-misroute", "objects": 4, "placement": "ring",
             "sites": 5, "window": 16},
            "e1ac66f766e35f1f082c57f604203a09fd170f9597360bb7f1145116f787aff0",
        ),
        (
            {"mutate": "early-lock-release", "window": 16},
            "cfdd714f10bc7ef480e60e6b800a85076131f49c4d7724b8003e6325b6550691",
        ),
    ]

    @pytest.mark.parametrize(
        "case, digest", PINNED, ids=[repr(case) for case, _digest in PINNED]
    )
    def test_outcome_is_pinned(self, case, digest):
        import hashlib

        outcome = streaming_matches_deep(**case)
        assert outcome["match"]
        encoded = json.dumps(outcome, sort_keys=True).encode()
        assert hashlib.sha256(encoded).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_every_mutation_flagged_under_tiny_window(self, name):
        kwargs = {"mutate": name, "window": 16}
        if name == "shard-misroute":
            kwargs.update(objects=4, placement="ring", sites=5)
        outcome = streaming_matches_deep(**kwargs)
        assert f'"{EXPECTED_INVARIANT[name]}"' in outcome["streaming"]

    @pytest.mark.parametrize("retention, mode", [("ring", "streaming"), ("all", "deep")])
    def test_a_sharded_run_audits_green(self, retention, mode):
        tracer = Tracer(retention=retention, window=512 if retention == "ring" else None)
        cluster, generator, _names = build_scenario(
            replace(SCENARIOS["default"], objects=6),
            n_sites=5,
            placement="ring",
            tracer=tracer,
        )
        auditor = Auditor(cluster, mode=mode, window=512)
        generator.run(20)
        report = auditor.finish()
        assert report.ok, report.render()

    def test_streaming_report_carries_mode_window_and_retention(self):
        tracer = Tracer(retention="ring", window=64)
        cluster, generator, _names = build_scenario("default", n_sites=3, tracer=tracer)
        auditor = Auditor(cluster, mode="streaming", window=64)
        generator.run(8)
        report = auditor.finish()
        assert report.mode == "streaming"
        assert report.window == 64
        assert report.retained_spans <= 64
        assert report.peak_retained <= 64
        payload = report.to_dict()
        assert payload["mode"] == "streaming"
        assert payload["retained_spans"] <= 64

    def test_streaming_roster_is_the_streaming_invariants(self):
        roster = streaming_monitors(window=32)
        assert tuple(m.name for m in roster) == STREAMING_INVARIANTS

    def test_invalid_mode_rejected(self):
        from tests.helpers import cluster_of

        cluster = cluster_of(3, tracer=Tracer())
        with pytest.raises(ValueError):
            Auditor(cluster, mode="shallow")


# -- clear regression (the auditor must reset per-object state) -------------


class TestClearRegression:
    def _run_once(self, tracer, cluster, generator, transactions=8):
        generator.run(transactions)

    def test_auditor_state_resets_on_clear(self):
        tracer = Tracer()
        cluster, generator, _names = build_scenario("default", n_sites=3, tracer=tracer)
        auditor = Auditor(cluster, mode="streaming")
        generator.run(8)
        before = auditor.retained_state()
        assert sum(before.values()) > 0
        tracer.clear()
        after = auditor.retained_state()
        assert after["txn_labels"] == 0
        assert after["recorders"] == 0
        assert after["recent_events"] == 0
        assert after["monitor_cells"] == 0

    def test_run_after_clear_stays_green_in_both_modes(self):
        # Without on_clear, LogConsistencyMonitor would hold canonical
        # entries for logs whose spans were discarded, and the deep
        # history monitors would replay a truncated history — both are
        # false-positive factories.  After the clear protocol, a
        # continued run must stay green.
        for mode in ("deep", "streaming"):
            tracer = Tracer()
            cluster, generator, _names = build_scenario(
                "default", n_sites=3, tracer=tracer
            )
            auditor = Auditor(cluster, mode=mode)
            generator.run(8)
            tracer.clear()
            generator.run(8)
            report = auditor.finish()
            assert report.ok, (mode, report.render())

    def test_monitor_on_clear_drops_observed_state_keeps_declared(self):
        monitor = QuorumIntersectionMonitor(window=8)
        monitor._declared["q"] = {}
        monitor._remember(monitor._initials.setdefault("q", {}),
                          ("q", "Enq"), frozenset({1, 2}))
        assert monitor.state_cells() == 1
        monitor.on_clear()
        assert monitor.state_cells() == 0
        assert "q" in monitor._declared

        log_monitor = LogConsistencyMonitor(window=8)
        log_monitor._canonical["q"] = {1: None}
        log_monitor._last_log[("q", 0)] = None
        log_monitor.on_clear()
        assert log_monitor.state_cells() == 0

        ts_monitor = TimestampOrderMonitor()
        ts_monitor._last_commit = object()
        ts_monitor.on_clear()
        assert ts_monitor.state_cells() == 0


# -- windowed monitors bound their state ------------------------------------


class TestWindowedMonitors:
    @staticmethod
    def _bound(window):
        """A quorum monitor on a ten-site queue, fed synthetic quorum spans:
        initial ones for Deq, final ones for Enq, a pair (``Deq ≥
        Enq;Ok``) the queue's relation requires to intersect."""
        tracer = Tracer()
        cluster, _generator, _names = build_scenario("default", n_sites=10, tracer=tracer)
        monitor = QuorumIntersectionMonitor(window=window)
        auditor = Auditor(cluster, [monitor], max_per_invariant=100)

        def observe(phase, members):
            tracer.end_span(
                tracer.start_span(
                    "quorum", kind="quorum", object="queue", phase=phase,
                    op="Deq" if phase == "initial" else "Enq", quorum=members,
                )
            )

        def disjoint_initials():
            """The initial quorums a final quorum was reported disjoint from."""
            return [
                v.message.split("initial quorum ")[1].split(" of ")[0]
                for v in auditor.finish().violations
                if "is disjoint from" in v.message
            ]

        return monitor, observe, disjoint_initials

    def test_quorum_monitor_window_evicts_oldest(self):
        monitor, observe, disjoint_initials = self._bound(window=3)
        for i in range(10):
            observe("initial", [i])
            assert monitor.state_cells() == min(i + 1, 3)
        observe("initial", [8])  # seen again: most recent, not a new cell
        observe("initial", [10])
        assert monitor.state_cells() == 3
        observe("final", [0])
        assert monitor.state_cells() == 4
        # [7] went when [10] came: [8] had been refreshed past it.
        assert disjoint_initials() == ["[9]", "[8]", "[10]"]

    def test_deep_monitor_is_unbounded(self):
        monitor, observe, disjoint_initials = self._bound(window=None)
        for i in range(10):
            observe("initial", [i])
        assert monitor.state_cells() == 10
        observe("final", [0])
        assert monitor.state_cells() == 11
        assert disjoint_initials() == [f"[{i}]" for i in range(1, 10)]


# -- txn ids and retirement -------------------------------------------------


class TestRetirement:
    def test_action_id_parse_round_trips(self):
        action = ActionId(17, 3)
        assert ActionId.parse(str(action)) == action

    @pytest.mark.parametrize(
        "text", ["", "17@3", "Tx@3", "T17", "T17@", "T@3", "T1.5@2"]
    )
    def test_action_id_parse_rejects_garbage(self, text):
        assert ActionId.parse(text) is None

    def test_manager_lookup_and_retire(self):
        from repro.txn.manager import TransactionManager

        tm = TransactionManager()
        txn = tm.begin(site=0)
        assert tm.lookup(txn.id) is txn
        # Active transactions are never retired.
        assert tm.retire([txn.id]) == 0
        tm.commit(txn)
        assert tm.retire([txn.id]) == 1
        assert tm.lookup(txn.id) is None
        assert tm.retire([txn.id]) == 0  # idempotent

    def test_snapshot_prune_and_replace(self):
        from repro.replication.repository import Repository
        from repro.replication.snapshot import Snapshot

        a, b = ActionId(1, 0), ActionId(2, 0)
        snapshot = Snapshot(
            state=(),
            covered=frozenset({a}),
            discarded=frozenset({b}),
            last_commit_ts=None,
            events_folded=2,
        )
        pruned = snapshot.prune()
        assert pruned.retired == 2
        assert not pruned.covered and not pruned.discarded
        assert snapshot.prune(keep=frozenset({a, b})) is snapshot
        repo = Repository(0)
        repo.install_snapshot("q", snapshot)
        # A pruned snapshot shrinks coverage: monotone install refuses,
        # administrative replacement does not.
        version = repo.log_version("q")
        repo.install_snapshot("q", pruned)
        assert repo.read_snapshot("q") is snapshot
        repo.replace_snapshot("q", pruned)
        assert repo.read_snapshot("q") is pruned
        assert repo.log_version("q") > version

    def test_recorder_forget_and_trim_committed(self):
        from repro.clocks.timestamps import Timestamp
        from repro.replication.object import (
            HistoryRecorder,
            SynchronizationState,
        )

        recorder = HistoryRecorder()
        recorder.trace = [("commit", ActionId(1, 0), None),
                          ("commit", ActionId(2, 0), None)]
        recorder.begin_ts[ActionId(1, 0)] = Timestamp(1, 0)
        assert recorder.forget({ActionId(1, 0)}) == 1
        assert len(recorder.trace) == 1
        assert recorder.forget(frozenset()) == 0

        sync = SynchronizationState()
        sync.committed.insert(Timestamp(1, 0), Timestamp(2, 0), ())
        sync.committed.insert(Timestamp(3, 0), Timestamp(4, 0), ())
        assert sync.trim_committed(Timestamp(2, 0)) == 1
        assert len(sync.committed) == 1


# -- the soak ---------------------------------------------------------------


class TestSoak:
    def test_soak_bounds_memory_and_audits_green(self):
        result = run_soak(
            SoakConfig(
                ops=2500, window=128, compact_every=10, objects=4, sites=5
            )
        )
        assert result.ok, result.to_dict()
        assert result.peak_retained <= 128
        assert result.report is not None and result.report.ok
        # Maintenance actually ran and kept the tables flat.
        assert result.maintenance["compactions"] > 0
        assert result.maintenance["retired_txns"] > 0
        assert result.live_txns <= 4 * result.config.concurrency
        payload = result.to_dict()
        assert payload["retained_ok"] is True
        assert payload["audit"]["ok"] is True

    def test_a_25k_operation_soak_stays_inside_its_window(self):
        result = run_soak(SoakConfig(ops=25_000, window=512, compact_every=25))
        assert result.retained_ok, result.to_dict()
        assert result.report is not None and result.report.ok, result.to_dict()

    def test_soak_without_audit_runs_untraced(self):
        result = run_soak(
            SoakConfig(ops=500, audit=False, compact_every=10, objects=2)
        )
        assert result.ok
        assert result.report is None
        assert result.retention == "none"
        assert result.peak_retained == 0

    def test_soak_config_validation(self):
        from repro.errors import SpecificationError

        with pytest.raises(SpecificationError):
            SoakConfig(ops=0)
        with pytest.raises(SpecificationError):
            SoakConfig(window=0)
        with pytest.raises(SpecificationError):
            SoakConfig(compact_every=0)

    def test_soak_mix_drains_faster_than_it_fills(self):
        from repro.obs.soak import soak_mix
        from repro.replication.keyspace import soak_keyspace

        spec = soak_keyspace(2, 5, replication_factor=3)
        mix = soak_mix(spec)
        by_op: dict[str, float] = {}
        for (_, invocation), weight in mix.choices:
            by_op[invocation.op] = by_op.get(invocation.op, 0.0) + weight
        # Consumers must outweigh producers so queue length random-walks
        # toward empty instead of growing without bound.
        assert by_op["Deq"] > by_op["Enq"]

    def test_soak_trims_oracle_caches(self):
        from repro.obs.soak import SoakMaintenance
        from repro.replication.cluster import build_keyspace
        from repro.replication.keyspace import soak_keyspace

        spec = soak_keyspace(2, 5, replication_factor=3)
        cluster = build_keyspace(spec, seed=0)
        maintenance = SoakMaintenance(cluster, every=5, oracle_cache_limit=1)
        # Grow one oracle past the (tiny) limit, then run a round.
        from repro.histories.events import Event, Invocation, ok

        obj = next(iter(cluster.tm.objects.values()))
        oracle = obj.oracle
        history = tuple(
            Event(Invocation("Enq", (value,)), ok())
            for value in ("a", "b", "a")
        )
        assert oracle.is_legal(history)
        assert oracle.cache_nodes() > 1
        maintenance.run_round()
        assert maintenance.oracle_trims >= 1
        assert oracle.cache_nodes() == 1
        assert maintenance.to_dict()["oracle_trims"] == maintenance.oracle_trims
        # The memo is a pure cache: answers are identical after a trim.
        assert oracle.is_legal(history)


# -- stream writers ---------------------------------------------------------


class TestStreamWriters:
    def _traced_run(self, writer_factory):
        tracer = Tracer(retention="ring", window=16)
        handle = io.StringIO()
        writer = writer_factory(handle)
        tracer.add_listener(writer)
        for i in range(24):
            with tracer.span("op", site=i % 3):
                tracer.event("mark", site=i % 3)
        writer.close()
        return writer, handle.getvalue()

    def test_jsonl_stream_round_trips(self):
        writer, text = self._traced_run(JsonlStreamWriter)
        spans = parse_jsonl(text)
        assert writer.spans_written == 48  # 24 spans + 24 events
        assert len(spans) == 48
        assert {s.name for s in spans} == {"op", "mark"}

    def test_chrome_stream_is_loadable_json(self):
        writer, text = self._traced_run(ChromeTraceStreamWriter)
        document = json.loads(text)
        assert writer.spans_written == 48
        events = document["traceEvents"]
        assert [e for e in events if e.get("ph") == "M"]
        assert len([e for e in events if e.get("ph") != "M"]) == 48
        writer.close()  # idempotent

    def test_open_stream_writer_dispatch(self):
        assert isinstance(
            open_stream_writer("jsonl", io.StringIO()), JsonlStreamWriter
        )
        with pytest.raises(ValueError):
            open_stream_writer("tree", io.StringIO())


# -- run artifacts ----------------------------------------------------------


class TestRunArtifacts:
    def test_plan_report_pair_written_sorted(self, tmp_path):
        from repro.obs.runreport import (
            make_plan,
            make_report,
            write_run_artifacts,
        )

        plan = make_plan("soak", config={"ops": 10})
        report = make_report("soak", ok=True, result={"ops": 10})
        plan_path, report_path = write_run_artifacts(
            str(tmp_path / "artifacts"), plan, report
        )
        loaded_plan = json.loads(open(plan_path).read())
        loaded_report = json.loads(open(report_path).read())
        assert loaded_plan["artifact"] == "plan"
        assert loaded_plan["version"] == 1
        assert loaded_report["artifact"] == "report"
        assert loaded_report["ok"] is True


# -- CLI --------------------------------------------------------------------


class TestCli:
    def run_cli(self, argv, capsys):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out

    def test_soak_subcommand_json(self, capsys, tmp_path):
        code, out = self.run_cli(
            [
                "soak", "--ops", "600", "--objects", "2", "--window", "96",
                "--compact-every", "10", "--format", "json",
                "--artifacts", str(tmp_path / "art"),
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["peak_retained"] <= 96
        plan = json.loads((tmp_path / "art" / "plan.json").read_text())
        report = json.loads((tmp_path / "art" / "report.json").read_text())
        assert plan["command"] == "soak"
        assert report["ok"] is True

    def test_audit_streaming_flag(self, capsys):
        code, out = self.run_cli(
            [
                "audit", "--streaming", "--window", "64", "--seed", "0",
                "--sites", "3", "--transactions", "6", "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "streaming"
        assert payload["window"] == 64
        assert payload["peak_retained"] <= 64

    def test_trace_stream_jsonl(self, capsys, tmp_path):
        target = tmp_path / "trace.jsonl"
        code, _out = self.run_cli(
            [
                "trace", "--stream", "--format", "jsonl", "--seed", "0",
                "--sites", "3", "--transactions", "4", "-o", str(target),
            ],
            capsys,
        )
        assert code == 0
        spans = parse_jsonl(target.read_text())
        assert spans and any(s.name == "transaction" for s in spans)

    def test_trace_stream_rejects_tree(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["trace", "--stream", "--format", "tree"])
