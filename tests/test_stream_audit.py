"""The streaming bounded-memory audit pipeline.

Four layers of guarantees:

* **retention** — the tracer's ring/consume policies bound retained
  spans while listeners still observe every span;
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
from types import SimpleNamespace

import pytest

import repro.__main__ as cli
from repro.errors import ConflictError
from repro.obs.audit import (
    DEFAULT_STREAM_WINDOW,
    Auditor,
    QuorumIntersectionMonitor,
    streaming_monitors,
)
from repro.obs.export import (
    ChromeTraceStreamWriter,
    JsonlStreamWriter,
    open_stream_writer,
    parse_jsonl,
)
from repro.obs.mutations import EXPECTED_INVARIANT, MUTATIONS
from repro.obs.soak import SoakConfig, run_soak
from repro.obs.trace import DEFAULT_WINDOW, TraceListener, Tracer
from repro.scenarios import SCENARIOS, build_scenario
from repro.sim.kernel import Simulator
from repro.txn.ids import ActionId
from tests.helpers import audit_verdict

pytestmark = [pytest.mark.obs, pytest.mark.streaming]

#: The invariants the streaming monitor set checks — the six online
#: checks; history-capture and one-copy-serializability need the full
#: history and stay deep-mode-only.
STREAMING_INVARIANTS = (
    "quorum-intersection",
    "reconfig-epoch",
    "lock-discipline",
    "timestamp-order",
    "log-consistency",
    "genuine-partial-replication",
)


def streaming_matches_deep(
    *,
    seed=0,
    sites=3,
    transactions=12,
    objects=1,
    placement="all",
    window=DEFAULT_STREAM_WINDOW,
    crashes=False,
    mutate=None,
):
    """One workload, two auditors, byte-compared verdicts.

    Builds the standard workload (``SCENARIOS["default"]`` with
    ``objects`` objects, all hybrid, through ``build_scenario``),
    attaches a deep auditor *and* a streaming auditor to the same tracer,
    runs it once, and compares
    ``json.dumps(audit_verdict(report, STREAMING_INVARIANTS), sort_keys=True)``
    byte for byte.  With ``mutate`` the seeded protocol sabotage is
    applied after both auditors have pinned the declared configuration,
    so both must flag it identically.
    """
    cluster, generator, _names = build_scenario(
        replace(SCENARIOS["default"], objects=objects),
        seed=seed,
        n_sites=sites,
        placement=placement,
        crashes=(60.0, 8.0) if crashes else None,
        tracer=Tracer(),
    )
    deep = Auditor(cluster, mode="deep")
    streaming = Auditor(cluster, mode="streaming", window=window)
    if mutate is not None:
        MUTATIONS[mutate](cluster)
    generator.run(transactions)
    deep_verdict = json.dumps(
        audit_verdict(deep.finish(), STREAMING_INVARIANTS), sort_keys=True
    )
    streaming_verdict = json.dumps(
        audit_verdict(streaming.finish(), STREAMING_INVARIANTS), sort_keys=True
    )
    return {
        "case": {
            "seed": seed,
            "sites": sites,
            "transactions": transactions,
            "objects": objects,
            "placement": placement,
            "window": window,
            "crashes": crashes,
            "mutate": mutate,
        },
        "match": deep_verdict == streaming_verdict,
        "deep": deep_verdict,
        "streaming": streaming_verdict,
    }


class _CountingListener(TraceListener):
    def __init__(self):
        self.ended = 0

    def on_span_end(self, span):
        self.ended += 1


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
        assert sum(span.finished for span in tracer.spans) == 8

    def test_all_mode_is_the_default_and_keeps_everything(self):
        tracer = Tracer()
        assert tracer.retention == "all"
        for _ in range(10):
            tracer.end_span(tracer.start_span("op"))
        assert tracer.retained_spans == 10

    def test_unknown_retention_mode_rejected(self):
        with pytest.raises(ValueError):
            Tracer(retention="bogus")

    def test_window_must_be_a_positive_span_count(self):
        with pytest.raises(ValueError):
            Tracer(retention="ring", window=0)
        assert Tracer(retention="ring").window == DEFAULT_WINDOW
        assert Tracer(window=8).window is None  # only a ring has a window

    def test_peak_retained_is_the_high_water_mark(self):
        tracer = Tracer(retention="ring", window=4)
        outer = tracer.start_span("outer")
        for _ in range(2):
            tracer.start_span("inner")
        assert tracer.peak_retained == tracer.retained_spans == 3
        for _ in range(10):
            tracer.end_span(tracer.start_span("op"))
        tracer.end_span(outer)
        assert tracer.retained_spans == 4
        assert tracer.peak_retained == 4


# -- span lifecycle -----------------------------------------------------------


class TestSpanLifecycle:
    def test_a_span_closes_once(self):
        tracer = Tracer()
        listener = _CountingListener()
        tracer.add_listener(listener)
        span = tracer.start_span("op")
        tracer.end_span(span, "conflict")
        end = span.end
        tracer.end_span(span, "ok")
        assert (span.end, span.outcome) == (end, "conflict")
        assert tracer.closed == listener.ended == 1

    def test_a_with_block_closes_with_its_exception_outcome(self):
        tracer = Tracer()
        with pytest.raises(ConflictError):
            with tracer.span("op") as span:
                raise ConflictError("held", fatal=False)
        assert (span.outcome, span.attrs["conflict_kind"]) == ("conflict", "wait")
        with pytest.raises(KeyError):
            with tracer.span("other") as other:
                raise KeyError("boom")
        assert other.outcome == "error" and "conflict_kind" not in other.attrs
        # Both blocks left the implicit parent stack empty.
        assert tracer.start_span("after").parent_id is None

    def test_an_explicit_parent_overrides_the_stack(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        with tracer.span("outer") as outer:
            inner = tracer.start_span("inner")
            crossing = tracer.start_span("crossing", parent=root)
        assert inner.parent_id == outer.span_id
        assert crossing.parent_id == root.span_id

    def test_an_unbound_tracer_stamps_zero_until_bound(self):
        tracer = Tracer()
        early = tracer.start_span("early")
        tracer.end_span(early)
        assert early.start == early.end == tracer.now == 0.0
        sim = Simulator(seed=0)
        sim.advance(2.5)
        tracer.bind_clock(sim)
        bound = tracer.start_span("bound")
        sim.advance(1.0)
        tracer.end_span(bound)
        assert (bound.start, bound.end) == (2.5, 3.5)
        # A span stamped before the binding keeps its 0.0.
        assert (early.start, early.end) == (0.0, 0.0)

    def test_an_event_is_a_closed_zero_length_span(self):
        sim = Simulator(seed=0)
        tracer = Tracer(sim)
        sim.advance(3.0)
        event = tracer.event("site.crash", site=2, cause="test")
        assert (event.kind, event.site, event.attrs) == ("event", 2, {"cause": "test"})
        assert event.finished and event.start == event.end == 3.0
        assert event.duration == 0.0 and tracer.closed == 1


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
        stored = repo.peek_log("q")
        repo.install_snapshot("q", pruned)
        assert repo.read_fragment("q") == (stored, snapshot)
        assert repo.read_snapshot("q") is snapshot
        repo.replace_snapshot("q", pruned)
        assert repo.read_fragment("q") == (stored, pruned)
        assert repo.read_snapshot("q") is pruned

    def test_recorder_forget_and_trim_committed(self):
        from repro.clocks.timestamps import Timestamp
        from repro.histories.events import event
        from repro.replication.log import LogEntry
        from repro.replication.object import (
            HistoryRecorder,
            SynchronizationState,
        )
        from repro.txn.ids import Transaction

        recorder = HistoryRecorder()
        recorder.trace = [("commit", ActionId(1, 0), None),
                          ("commit", ActionId(2, 0), None)]
        recorder.begin_ts[ActionId(1, 0)] = Timestamp(1, 0)
        assert recorder.forget({ActionId(1, 0)}) == 1
        assert len(recorder.trace) == 1
        assert recorder.forget(frozenset()) == 0

        sync = SynchronizationState("commit")
        for seq in (1, 2):
            txn = Transaction(ActionId(seq, 0), Timestamp(2 * seq - 1, 0))
            enq = event("Enq", (str(seq),))
            sync.record(txn.id, LogEntry(Timestamp(10 + seq, 0), enq, txn.id))
            txn.commit_ts = Timestamp(2 * seq, 0)
            sync.finalize_commit(txn)
        snapshot = SimpleNamespace(state=None, last_commit_ts=Timestamp(2, 0))
        assert sync.trim_committed(snapshot) == 1
        assert len(sync.committed.marks) == 1


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
        from repro.replication.keyspace import soak_keyspace
        from repro.scenarios import compile_mix

        spec = soak_keyspace(2, 5, replication_factor=3)
        mix = compile_mix(spec.objects, SoakConfig().scenario(), seed=0)
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
