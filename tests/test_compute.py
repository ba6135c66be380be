"""The compute layer: shared-pass commutativity, artifact cache, fan-out.

Covers the three equivalences the performance work must preserve:

* the shared-pass commutativity table equals the per-pair Definition 8
  reference implementation (:func:`repro.dependency.dynamic_dep.commute`);
* artifacts round-trip through the codec and the persistent cache
  byte-identically, for every catalog type;
* the behavioral fingerprint moves exactly when behavior, bound, or
  schema version moves — and an unchanged type always hits.

Plus the CLI surface (``cache stats/warm/clear``), the kernel metrics
and span plumbing, the process fan-out fallback, and the quorum
fast-path equalities.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.compute.artifacts import (
    TypeArtifacts,
    artifacts_for,
    clear_memory_cache,
    derive_artifacts,
    derive_catalog,
)
from repro.compute.cache import ArtifactCache, cache_enabled
from repro.compute.codec import (
    CodecError,
    canonical_json,
    decode_event,
    decode_value,
    encode_event,
    encode_value,
)
from repro.compute import fingerprint as fingerprint_mod
from repro.compute.fingerprint import type_fingerprint
from repro.compute.obs import (
    kernel_metrics,
    kernel_tracer,
    reset_kernel_metrics,
    set_kernel_tracer,
)
from repro.compute.parallel import parallel_map, resolve_jobs
from repro.dependency.dynamic_dep import commute, commutativity_table
from repro.histories.events import event, ok, signal
from repro.obs.trace import NULL_TRACER, Tracer
from repro.spec.enumerate import (
    alphabets,
    event_alphabet,
    legal_serial_histories,
    response_alphabet,
)
from repro.spec.legality import LegalityOracle
from repro.types import (
    PROM,
    Account,
    Bag,
    Directory,
    DoubleBuffer,
    FlagSet,
    Queue,
    standard_types,
)

pytestmark = pytest.mark.compute


class LifoQueue(Queue):
    """A behavioral mutation of Queue: Deq takes the *newest* item."""

    def apply(self, state, invocation):
        if invocation.op == "Deq" and state:
            return [(ok(state[-1]), state[:-1])]
        return super().apply(state, invocation)


class TestSharedPassEquivalence:
    """The tentpole invariant: one traversal equals per-pair Definition 8."""

    @pytest.mark.parametrize(
        "datatype", [Queue(), PROM(), FlagSet(), DoubleBuffer()], ids=lambda d: d.name
    )
    def test_table_matches_per_pair_commute(self, datatype):
        bound = 3
        oracle = LegalityOracle(datatype)
        events = event_alphabet(datatype, bound + 2, oracle)
        table = commutativity_table(datatype, bound, oracle, events)
        for i, first in enumerate(events):
            for second in events[i:]:
                expected = commute(datatype, first, second, bound, oracle)
                assert table[(first, second)] == expected, (first, second)
                assert table[(second, first)] == expected

    def test_self_pairs_are_checked(self):
        # [Deq;Ok(a)] does not commute with itself: after Enq(a) the
        # event is legal once but h·e·e is illegal (one "a" to take).
        datatype = Queue()
        oracle = LegalityOracle(datatype)
        events = event_alphabet(datatype, 5, oracle)
        table = commutativity_table(datatype, 3, oracle, events)
        deq_a = event("Deq", (), ok("a"))
        assert table[(deq_a, deq_a)] is False


class TestDeepBoundRegression:
    """``canonical_text`` digests at bounds past the catalogue's.

    Computed at 7e56cdb, where these derivations walked the history tree
    and took 6.7 / 16.3 / 5.6 / 7.3 / 0.75 / 1.1 s — too dear for tier-1
    there, a few hundredths of a second each over merged frontiers.
    """

    DIGESTS = {
        (PROM, 6): "ad67c45611b002f815a25c1aa976604cd5b1c69d2882a7debdaef940a4101a7c",
        (Bag, 5): "baa7fe627126082f7dcc4145bcb84e1bad3174145779ef64de917e56fc2134fc",
        (FlagSet, 5): "5bb384f047f8ee1e4f1cc767c77a211425ac650a1a44c63f4ff99acdb6c343f8",
        (Directory, 3): "32d12b3838ac32cf133ee2de4a9b0d73b50555905f0488cfd32da3633a5a57ab",
        (Queue, 6): "513291fd1745d30d501ccd6f505685474fe85c1791ff9305092403b8ec0e1923",
        (Account, 4): "90049c8ec46b24ed3e2701a3dc34d37cb1b09d3839c4669b4abd1dd4e46faf19",
    }

    @pytest.mark.parametrize(
        "datatype,bound,digest",
        [
            pytest.param(cls(), bound, digest, id=f"{cls.name}@{bound}")
            for (cls, bound), digest in DIGESTS.items()
        ],
    )
    def test_artifacts_match_the_history_tree_derivation(self, datatype, bound, digest):
        text = derive_artifacts(datatype, bound).canonical_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestAlphabetFusion:
    """The fused single-pass alphabets() equals the two-pass definitions."""

    @pytest.mark.parametrize(
        "datatype", [Queue(), PROM(), DoubleBuffer()], ids=lambda d: d.name
    )
    def test_alphabets_match_history_enumeration(self, datatype):
        depth = 4
        oracle = LegalityOracle(datatype)
        events, responses = alphabets(datatype, depth, oracle)
        # the pre-fusion definitions, re-derived longhand: events from
        # histories of <= depth events, responses from every reachable
        # state (leaf states included)
        expected_events = set()
        expected_responses = {inv: set() for inv in datatype.invocations()}
        for history in legal_serial_histories(datatype, depth, oracle):
            expected_events.update(history)
            for inv in datatype.invocations():
                expected_responses[inv].update(oracle.responses(history, inv))
        assert set(events) == expected_events
        assert {inv: set(res) for inv, res in responses.items()} == (
            expected_responses
        )
        # and the convenience wrappers agree with the fused pass
        assert event_alphabet(datatype, depth, oracle) == events
        assert response_alphabet(datatype, depth, oracle) == responses


class TestCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            0,
            1,
            -3,
            2.5,
            "x",
            True,
            False,
            ("a", 1, None),
            (("nested",), frozenset({1, 2})),
            frozenset({("a", True), ("b", False)}),
        ],
    )
    def test_value_round_trip(self, value):
        encoded = encode_value(value)
        json.loads(canonical_json(encoded))  # JSON-serializable
        decoded = decode_value(encoded)
        assert decoded == value
        assert type(decoded) is type(value)

    def test_bool_int_distinction_survives(self):
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert type(decode_value(encode_value(1))) is int

    def test_event_round_trip(self):
        for ev in (event("Enq", ("a",)), event("Deq", (), signal("Empty"))):
            assert decode_event(encode_event(ev)) == ev

    def test_unencodable_value_raises(self):
        with pytest.raises(CodecError):
            encode_value(object())


class TestFingerprint:
    def test_stable_across_instances(self):
        assert type_fingerprint(Queue(), 3) == type_fingerprint(Queue(), 3)

    def test_mutated_apply_changes_fingerprint(self):
        assert type_fingerprint(Queue(), 3) != type_fingerprint(LifoQueue(), 3)

    def test_bound_changes_fingerprint(self):
        assert type_fingerprint(Queue(), 3) != type_fingerprint(Queue(), 4)

    def test_probe_depth_changes_fingerprint(self):
        assert type_fingerprint(Queue(), 3, depth=5) != type_fingerprint(
            Queue(), 3, depth=6
        )

    def test_schema_version_changes_fingerprint(self, monkeypatch):
        before = type_fingerprint(Queue(), 3)
        monkeypatch.setattr(fingerprint_mod, "SCHEMA_VERSION", 999)
        assert type_fingerprint(Queue(), 3) != before


class TestCacheRoundTrip:
    @pytest.mark.parametrize(
        "datatype", standard_types(), ids=lambda d: d.name
    )
    def test_every_catalog_type_round_trips(self, datatype, tmp_path):
        bound = 2
        cache = ArtifactCache(tmp_path / "cache")
        derived = artifacts_for(datatype, bound, cache=cache, refresh=True)
        clear_memory_cache()
        loaded = artifacts_for(datatype, bound, cache=cache)
        assert loaded.events == derived.events
        assert loaded.static == derived.static
        assert loaded.dynamic == derived.dynamic
        assert loaded.table == derived.table
        assert loaded.canonical_text() == derived.canonical_text()

    def test_memo_serves_repeat_queries_without_disk(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        reset_kernel_metrics()
        first = artifacts_for(Queue(), 2, cache=cache, refresh=True)
        second = artifacts_for(Queue(), 2, cache=cache)
        assert second is first  # in-process memo, no load
        assert kernel_metrics().counter("kernel.cache.hit").value == 0

    def test_mutated_type_misses(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        artifacts_for(Queue(), 2, cache=cache, refresh=True)
        clear_memory_cache()
        reset_kernel_metrics()
        mutated = artifacts_for(LifoQueue(), 2, cache=cache)
        assert kernel_metrics().counter("kernel.cache.miss").value == 1
        assert kernel_metrics().counter("kernel.cache.hit").value == 0
        # and the mutation is visible in the derived semantics: LIFO Deq
        # returns the newest item, so the relations differ from FIFO
        assert mutated.fingerprint != artifacts_for(Queue(), 2, cache=cache).fingerprint

    def test_bumped_bound_misses(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        artifacts_for(Queue(), 2, cache=cache, refresh=True)
        clear_memory_cache()
        reset_kernel_metrics()
        artifacts_for(Queue(), 3, cache=cache)
        assert kernel_metrics().counter("kernel.cache.miss").value == 1

    def test_bumped_schema_version_misses(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path / "cache")
        artifacts_for(Queue(), 2, cache=cache, refresh=True)
        clear_memory_cache()
        monkeypatch.setattr(fingerprint_mod, "SCHEMA_VERSION", 999)
        reset_kernel_metrics()
        artifacts_for(Queue(), 2, cache=cache)
        assert kernel_metrics().counter("kernel.cache.miss").value == 1

    def test_corrupt_artifact_is_a_miss_then_rederived(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        derived = artifacts_for(Queue(), 2, cache=cache, refresh=True)
        path = cache.path_for(derived.fingerprint)
        path.write_text("{not json", encoding="ascii")
        clear_memory_cache()
        reloaded = artifacts_for(Queue(), 2, cache=cache)
        assert reloaded.canonical_text() == derived.canonical_text()

    def test_cache_disabled_by_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert not cache_enabled()
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert cache_enabled()
        monkeypatch.delenv("REPRO_CACHE")
        assert cache_enabled()

    def test_stats_and_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        artifacts_for(Queue(), 2, cache=cache, refresh=True)
        clear_memory_cache()
        artifacts_for(Queue(), 2, cache=cache)
        stats = cache.stats()
        assert stats["artifacts"] == 1
        assert stats["stores"] == 1
        assert stats["hits"] == 1
        assert stats["bytes"] > 0
        removed = cache.clear()
        assert removed == 1
        assert cache.stats()["artifacts"] == 0


class TestObservability:
    def test_derivation_and_cache_spans(self, tmp_path):
        tracer = Tracer()
        set_kernel_tracer(tracer)
        try:
            cache = ArtifactCache(tmp_path / "cache")
            artifacts_for(Queue(), 2, cache=cache, refresh=True)
            clear_memory_cache()
            artifacts_for(Queue(), 2, cache=cache)
        finally:
            set_kernel_tracer(None)
        names = [span.name for span in tracer.finished_spans()]
        assert "kernel.derive" in names
        assert "kernel.cache.store" in names
        assert "kernel.cache.load" in names
        load = next(s for s in tracer.finished_spans() if s.name == "kernel.cache.load")
        assert load.attrs["outcome"] == "hit"
        assert kernel_tracer() is NULL_TRACER

    def test_derive_timing_recorded(self, tmp_path):
        reset_kernel_metrics()
        derive_artifacts(Queue(), 2)
        histogram = kernel_metrics().histogram("kernel.derive.seconds")
        assert histogram.count == 1
        assert histogram.total >= 0.0


class TestParallel:
    def test_resolve_jobs_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == 1
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(None) == 4
        assert resolve_jobs(2) == 2
        monkeypatch.setenv("REPRO_JOBS", "junk")
        assert resolve_jobs(None) == 1

    def test_serial_path(self):
        results, parallel_used = parallel_map(str, [1, 2, 3], jobs=1)
        assert results == ["1", "2", "3"]
        assert parallel_used is False

    def test_single_item_never_pools(self):
        results, parallel_used = parallel_map(str, [7], jobs=8)
        assert results == ["7"]
        assert parallel_used is False

    def test_sharded_table_matches_serial(self):
        datatype = PROM()
        oracle = LegalityOracle(datatype)
        events = event_alphabet(datatype, 5, oracle)
        serial = commutativity_table(datatype, 3, oracle, events, jobs=1)
        sharded = commutativity_table(datatype, 3, oracle, events, jobs=3)
        assert serial == sharded

    def test_derive_catalog_parallel_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cat"))
        plan = [(Queue(), 2), (PROM(), 2)]
        serial = derive_catalog(plan, jobs=1, refresh=True)
        clear_memory_cache()
        parallel = derive_catalog(plan, jobs=2, refresh=True)
        assert [a.canonical_text() for a in serial] == [
            a.canonical_text() for a in parallel
        ]


class TestCacheCli:
    def test_warm_stats_clear(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
        clear_memory_cache()
        assert main(["cache", "warm", "--bound", "1"]) == 0
        out = capsys.readouterr().out
        assert "warmed" in out and "Queue" in out

        assert main(["cache", "stats", "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["artifacts"] > 0
        assert stats["stores"] == stats["artifacts"]

        # a second warm is served from the cache: hit counters move
        clear_memory_cache()
        assert main(["cache", "warm", "--bound", "1"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["hits"] >= stats["artifacts"]

        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["artifacts"] == 0

    def test_warm_trace_renders_spans(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
        clear_memory_cache()
        assert main(["cache", "warm", "--bound", "1", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "kernel.derive" in out

    def test_metrics_includes_kernel_registry(self, capsys):
        from repro.__main__ import main

        assert (
            main(["metrics", "--format", "json", "--transactions", "2"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert "kernel" in payload
        assert "kernel.cache.hit" in payload["kernel"]["counters"]
        assert "kernel.cache.miss" in payload["kernel"]["counters"]


class TestQuorumFastPath:
    def test_availability_vector_matches_assignment_path(self):
        from repro.dependency import known
        from repro.quorum.availability import operation_availability
        from repro.quorum.search import (
            _availability_vector,
            valid_threshold_choices,
        )
        from repro.types import PROM

        prom = PROM()
        relation = known.ground(prom, known.PROM_STATIC, 5)
        operations = ("Read", "Seal", "Write")
        checked = 0
        for choice in valid_threshold_choices(relation, 4, operations):
            fast = _availability_vector(choice, 0.9)
            assignment = choice.to_assignment()
            finals = dict(choice.final)
            for op, value in fast:
                kinds = [k for (name, k) in finals if name == op] or ["Ok"]
                slow = min(
                    operation_availability(assignment, op, 0.9, kind=kind)
                    for kind in kinds
                )
                assert value == pytest.approx(slow, abs=1e-12)
                checked += 1
        assert checked > 0

    def test_threshold_choice_lookup_maps(self):
        from repro.quorum.search import ThresholdChoice

        choice = ThresholdChoice(
            n_sites=3,
            initial=(("Read", 1), ("Write", 2)),
            final=((("Write", "Ok"), 2),),
        )
        assert choice.initial_of("Read") == 1
        assert choice.initial_of("Write") == 2
        assert choice.final_of("Write") == 2
        assert choice.final_of("Read") == 0
        # cached maps are computed once and reused
        assert choice._initial_map is choice._initial_map
