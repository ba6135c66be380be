"""The compute layer: shared-pass commutativity, artifact memo, fan-out.

Covers the equivalences the performance work must preserve:

* the shared-pass commutativity table equals the per-pair Definition 8
  reference implementation (:func:`repro.dependency.dynamic_dep.commute`);
* ``canonical_text`` is byte-identical across commits and hash seeds
  (pinned digests), and distinct values encode to distinct JSON;
* :func:`artifacts_for` derives once per data type value and bound, and
  a memo hit touches neither the type nor the oracle.

Plus the process fan-out fallback and the quorum fast-path equalities.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.compute.artifacts import (
    artifacts_for,
    clear_memory_cache,
    derive_artifacts,
)
from repro.compute.codec import CodecError, canonical_json, encode_value
from repro.compute.parallel import parallel_map, resolve_jobs
from repro.dependency.dynamic_dep import commute, commutativity_table
from repro.histories.events import event, ok
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
    Re-pinned at 804ed8e over the same payloads minus their ``schema``
    and ``fingerprint`` keys, which left with the persistent cache.
    """

    DIGESTS = {
        (PROM, 6): "322d44a331840498c243f8687ea8fe04fe933b3b798b68dac59578d4388751f8",
        (Bag, 5): "be5ce4a5fd1ae6e53308e0cdeb9305ef4c2fc3aa6bb145ba3a70fa38d2ae78a7",
        (FlagSet, 5): "1ff94bde6488d0544d9651445dae510d48c2c82e811c1fcbdfcd727cb4c1ef8a",
        (Directory, 3): "b56a0fa56238dbf33cdaf78cacfdc40e3b20e0a65471028c0d76beb61cb387eb",
        (Queue, 6): "1759b590c0c3fa5dced2f02b2ce16d10171fc3c72775242f1184cebce1a5b739",
        (Account, 4): "434336bcb664427e08b5d1d3c42a0b9bd1f693e9a736a65aae0bfac30d0d777f",
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
    VALUES = [
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
    ]

    @pytest.mark.parametrize("value", VALUES)
    def test_value_encodes_to_json(self, value):
        json.loads(canonical_json(encode_value(value)))  # JSON-serializable

    def test_distinct_values_encode_distinctly(self):
        """What the digests rely on — ``True`` vs ``1`` included."""
        texts = [canonical_json(encode_value(value)) for value in self.VALUES]
        assert len(set(texts)) == len(self.VALUES)

    def test_unencodable_value_raises(self):
        with pytest.raises(CodecError):
            encode_value(object())


class _CountingOracle(LegalityOracle):
    """Counts trie hops: every step of a derivation goes through ``_step``."""

    hops = 0

    def _step(self, node, event):
        self.hops += 1
        return super()._step(node, event)


class TestArtifactMemo:
    """``artifacts_for`` is memo → derive, keyed by data type value and bound."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        clear_memory_cache()
        yield
        clear_memory_cache()

    def test_equal_values_share_one_derivation(self):
        assert artifacts_for(Queue(), 3) is artifacts_for(Queue(), 3)

    def test_a_subclass_derives_its_own(self):
        fifo, lifo = artifacts_for(Queue(), 3), artifacts_for(LifoQueue(), 3)
        assert lifo is not fifo
        assert lifo.canonical_text() != fifo.canonical_text()

    def test_a_different_bound_derives_its_own(self):
        shallow, deep = artifacts_for(Queue(), 2), artifacts_for(Queue(), 3)
        assert (shallow.bound, deep.bound) == (2, 3)
        assert deep is artifacts_for(Queue(), 3)

    def test_unhashable_state_memoizes_per_instance(self):
        first, second = Queue(), Queue()
        first.notes = second.notes = ["not hashable"]
        assert artifacts_for(first, 2) is artifacts_for(first, 2)
        assert artifacts_for(first, 2) is not artifacts_for(second, 2)
        assert (
            artifacts_for(first, 2).canonical_text()
            == artifacts_for(Queue(), 2).canonical_text()
        )

    def test_clearing_the_memo_forces_a_rederivation(self):
        datatype = Queue()
        first_oracle = _CountingOracle(datatype)
        second_oracle = _CountingOracle(datatype)
        first = artifacts_for(datatype, 3, first_oracle)
        clear_memory_cache()
        second = artifacts_for(datatype, 3, second_oracle)
        assert second is not first
        assert first_oracle.hops == second_oracle.hops > 0
        assert second.canonical_text() == first.canonical_text()

    def test_a_memo_hit_never_touches_the_type(self, monkeypatch):
        first = artifacts_for(Queue(), 3)
        applied = []
        original = Queue.apply

        def counting(self, state, invocation):
            applied.append(invocation)
            return original(self, state, invocation)

        monkeypatch.setattr(Queue, "apply", counting)
        oracle = _CountingOracle(Queue())
        assert artifacts_for(Queue(), 3, oracle) is first
        assert applied == [] and oracle.hops == 0


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
