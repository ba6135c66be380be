"""Tests for the paper's transcribed relations and witness histories."""

from repro.atomicity.properties import HybridAtomicity, StaticAtomicity
from repro.dependency import known
from repro.histories.behavioral import Op
from repro.types import PROM, DoubleBuffer, FlagSet, Queue
from tests.test_closure import dependent_op_indices, is_closed_subhistory


class TestGrounding:
    def test_queue_static_grounds_to_expected_size(self, queue, queue_oracle):
        relation = known.ground(queue, known.QUEUE_STATIC, 5, queue_oracle)
        # Enq(x)≥Deq;Ok(y≠x): 2; Enq≥Empty: 2; Deq≥Enq: 2; Deq≥Deq;Ok: 2.
        assert len(relation) == 8

    def test_prom_hybrid_strictly_inside_prom_static(self, prom, prom_oracle):
        hybrid = known.ground(prom, known.PROM_HYBRID, 5, prom_oracle)
        static = known.ground(prom, known.PROM_STATIC, 5, prom_oracle)
        assert hybrid < static

    def test_flagset_alternatives_incomparable(self, flagset, flagset_oracle):
        rel_a = known.ground(flagset, known.FLAGSET_HYBRID_A, 5, flagset_oracle)
        rel_b = known.ground(flagset, known.FLAGSET_HYBRID_B, 5, flagset_oracle)
        assert not rel_a <= rel_b and not rel_b <= rel_a

    def test_flagset_core_inside_both_alternatives(self, flagset, flagset_oracle):
        core = known.ground(flagset, known.FLAGSET_CORE, 5, flagset_oracle)
        rel_a = known.ground(flagset, known.FLAGSET_HYBRID_A, 5, flagset_oracle)
        rel_b = known.ground(flagset, known.FLAGSET_HYBRID_B, 5, flagset_oracle)
        assert core < rel_a and core < rel_b


class TestTheorem5Witness:
    def test_witness_memberships_match_paper(self, prom, prom_oracle):
        prop = StaticAtomicity(prom, prom_oracle)
        history, subhistory, appended = known.prom_theorem5_witness()
        assert prop.admits(history)
        assert prop.admits(subhistory)
        assert prop.admits(subhistory.append(appended))
        assert not prop.admits(history.append(appended))

    def test_witness_also_hybrid_atomic(self, prom, prom_oracle):
        prop = HybridAtomicity(prom, prom_oracle)
        history, subhistory, _appended = known.prom_theorem5_witness()
        assert prop.admits(history) and prop.admits(subhistory)

    def test_subhistory_closed_under_hybrid_relation(self, prom, prom_oracle):
        relation = known.ground(prom, known.PROM_HYBRID, 5, prom_oracle)
        history, _subhistory, appended = known.prom_theorem5_witness()
        kept = frozenset(
            index
            for index, entry in enumerate(history.entries[:-1])
            if isinstance(entry, Op)
        )
        assert is_closed_subhistory(history, relation, kept)
        required = dependent_op_indices(history, relation, appended.event.inv)
        assert required <= kept


class TestTheorem12Witness:
    def test_witness_memberships_match_paper(self, doublebuffer, doublebuffer_oracle):
        prop = HybridAtomicity(doublebuffer, doublebuffer_oracle)
        history, subhistory, appended = known.doublebuffer_theorem12_witness()
        assert prop.admits(history)
        assert prop.admits(subhistory)
        assert prop.admits(subhistory.append(appended))
        assert not prop.admits(history.append(appended))

    def test_subhistory_closed_under_dynamic_relation(
        self, doublebuffer, doublebuffer_oracle
    ):
        relation = known.ground(
            doublebuffer, known.DOUBLEBUFFER_DYNAMIC, 5, doublebuffer_oracle
        )
        history, _subhistory, appended = known.doublebuffer_theorem12_witness()
        ops = [i for i, e in enumerate(history.entries) if isinstance(e, Op)]
        kept = frozenset(ops[:-1])
        assert is_closed_subhistory(history, relation, kept)
        required = dependent_op_indices(history, relation, appended.event.inv)
        assert required <= kept
