"""The paper's theorem battery, machine-checked end to end.

These are the headline tests of the reproduction: each theorem of the
paper is re-derived by the kernel.  They take a few seconds in total
(bounded model checking); the Figure 1-2 benchmark prints their report.
"""

import pytest

from repro.atomicity.explore import ExplorationBounds, behavioral_histories
from repro.atomicity.properties import HybridAtomicity, StaticAtomicity
from repro.compute.artifacts import derive_artifacts
from repro.core.theorems import (
    verify_all_theorems,
    verify_flagset_two_minimals,
    verify_theorem_4,
    verify_theorem_5,
    verify_theorem_6,
    verify_theorem_10,
    verify_theorem_11,
    verify_theorem_12,
)
from repro.dependency import closure, known, verify
from repro.histories.behavioral import BehavioralHistory
from repro.spec.legality import LegalityOracle
from repro.types import PROM, Account, Bag, FlagSet, Queue
from tests.helpers import count_calls
from tests.test_closure import FLAGSET_EVENTS


def test_theorem_4_static_implies_hybrid():
    assert verify_theorem_4().holds


def test_theorem_5_hybrid_not_static():
    assert verify_theorem_5().holds


def test_theorem_6_unique_minimal_static():
    assert verify_theorem_6().holds


def test_theorem_10_unique_minimal_dynamic():
    assert verify_theorem_10().holds


def test_theorem_11_static_not_dynamic():
    assert verify_theorem_11().holds


def test_theorem_12_dynamic_not_hybrid():
    assert verify_theorem_12().holds


def test_flagset_two_minimal_hybrid_relations():
    assert verify_flagset_two_minimals().holds


def test_battery_reports_render():
    for result in verify_all_theorems():
        text = result.summary()
        assert "VERIFIED" in text
        assert result.claim in text


class _CountingOracle(LegalityOracle):
    """Counts trie hops: every step of a derivation goes through ``_step``."""

    hops = 0

    def _step(self, node, event):
        self.hops += 1
        return super()._step(node, event)


def _derivation_cost(datatype, bound):
    """``(trie hops, trie nodes)`` of one cold ``derive_artifacts``."""
    oracle = _CountingOracle(datatype)
    derive_artifacts(datatype, bound, oracle)
    return oracle.hops, oracle.cache_nodes()


class TestSearchesStopWhenAnswered:
    """Count gates (not clock gates): deterministic and host-independent."""

    def test_theorem_5_examines_a_fraction_of_the_static_universe(self, monkeypatch):
        """The static search wants one counterexample and stops at it.

        Counted: histories the static arena draws from
        ``behavioral_histories`` during ``verify_theorem_5(max_ops=3)``,
        against a full pass over the same bounds.  When arenas were built
        in the constructor this was 100 %; the witness sits at entry 624
        of 18 353.
        """
        drawn = {}

        def counted(prop, bounds):
            drawn[prop.name] = [bounds, 0]
            for history in behavioral_histories(prop, bounds):
                drawn[prop.name][1] += 1
                yield history

        monkeypatch.setattr(verify, "behavioral_histories", counted)
        assert verify_theorem_5(max_ops=3).holds
        bounds, examined = drawn["static"]
        full = sum(1 for _ in behavioral_histories(StaticAtomicity(PROM()), bounds))
        assert 0 < examined < full / 10, (examined, full)
        # The hybrid relation is valid, so its search does run to the end.
        bounds, examined = drawn["hybrid"]
        assert examined == sum(
            1 for _ in behavioral_histories(HybridAtomicity(PROM()), bounds)
        )

    def test_prom_derivation_replays_each_prefix_once(self):
        """Trie hops during ``derive_artifacts(PROM(), 4)``.

        At the parent commit (cfe42a6: six root replays per
        ``(split, inv, e)`` in the Theorem 6 search) this count was
        2 856 072; the shared-replay search needs 241 693.  The gate is a
        fifth of the parent's number.
        """
        parent_hops = 2_856_072
        hops, _nodes = _derivation_cost(PROM(), 4)
        assert 0 < hops < parent_hops / 5, hops

    def test_derivations_walk_frontiers_not_histories(self):
        """Trie hops of the five ``theory-battery`` derivations.

        At the parent commit (7e56cdb: alphabets, Theorem 6 and
        Definition 8 each walked the history tree) PROM@4 took 241 693
        hops and the five together 689 224; over merged frontiers they
        take 1 239 and 11 906.  The gates are a twentieth and a tenth.
        """
        hops = {}
        for datatype, bound in (
            (Queue(), 4), (PROM(), 4), (FlagSet(), 3), (Account(), 3), (Bag(), 3)
        ):  # fmt: skip
            hops[datatype.name] = _derivation_cost(datatype, bound)[0]
        assert 0 < hops["PROM"] < 241_693 / 20, hops
        assert sum(hops.values()) < 689_224 / 10, hops

    @pytest.mark.parametrize(
        "datatype,bound,deeper", [(PROM(), 4, 6), (Bag(), 3, 5)], ids=["PROM", "Bag"]
    )
    def test_a_finite_state_derivation_is_flat_in_the_bound(
        self, datatype, bound, deeper
    ):
        """Cost follows the states, not the bound.

        Every frontier of PROM (6) and Bag (4) is met within two
        events, so two more events of bound allocate no trie node and
        add only the longer budgets' memo entries (PROM 1 239 → 1 759
        hops, Bag 1 190 → 1 958).  At 7e56cdb PROM@6 took 8.86 M hops and 119 421
        nodes, Bag@5 16 s.
        """
        hops, nodes = _derivation_cost(datatype, bound)
        deeper_hops, deeper_nodes = _derivation_cost(datatype, deeper)
        assert deeper_nodes == nodes
        assert deeper_hops <= 2 * hops, (hops, deeper_hops)

    def test_theorem_5_checks_each_serialized_input_once(self, monkeypatch):
        """``check_history`` entries and whole-history validations.

        At the parent commit (124b4a2) ``verify_theorem_5(max_ops=3)``
        entered ``check_history`` 17 078 times for 2 702 distinct inputs
        and walked a whole history in ``BehavioralHistory.__init__``
        59 268 times (every ``append``, ``prefix`` and ``project`` did).
        Keyed admission needs 1 864 checks; ``append`` validates one
        entry and a projection none, which leaves the constructor the
        six histories built from a list of entries.
        """
        static = count_calls(monkeypatch, StaticAtomicity, "check_history")
        hybrid = count_calls(monkeypatch, HybridAtomicity, "check_history")
        validated = count_calls(monkeypatch, BehavioralHistory, "__init__")
        assert verify_theorem_5(max_ops=3).holds
        assert 0 < static.calls + hybrid.calls < 17_078 / 4
        assert 0 < validated.calls < 59_268 / 3

    def test_flagset_searches_share_their_projections(self, monkeypatch):
        """Subhistories ``project`` builds in ``verify_flagset_two_minimals``.

        Three searches over one arena: at the parent commit each
        re-projected every closed subhistory for every rejected append
        (19 040 builds); a view's verdict is now kept beside the arena
        entry, and one search builds a view once for all its appends.
        """
        built = count_calls(monkeypatch, closure, "project")
        monkeypatch.setattr(verify, "project", built, raising=False)  # its own name
        assert verify_flagset_two_minimals(max_ops=4).holds
        assert 0 < built.calls < 19_040 / 2

    def test_a_repeated_search_asks_the_property_nothing(self, monkeypatch):
        """Second search over a completed arena: no admission, no check.

        View verdicts carry no relation, so a search whose views an
        earlier one decided — the same relation again, or any superset
        (fewer closed subhistories, more required entries) — replays.
        """
        datatype = FlagSet()
        arena = verify.VerificationArena(
            HybridAtomicity(datatype),
            verify.VerificationBounds(
                ExplorationBounds(max_ops=3, max_actions=2, events=FLAGSET_EVENTS)
            ),
        )
        relation = known.ground(
            datatype, known.FLAGSET_HYBRID_A, events=FLAGSET_EVENTS
        )
        assert verify.find_counterexample(relation, arena) is None
        decided = len(arena.view_admitted)
        assert decided > 0
        entered = count_calls(monkeypatch, HybridAtomicity, "check_history")
        asked = count_calls(monkeypatch, HybridAtomicity, "admits")
        for again in (relation, relation.union(arena.universe_pairs())):
            assert verify.find_counterexample(again, arena) is None
        assert len(arena.view_admitted) == decided
        assert entered.calls == 0 and asked.calls == 0

