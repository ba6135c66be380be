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
from repro.types import PROM, FlagSet
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

        class CountingOracle(LegalityOracle):
            hops = 0

            def _step(self, node, event):
                self.hops += 1
                return super()._step(node, event)

        oracle = CountingOracle(PROM())
        derive_artifacts(PROM(), 4, oracle)
        assert 0 < oracle.hops < parent_hops / 5, oracle.hops

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

