"""Unit tests for quorum assignments and validity constraints."""

import pytest

from repro.dependency import known
from repro.errors import QuorumError
from repro.histories.events import Event, Invocation, event, ok, signal
from repro.quorum.assignment import OperationQuorums, QuorumAssignment
from repro.quorum.constraints import intersection_relation, satisfies, violated_pairs
from repro.quorum.coterie import EmptyCoterie, ThresholdCoterie
from repro.spec.enumerate import event_alphabet
from repro.types import PROM


def _prom_hybrid_assignment(n: int = 5) -> QuorumAssignment:
    """The paper's hybrid PROM assignment: Read/Seal/Write = 1/n/1."""
    return QuorumAssignment(
        n,
        {
            "Read": OperationQuorums(
                initial=ThresholdCoterie(n, 1), final=EmptyCoterie(n)
            ),
            "Seal": OperationQuorums(
                initial=ThresholdCoterie(n, n), final=ThresholdCoterie(n, n)
            ),
            "Write": OperationQuorums(
                initial=ThresholdCoterie(n, 1), final=ThresholdCoterie(n, 1)
            ),
        },
        final_by_kind={("Read", "Disabled"): ThresholdCoterie(n, 1)},
    )


class TestQuorumAssignment:
    def test_initial_and_final_lookup(self):
        assignment = _prom_hybrid_assignment()
        assert assignment.initial("Read").threshold == 1
        assert assignment.initial(Invocation("Seal")).threshold == 5

    def test_final_by_kind_override(self):
        assignment = _prom_hybrid_assignment()
        disabled = event("Read", (), signal("Disabled"))
        normal = event("Read", (), ok("x"))
        assert assignment.final(disabled).smallest_quorum_size() == 1
        assert assignment.final(normal).smallest_quorum_size() == 0

    def test_unknown_operation_raises(self):
        assignment = _prom_hybrid_assignment()
        with pytest.raises(QuorumError):
            assignment.initial("Pop")

    def test_wrong_universe_rejected(self):
        with pytest.raises(QuorumError):
            QuorumAssignment(
                3,
                {
                    "Read": OperationQuorums(
                        initial=ThresholdCoterie(4, 1), final=ThresholdCoterie(4, 4)
                    )
                },
            )

    def test_describe_mentions_all_operations(self):
        text = _prom_hybrid_assignment().describe()
        assert "Read" in text and "Seal" in text and "Write" in text


class TestConstraints:
    def test_hybrid_assignment_satisfies_hybrid_relation(self, prom, prom_oracle):
        assignment = _prom_hybrid_assignment()
        relation = known.ground(prom, known.PROM_HYBRID, 5, prom_oracle)
        assert satisfies(assignment, relation)

    def test_hybrid_assignment_violates_static_relation(self, prom, prom_oracle):
        assignment = _prom_hybrid_assignment()
        relation = known.ground(prom, known.PROM_STATIC, 5, prom_oracle)
        violations = violated_pairs(assignment, relation)
        assert violations
        # The specific broken constraint: Read's initial (1 site) cannot
        # meet Write's final (1 site) — the paper's ≥s extras.
        classes = {(inv.op, ev.inv.op) for inv, ev in violations}
        assert ("Read", "Write") in classes

    def test_intersection_relation_contents(self, prom, prom_oracle):
        assignment = _prom_hybrid_assignment()
        events = event_alphabet(prom, 4, prom_oracle)
        relation = intersection_relation(
            assignment, tuple(prom.invocations()), events
        )
        seal = Invocation("Seal")
        assert relation.depends(seal, event("Write", ("x",)))
        assert relation.depends(Invocation("Read"), event("Seal"))
        assert not relation.depends(Invocation("Read"), event("Write", ("x",)))
