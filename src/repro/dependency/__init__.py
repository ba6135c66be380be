"""Atomic dependency relations (paper, Definitions 1 and 2).

A *dependency relation* relates invocations to events: ``inv ≥ e`` means
that any view used to execute ``inv`` must include every earlier
(non-aborted) ``e`` event — operationally, that each initial quorum for
``inv`` must intersect each final quorum for ``e``.  A replicated object
satisfies its behavioral specification if and only if its quorum
intersection relation is an *atomic* dependency relation for that
specification, so the constraints on replicated availability are exactly
the minimal atomic dependency relations this subpackage computes:

* :mod:`repro.dependency.static_dep` — the unique minimal static
  dependency relation, by the Theorem 6 characterization;
* :mod:`repro.dependency.dynamic_dep` — the unique minimal dynamic
  dependency relation, by the Theorem 10 commutativity characterization;
* :mod:`repro.dependency.verify` — bounded-model-checking verification of
  Definition 2 for arbitrary relations and properties (the only general
  route for hybrid atomicity, whose minimal relations are not unique);
* :mod:`repro.dependency.known` — the relations the paper derives by
  hand, cross-checked against the searches by the test suite.
"""

from repro.dependency.relation import DependencyRelation, SchemaPair
from repro.dependency.verify import (
    Counterexample,
    VerificationBounds,
    find_counterexample,
    is_dependency_relation,
    required_pairs,
    is_minimal_relation,
)
from repro.dependency.static_dep import minimal_static_dependency
from repro.dependency.dynamic_dep import minimal_dynamic_dependency
from repro.dependency.hybrid_dep import synthesize_hybrid_relation

__all__ = [
    "DependencyRelation",
    "SchemaPair",
    "Counterexample",
    "VerificationBounds",
    "find_counterexample",
    "is_dependency_relation",
    "required_pairs",
    "is_minimal_relation",
    "minimal_static_dependency",
    "minimal_dynamic_dependency",
    "synthesize_hybrid_relation",
]
