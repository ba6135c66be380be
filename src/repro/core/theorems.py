"""Every theorem of the paper as an executable, machine-checked statement.

Each ``verify_theorem_*`` function re-derives its theorem from the
kernel — by search where the paper gives a characterization, by
bounded model checking where it gives a counterexample — and returns a
:class:`TheoremResult` recording the claim, the bounds used, and the
witnesses found.  The battery rows of :data:`repro.core.claims.CLAIMS`
call them at their full and ``--fast`` bounds; ``python -m repro report``
prints their summaries.

Bounds are chosen so every check completes in seconds; raising them
never changed any outcome in our runs (the paper's counterexamples are
tiny, and the characterizations stabilize at small depth).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.atomicity.explore import ExplorationBounds
from repro.atomicity.properties import (
    DynamicAtomicity,
    HybridAtomicity,
    StaticAtomicity,
)
from repro.compute.artifacts import artifacts_for
from repro.dependency import known
from repro.dependency.verify import (
    VerificationArena,
    VerificationBounds,
    find_counterexample,
    required_pairs,
)
from repro.histories.events import event, ok
from repro.spec.legality import LegalityOracle
from repro.types import PROM, DoubleBuffer, FlagSet, Queue


@dataclass
class TheoremResult:
    """One machine-checked theorem: claim, outcome, and evidence."""

    name: str
    claim: str
    holds: bool
    bounds: str
    details: list[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "VERIFIED" if self.holds else "FAILED"
        lines = [f"{self.name}: {status}  ({self.bounds})", f"  claim: {self.claim}"]
        lines.extend(f"  {line}" for line in self.details)
        return "\n".join(lines)


def _prom_events():
    return (
        event("Write", ("x",)),
        event("Write", ("y",)),
        event("Seal"),
        event("Read", (), ok("x")),
    )


def verify_theorem_4(
    serial_bound: int = 4, max_ops: int = 3, *, jobs: int | None = None
) -> TheoremResult:
    """Every static dependency relation is a hybrid dependency relation.

    Checked on Queue and PROM: the unique minimal static relation
    (Theorem 6 search) passes the hybrid Definition 2 verification —
    and since supersets of valid relations are valid, so does every
    static relation.
    """
    details: list[str] = []
    holds = True
    for datatype, events in (
        (Queue(), None),
        (PROM(), _prom_events()),
    ):
        oracle = LegalityOracle(datatype)
        static_rel = artifacts_for(datatype, serial_bound, oracle, jobs=jobs).static
        arena = VerificationArena(
            HybridAtomicity(datatype, oracle),
            VerificationBounds(
                ExplorationBounds(max_ops=max_ops, max_actions=3, events=events)
            ),
        )
        counterexample = find_counterexample(static_rel, arena)
        ok_here = counterexample is None
        holds = holds and ok_here
        details.append(
            f"{datatype.name}: minimal static relation is hybrid-valid: {ok_here}"
        )
    return TheoremResult(
        name="Theorem 4",
        claim="every static dependency relation is a hybrid dependency relation",
        holds=holds,
        bounds=f"serial bound {serial_bound}, histories ≤{max_ops} ops / 3 actions",
        details=details,
    )


def verify_theorem_5(max_ops: int = 3) -> TheoremResult:
    """A hybrid dependency relation need not be static (PROM witness)."""
    datatype = PROM()
    oracle = LegalityOracle(datatype)
    static_prop = StaticAtomicity(datatype, oracle)
    hybrid_prop = HybridAtomicity(datatype, oracle)
    relation = known.ground(datatype, known.PROM_HYBRID, 5, oracle)
    details: list[str] = []
    bounds = VerificationBounds(
        ExplorationBounds(max_ops=max_ops, max_actions=4, events=_prom_events())
    )

    hybrid_arena = VerificationArena(hybrid_prop, bounds)
    hybrid_valid = find_counterexample(relation, hybrid_arena) is None
    details.append(f"≥H is a hybrid dependency relation (bounded): {hybrid_valid}")

    history, subhistory, appended = known.prom_theorem5_witness()
    witness_ok = (
        static_prop.admits(history)
        and static_prop.admits(subhistory)
        and static_prop.admits(subhistory.append(appended))
        and not static_prop.admits(history.append(appended))
    )
    details.append(f"paper's witness history refutes ≥H under static: {witness_ok}")

    static_arena = VerificationArena(static_prop, bounds)
    search_found = find_counterexample(relation, static_arena) is not None
    details.append(f"search independently finds a counterexample: {search_found}")

    return TheoremResult(
        name="Theorem 5",
        claim="a hybrid dependency relation need not be a static one",
        holds=hybrid_valid and witness_ok and search_found,
        bounds=f"histories ≤{max_ops} ops / 4 actions, restricted PROM alphabet",
        details=details,
    )


def verify_theorem_6(
    serial_bound: int = 4, max_ops: int = 3, *, jobs: int | None = None
) -> TheoremResult:
    """The minimal static relation is unique and matches the paper (Queue).

    Cross-validated two ways: the Theorem 6 serial-history search must
    agree with the required-pairs computation on the static Definition 2
    arena (two completely independent characterizations), and both must
    equal the paper's four-pair relation.
    """
    datatype = Queue()
    oracle = LegalityOracle(datatype)
    searched = artifacts_for(datatype, serial_bound, oracle, jobs=jobs).static
    paper = known.ground(datatype, known.QUEUE_STATIC, serial_bound + 2, oracle)
    arena = VerificationArena(
        StaticAtomicity(datatype, oracle),
        VerificationBounds(ExplorationBounds(max_ops=max_ops, max_actions=3)),
    )
    required = required_pairs(arena)
    details = [
        f"Theorem 6 search == paper's relation: {searched == paper}",
        f"Definition 2 required pairs ⊆ search result: {required <= searched}",
        f"search result is valid (no counterexample): "
        f"{find_counterexample(searched, arena) is None}",
    ]
    holds = searched == paper and required <= searched and (
        find_counterexample(searched, arena) is None
    )
    return TheoremResult(
        name="Theorem 6",
        claim="unique minimal static dependency relation, characterized serially",
        holds=holds,
        bounds=f"serial bound {serial_bound}, histories ≤{max_ops} ops / 3 actions",
        details=details,
    )


def verify_theorem_10(
    serial_bound: int = 4, max_ops: int = 3, *, jobs: int | None = None
) -> TheoremResult:
    """The minimal dynamic relation is the non-commutativity relation (Queue)."""
    datatype = Queue()
    oracle = LegalityOracle(datatype)
    searched = artifacts_for(datatype, serial_bound, oracle, jobs=jobs).dynamic
    paper = known.ground(datatype, known.QUEUE_DYNAMIC, serial_bound + 2, oracle)
    arena = VerificationArena(
        DynamicAtomicity(datatype, oracle),
        VerificationBounds(ExplorationBounds(max_ops=max_ops, max_actions=3)),
    )
    valid = find_counterexample(searched, arena) is None
    details = [
        f"Theorem 10 commutativity search == paper's relation: {searched == paper}",
        f"search result is dynamic-valid (no counterexample): {valid}",
    ]
    return TheoremResult(
        name="Theorem 10",
        claim="unique minimal dynamic dependency relation = non-commuting pairs",
        holds=searched == paper and valid,
        bounds=f"serial bound {serial_bound}, histories ≤{max_ops} ops / 3 actions",
        details=details,
    )


def verify_theorem_11(
    serial_bound: int = 4, max_ops: int = 3, *, jobs: int | None = None
) -> TheoremResult:
    """A static dependency relation need not be dynamic (Queue).

    The minimal static relation lacks ``Enq ≥ Enq``, which Theorem 10
    requires; the Definition 2 search exhibits a dynamic counterexample.
    """
    datatype = Queue()
    oracle = LegalityOracle(datatype)
    artifacts = artifacts_for(datatype, serial_bound, oracle, jobs=jobs)
    static_rel = artifacts.static
    dynamic_rel = artifacts.dynamic
    missing = dynamic_rel.difference(static_rel)
    arena = VerificationArena(
        DynamicAtomicity(datatype, oracle),
        VerificationBounds(ExplorationBounds(max_ops=max_ops, max_actions=3)),
    )
    counterexample = find_counterexample(static_rel, arena)
    details = [
        "pairs required dynamically but missing statically: "
        + ", ".join(str(s) for s in missing.schema_pairs()),
        f"static relation fails dynamic Definition 2: {counterexample is not None}",
    ]
    return TheoremResult(
        name="Theorem 11",
        claim="a static dependency relation is not necessarily dynamic",
        holds=len(missing) > 0 and counterexample is not None,
        bounds=f"serial bound {serial_bound}, histories ≤{max_ops} ops / 3 actions",
        details=details,
    )


def verify_theorem_12(max_ops: int = 4, *, jobs: int | None = None) -> TheoremResult:
    """A dynamic dependency relation need not be hybrid (DoubleBuffer)."""
    datatype = DoubleBuffer()
    oracle = LegalityOracle(datatype)
    hybrid_prop = HybridAtomicity(datatype, oracle)
    relation = known.ground(datatype, known.DOUBLEBUFFER_DYNAMIC, 5, oracle)
    searched = artifacts_for(datatype, 3, oracle, jobs=jobs).dynamic
    history, subhistory, appended = known.doublebuffer_theorem12_witness()
    witness_ok = (
        hybrid_prop.admits(history)
        and hybrid_prop.admits(subhistory)
        and hybrid_prop.admits(subhistory.append(appended))
        and not hybrid_prop.admits(history.append(appended))
    )
    details = [
        f"Theorem 10 search == paper's five-pair relation: {searched == relation}",
        f"paper's witness history refutes ≥D under hybrid: {witness_ok}",
    ]
    return TheoremResult(
        name="Theorem 12",
        claim="a dynamic dependency relation is not necessarily hybrid",
        holds=searched == relation and witness_ok,
        bounds=f"witness replay; search serial bound 3, ≤{max_ops} ops",
        details=details,
    )


#: FlagSet's normal-event alphabet: the distinguishing behaviour lives
#: entirely in Ok events.
FLAGSET_EVENTS = (
    event("Open"),
    event("Shift", (1,)),
    event("Shift", (2,)),
    event("Shift", (3,)),
    event("Close", (), ok(False)),
    event("Close", (), ok(True)),
)


def verify_flagset_two_minimals(max_ops: int = 4) -> TheoremResult:
    """FlagSet has two distinct minimal hybrid dependency relations.

    Checked over the normal-event alphabet (the distinguishing behaviour
    lives entirely in Ok events): the common core is not a hybrid
    dependency relation, each single-pair completion is, and neither
    completion contains the other.
    """
    datatype = FlagSet()
    oracle = LegalityOracle(datatype)
    events = FLAGSET_EVENTS
    arena = VerificationArena(
        HybridAtomicity(datatype, oracle),
        VerificationBounds(
            ExplorationBounds(max_ops=max_ops, max_actions=2, events=events)
        ),
    )
    core = known.ground(datatype, known.FLAGSET_CORE, events=events)
    rel_a = known.ground(datatype, known.FLAGSET_HYBRID_A, events=events)
    rel_b = known.ground(datatype, known.FLAGSET_HYBRID_B, events=events)
    core_fails = find_counterexample(core, arena) is not None
    a_valid = find_counterexample(rel_a, arena) is None
    b_valid = find_counterexample(rel_b, arena) is None
    distinct = not (rel_a <= rel_b) and not (rel_b <= rel_a)
    details = [
        f"common core alone fails Definition 2: {core_fails}",
        f"core + Shift(3)≥Shift(1) is valid: {a_valid}",
        f"core + Shift(2)≥Shift(1) is valid: {b_valid}",
        f"the two completions are incomparable: {distinct}",
    ]
    return TheoremResult(
        name="FlagSet (Section 4)",
        claim="the minimal hybrid dependency relation is not unique",
        holds=core_fails and a_valid and b_valid and distinct,
        bounds=f"histories ≤{max_ops} ops / 2 actions, normal-event alphabet",
        details=details,
    )
