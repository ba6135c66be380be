"""The FlagSet example (Section 4): two distinct minimal hybrid relations.

Regenerates the paper's demonstration that "the weakest set of
constraints sufficient to ensure hybrid atomicity is not necessarily
unique": the common core of dependencies fails Definition 2 by itself,
and extends to a hybrid dependency relation via either of

    Shift(3) ≥ Shift(1);Ok()      (direct quorum intersection), or
    Shift(2) ≥ Shift(1);Ok()      (transitive, through Shift(2)),

with neither extension contained in the other, and each extension's
alternative pair essential (removing it re-breaks Definition 2).  The
minimal-extension search rediscovers both completions automatically.

Bounded-minimality caveat, reported in the output: a handful of the
paper's core pairs have no refutation witness inside the search bound
(their witnesses need ≥ 5-operation histories — e.g. ``Shift(n) ≥
Close();Ok(True)`` requires the full Open/Shift1/Shift2/Shift3/Close
chain), so strict ground-level minimality is asserted only for the
distinguishing pairs.
"""

from conftest import report

from repro.atomicity.explore import ExplorationBounds
from repro.atomicity.properties import HybridAtomicity
from repro.dependency import known
from repro.dependency.verify import (
    VerificationArena,
    VerificationBounds,
    find_counterexample,
    minimal_extensions,
)
from repro.histories.events import event, ok, signal
from repro.spec.legality import LegalityOracle
from repro.types import FlagSet

NORMAL_EVENTS = (
    event("Open"),
    event("Shift", (1,)),
    event("Shift", (2,)),
    event("Shift", (3,)),
    event("Close", (), ok(False)),
    event("Close", (), ok(True)),
)
#: Appended operations also range over exceptional responses — several
#: core pairs are only refutable by a wrongly-Disabled (or wrongly-Ok)
#: response chosen from a deficient view.
APPEND_EVENTS = NORMAL_EVENTS + (
    event("Open", (), signal("Disabled")),
    event("Shift", (1,), signal("Disabled")),
    event("Shift", (2,), signal("Disabled")),
    event("Shift", (3,), signal("Disabled")),
)


def _arena():
    flagset = FlagSet()
    oracle = LegalityOracle(flagset)
    return VerificationArena(
        HybridAtomicity(flagset, oracle),
        VerificationBounds(
            ExplorationBounds(max_ops=4, max_actions=2, events=NORMAL_EVENTS),
            append_events=APPEND_EVENTS,
        ),
    )


def test_flagset_two_minimal_hybrid_relations():
    # Nothing is timed: constructing an arena enumerates nothing (the
    # universe is built by the first search that needs it), and
    # wall-clock numbers for the theory kernel live in ``perf/``.
    arena = _arena()
    flagset = FlagSet()
    core = known.ground(flagset, known.FLAGSET_CORE, events=APPEND_EVENTS)
    rel_a = known.ground(flagset, known.FLAGSET_HYBRID_A, events=APPEND_EVENTS)
    rel_b = known.ground(flagset, known.FLAGSET_HYBRID_B, events=APPEND_EVENTS)

    # 1. The core alone is not a hybrid dependency relation.
    core_counterexample = find_counterexample(core, arena)
    assert core_counterexample is not None

    # 2. Either single-pair completion is; the completions are distinct
    #    and incomparable; each alternative pair is essential.
    assert find_counterexample(rel_a, arena) is None
    assert find_counterexample(rel_b, arena) is None
    assert not rel_a <= rel_b and not rel_b <= rel_a
    assert len(rel_a.difference(core)) == 1 and len(rel_b.difference(core)) == 1

    # 3. The search over single Shift-pair additions rediscovers both
    #    (and only) completions.
    shift_pairs = [
        (inv, ev)
        for inv in arena.invocations
        for ev in arena.append_events
        if inv.op == "Shift" and ev.inv.op == "Shift" and ev.is_normal
    ]
    found = [
        extension
        for extension in minimal_extensions(core, shift_pairs, arena, max_added=1)
        if len(extension.difference(core)) == 1
    ]
    assert len(found) == 2 and rel_a in found and rel_b in found

    # 4. Bounded-minimality caveat: which pairs lack a witness in-bounds.
    unwitnessed = [
        pair
        for pair in sorted(rel_a.pairs, key=lambda p: (str(p[0]), str(p[1])))
        if find_counterexample(rel_a.without(pair), arena) is None
    ]

    lines = [
        "FlagSet: the minimal hybrid dependency relation is not unique.",
        "",
        "Common core (the paper's list):",
        "\n".join(f"  {schema}" for schema in core.schema_pairs()),
        "",
        "core alone fails Definition 2; counterexample found:",
        core_counterexample.explain(),
        "",
        "valid single-pair completions found by search "
        f"({len(found)} of them):",
        f"  core + {known.FLAGSET_ALTERNATIVE_DIRECT}",
        f"  core + {known.FLAGSET_ALTERNATIVE_TRANSITIVE}",
        "neither completion is contained in the other.",
        "",
        "bounded-minimality caveat — core pairs with no refutation witness",
        "within ≤4-operation histories (their witnesses need longer chains):",
        "\n".join(f"  {inv} ≥ {ev}" for inv, ev in unwitnessed),
    ]
    report("flagset_two_minimals", "\n".join(lines))
