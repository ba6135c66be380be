"""The frozen scenario catalog — one spec per named traffic shape.

Each entry is a :class:`~repro.scenarios.spec.ScenarioSpec` with a
``doc_ref`` anchor into ``docs/SCENARIOS.md``; ``tests/test_docs.py``
fails the build when an anchor goes stale or a catalog entry is missing
from the doc's reference table, and ``tests/test_scenarios.py`` pins
the ``default`` entry byte-identical to the legacy workload and crosses
every entry with the chaos profiles and the three atomicity
mechanisms.

Changing an existing entry re-rolls every published fingerprint built
on it — add new scenarios instead of mutating old ones.
"""

from __future__ import annotations

from repro.scenarios.spec import ArrivalSpec, MixSpec, ScenarioSpec, SkewSpec

__all__ = ["SCENARIOS", "scenario"]

_DOC = "docs/SCENARIOS.md"


def _catalog(*specs: ScenarioSpec) -> dict[str, ScenarioSpec]:
    return {spec.name: spec for spec in specs}


#: Name → frozen spec.  ``default`` is the legacy workload expressed as
#: a scenario (uniform mix, no skew, closed loop, 3 ops × 4 deep) and
#: is test-enforced byte-identical to it; the rest stress one axis each.
SCENARIOS: dict[str, ScenarioSpec] = _catalog(
    ScenarioSpec(
        name="default",
        doc_ref=f"{_DOC}#default",
        description="The legacy closed-loop uniform workload, as a scenario: "
        "the byte-identity anchor every other scenario deviates from.",
        mix=MixSpec.uniform(),
        skew=SkewSpec.uniform(),
        arrival=ArrivalSpec.closed(),
        ops_per_transaction=3,
        concurrency=4,
        objects=1,
        transactions=12,
    ),
    ScenarioSpec(
        name="read-dominant",
        doc_ref=f"{_DOC}#read-dominant",
        description="Reads 9× writes over a mixed keyspace — the regime "
        "where small read quorums (and the paper's availability "
        "trade-off) pay off.",
        mix=MixSpec.read_dominant(9.0),
        skew=SkewSpec.uniform(),
        arrival=ArrivalSpec.closed(),
        objects=6,
        transactions=16,
    ),
    ScenarioSpec(
        name="write-heavy",
        doc_ref=f"{_DOC}#write-heavy",
        description="Writes 4× reads — final-quorum pressure, the regime "
        "blocking commit protocols feel first.",
        mix=MixSpec.write_heavy(4.0),
        skew=SkewSpec.uniform(),
        arrival=ArrivalSpec.closed(),
        objects=6,
        transactions=16,
    ),
    ScenarioSpec(
        name="hot-key-contention",
        doc_ref=f"{_DOC}#hot-key-contention",
        description="Zipf s=1.2 over 8 objects at double depth: most "
        "traffic collides on a couple of hot keys, so conflict "
        "handling — waits, deadlock victims, timestamp aborts — dominates.",
        mix=MixSpec.uniform(),
        skew=SkewSpec.zipf(1.2),
        arrival=ArrivalSpec.closed(),
        concurrency=8,
        objects=8,
        transactions=20,
    ),
    ScenarioSpec(
        name="bursty-flash-crowd",
        doc_ref=f"{_DOC}#bursty-flash-crowd",
        description="Open-loop arrivals alternating calm traffic with "
        "4-transaction crowds at 20× the calm rate — admission backlog "
        "and recovery-after-burst behavior.",
        mix=MixSpec.uniform(),
        skew=SkewSpec.uniform(),
        arrival=ArrivalSpec.bursty(
            rate=0.5, burst_rate=10.0, burst_length=4, cycle=8
        ),
        objects=6,
        transactions=24,
    ),
    ScenarioSpec(
        name="long-transaction",
        doc_ref=f"{_DOC}#long-transaction",
        description="10-operation transactions at low depth under open-loop "
        "Poisson arrivals: long lock/dependency hold times, the regime "
        "where deadlock policy and multiversion timestamps diverge.",
        mix=MixSpec.uniform(),
        skew=SkewSpec.uniform(),
        arrival=ArrivalSpec.poisson(rate=1.0),
        ops_per_transaction=10,
        concurrency=3,
        objects=6,
        transactions=16,
    ),
)


def scenario(name: str) -> ScenarioSpec:
    """Look up a catalog scenario by name (with a helpful error)."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r} (choose from "
            f"{', '.join(sorted(SCENARIOS))})"
        ) from None
