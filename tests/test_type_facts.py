"""Type facts are derived once per data type value and shared by reference.

What the build path memoizes (:mod:`repro.spec.facts`) — the locking
conflict table, the hybrid conflict table, an ``ObjectSpec``'s default hybrid
relation, the read-only operation set — must equal a from-scratch
derivation, be keyed on the data type's *value* (class + constructor
state, never identity alone, never across subclasses), be immutable
because every object of the type holds the same one, and leave every
seeded outcome independent of what was derived earlier in the process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from repro.cc import conflicts as cc_conflicts
from repro.cc.conflicts import (
    commutativity_conflicts,
    dependency_conflicts,
    hybrid_conflicts,
)
from repro.dependency import known
from repro.dependency.dynamic_dep import commutativity_table
from repro.dependency.relation import DependencyRelation
from repro.obs.audit import Auditor
from repro.obs.mutations import MUTATIONS
from repro.obs.trace import Tracer
from repro.resilience.policy import _classify_read_only, read_only_operations
from repro.replication.keyspace import ObjectSpec
from repro.scenarios.runner import build_scenario, scenario_trial
from repro.sim.trials import run_trials
from repro.spec import facts
from repro.spec.enumerate import event_alphabet
from repro.spec.legality import LegalityOracle
from repro.types import (
    PROM,
    Account,
    Bag,
    Counter,
    Directory,
    DoubleBuffer,
    FlagSet,
    LogObject,
    Mutex,
    PriorityQueue,
    Queue,
    Register,
    SemiQueue,
    Sequencer,
    Stack,
)

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every ``repro.types`` class at its default and, where the class takes
#: parameters, one non-default parameterisation: ``(build, commutativity
#: depth, read-only operations)``.  Directory's default alphabet has 26
#: events, so its table is compared at depth 2 (depth 4 takes minutes).
CASES = [
    (Queue, 4, set()),
    (partial(Queue, ("a", "b", "c")), 4, set()),
    (PROM, 4, {"Read"}),
    (partial(PROM, ("x",), "empty"), 4, {"Read"}),
    (FlagSet, 4, set()),
    (DoubleBuffer, 4, {"Consume"}),
    (partial(DoubleBuffer, ("x",)), 4, {"Consume"}),
    (Register, 4, {"Read"}),
    (partial(Register, ("x", "y", "z")), 4, {"Read"}),
    (Counter, 4, {"Read"}),
    (Bag, 4, {"Member"}),
    (partial(Bag, ("x",)), 4, {"Member"}),
    (Directory, 2, {"Lookup"}),
    (partial(Directory, ("j",), ("u", "v")), 4, {"Lookup"}),
    (Account, 4, {"Balance"}),
    (partial(Account, (3,)), 4, {"Balance"}),
    (Stack, 4, set()),
    (partial(Stack, ("a",)), 4, set()),
    (SemiQueue, 4, set()),
    (partial(SemiQueue, ("a",)), 4, set()),
    (LogObject, 4, {"Last", "Size"}),
    (partial(LogObject, ("a",)), 4, {"Last", "Size"}),
    (PriorityQueue, 4, set()),
    (partial(PriorityQueue, ("a", "b"), (1,)), 4, set()),
    (Mutex, 4, set()),
    (Sequencer, 4, set()),
]


def _hybrid_relation(datatype):
    """The relation a hybrid object of ``datatype`` resolves by default."""
    return ObjectSpec("x", datatype).relation


def _case_id(case) -> str:
    build = case[0]
    if isinstance(build, partial):
        return f"{build.func.__name__}{build.args}"
    return build.__name__


@pytest.fixture
def cold_memo(monkeypatch):
    """An empty memo for the test, the process's own put back afterwards."""
    monkeypatch.setattr(facts, "_BY_VALUE", {})


# -- (a) the shared result is the from-scratch result ------------------------------


@pytest.mark.parametrize("build,depth,read_only", CASES, ids=map(_case_id, CASES))
def test_memoized_facts_equal_a_from_scratch_derivation(build, depth, read_only):
    datatype = build()

    oracle = LegalityOracle(datatype)
    events = event_alphabet(datatype, depth + 2, oracle)
    scratch = commutativity_table(datatype, depth, oracle, events)
    assert commutativity_conflicts(build(), depth).pairs() == {
        pair: not commutes for pair, commutes in scratch.items()
    }

    if isinstance(datatype, Queue):
        relation = known.ground(
            datatype, known.QUEUE_STATIC, 5, LegalityOracle(datatype)
        )
    else:
        relation = DependencyRelation.total(
            datatype.invocations(),
            event_alphabet(datatype, 5, LegalityOracle(datatype)),
        )
    assert _hybrid_relation(build()) == relation
    assert (
        hybrid_conflicts(build(), relation).pairs()
        == dependency_conflicts(
            relation, event_alphabet(datatype, 4, LegalityOracle(datatype))
        ).pairs()
    )

    # Pinned, so the one shared answer per type cannot drift unnoticed.
    assert read_only_operations(build()) == read_only
    assert _classify_read_only(datatype) == read_only


# -- (b) what "the same data type" means ----------------------------------------


def _facts_of(datatype):
    return (
        commutativity_conflicts(datatype, 2),
        _hybrid_relation(datatype),
        hybrid_conflicts(datatype, _hybrid_relation(datatype)),
        read_only_operations(datatype),
    )


def test_value_equal_instances_share_one_object():
    for first, second in zip(_facts_of(Queue(("a", "b"))), _facts_of(Queue())):
        assert first is second


def test_different_constructor_state_is_not_shared():
    two, three = Queue(("a", "b")), Queue(("a", "b", "c"))
    assert commutativity_conflicts(two, 2) is not commutativity_conflicts(three, 2)
    assert len(commutativity_conflicts(three, 2).pairs()) > len(
        commutativity_conflicts(two, 2).pairs()
    )
    assert _hybrid_relation(two) != _hybrid_relation(three)


def test_depth_and_relation_are_part_of_the_key():
    queue = Queue()
    assert commutativity_conflicts(queue, 2) is not commutativity_conflicts(queue, 3)
    static = known.ground(queue, known.QUEUE_STATIC, 5)
    dynamic = known.ground(queue, known.QUEUE_DYNAMIC, 5)
    assert hybrid_conflicts(queue, static) is not hybrid_conflicts(queue, dynamic)
    assert hybrid_conflicts(queue, static).pairs() != hybrid_conflicts(
        queue, dynamic
    ).pairs()
    # An equal relation built separately is the same key.
    again = known.ground(Queue(), known.QUEUE_STATIC, 5)
    assert hybrid_conflicts(queue, again) is hybrid_conflicts(queue, static)


def test_an_explicit_alphabet_is_derived_as_asked():
    queue = Queue()
    events = event_alphabet(queue, 2)
    narrow = commutativity_conflicts(queue, 2, events=events)
    assert narrow is not commutativity_conflicts(queue, 2)
    assert set(narrow.pairs()) == {(a, b) for a in events for b in events}


class _WritesAreReads(Register):
    """Identical attributes, different behaviour: ``Write`` does nothing."""

    def apply(self, state, invocation):
        return [
            (response, state) for response, _next in super().apply(state, invocation)
        ]


def test_a_subclass_overriding_apply_does_not_share_with_its_parent():
    parent, child = Register(), _WritesAreReads()
    assert vars(parent) == vars(child)
    assert read_only_operations(parent) == {"Read"}
    assert read_only_operations(child) == {"Read", "Write"}
    assert commutativity_conflicts(child, 2) is not commutativity_conflicts(parent, 2)


def test_unhashable_state_falls_back_to_one_memo_per_instance():
    first, second = Register(), Register()
    first.notes = second.notes = ["not hashable"]
    assert read_only_operations(first) == {"Read"}
    assert read_only_operations(first) is read_only_operations(first)
    assert commutativity_conflicts(first, 2) is commutativity_conflicts(first, 2)
    assert commutativity_conflicts(first, 2) is not commutativity_conflicts(second, 2)
    assert (
        commutativity_conflicts(first, 2).pairs()
        == commutativity_conflicts(Register(), 2).pairs()
    )


# -- (c) counted: one derivation per data type value -------------------------------


def test_building_clusters_derives_each_table_once(monkeypatch, cold_memo):
    calls = []

    def counting(datatype, *args, **kwargs):
        calls.append(type(datatype).__name__)
        return commutativity_table(datatype, *args, **kwargs)

    monkeypatch.setattr(cc_conflicts, "commutativity_table", counting)
    tables = set()
    for seed in range(24):
        cluster, _generator, names = build_scenario(
            "hot-key-contention", seed=seed, mechanism="blocking"
        )
        tables |= {id(cluster.tm.object(name).cc.conflicts) for name in names}
        assert len(names) == 8
    # Eight objects of three types per cluster: 192 derivations before the memo.
    assert sorted(calls) == ["Counter", "Queue", "Register"]
    assert len(tables) == 3


# -- shared means immutable ------------------------------------------------------


def test_nothing_shared_can_be_mutated_in_place():
    cluster, _generator, names = build_scenario("write-heavy", mechanism="hybrid")
    for name in names:
        obj = cluster.tm.object(name)
        table = obj.cc.conflicts
        event = next(iter(table.pairs()))[0]
        with pytest.raises(TypeError):
            table._conflicts[(event, event)] = False
        with pytest.raises(TypeError):
            del table._conflicts[(event, event)]
        before = table.conflict(event, event)
        table.pairs()[(event, event)] = not before  # a copy: no effect
        assert table.conflict(event, event) is before
        with pytest.raises(AttributeError):
            event.inv = None
        assert isinstance(obj.cc.relation.pairs, frozenset)
        with pytest.raises(AttributeError):
            obj.cc.relation.extra = 1
        assert isinstance(read_only_operations(obj.datatype), frozenset)


def _audited(mutation: str | None):
    cluster, generator, names = build_scenario(
        "hot-key-contention", seed=3, mechanism="blocking", tracer=Tracer()
    )
    auditor = Auditor(cluster)
    if mutation is not None:
        MUTATIONS[mutation](cluster)
    generator.run(40)
    tables = {name: cluster.tm.object(name).cc.conflicts for name in names}
    return auditor.finish(), tables


def test_a_seeded_mutation_does_not_leak_into_the_next_cluster():
    clean_before, tables = _audited(None)
    snapshot = {name: table.pairs() for name, table in tables.items()}
    mutated, mutated_tables = _audited("early-lock-release")
    clean_after, tables_after = _audited(None)
    assert clean_before.ok and clean_after.ok
    assert not mutated.ok
    for name, table in tables.items():
        assert mutated_tables[name] is table is tables_after[name]
        assert table.pairs() == snapshot[name]


# -- (d) outcomes do not depend on what was derived before -------------------------

_MECHANISMS = ("hybrid", "blocking", "multiversion")

#: Fingerprint of ``write-heavy`` under ``argv[1]`` in a cold process,
#: then again once all three mechanisms have filled the memo.  A child
#: process, so that neither side sees what earlier tests left behind.
_COLD_THEN_WARM = """
import json, sys
from repro.scenarios.runner import run_scenario

def fingerprint(mechanism):
    verdict = run_scenario("write-heavy", seed=1, mechanism=mechanism, transactions=40)
    return json.dumps(verdict["fingerprint"], sort_keys=True)

print(fingerprint(sys.argv[1]))
for mechanism in ("hybrid", "blocking", "multiversion"):
    fingerprint(mechanism)
print(fingerprint(sys.argv[1]))
"""


@pytest.mark.parametrize("mechanism", _MECHANISMS)
def test_fingerprint_is_the_same_cold_and_after_every_mechanism_ran(mechanism):
    child = subprocess.run(
        [sys.executable, "-c", _COLD_THEN_WARM, mechanism],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True, capture_output=True, text=True, timeout=120,
    )
    cold, warm = child.stdout.splitlines()
    assert json.loads(cold)["commits"] > 0
    assert cold == warm


@pytest.mark.parametrize("mechanism", _MECHANISMS)
def test_fingerprints_identical_across_job_counts(mechanism):
    trial = partial(
        scenario_trial, scenario="write-heavy", mechanism=mechanism, transactions=40
    )
    serial, _used = run_trials(trial, [0, 1, 2, 3], jobs=1)
    sharded, _used = run_trials(trial, [0, 1, 2, 3], jobs=2)
    assert [v["fingerprint"] for v in serial] == [v["fingerprint"] for v in sharded]
